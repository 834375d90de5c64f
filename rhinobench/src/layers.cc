#include "layers.h"

#include <algorithm>
#include <memory>

#include "dataflow/operator_host.h"
#include "lsm/env.h"
#include "net/wire.h"
#include "state/lsm_state_backend.h"

namespace rbench {

using rhino::Result;
using rhino::Status;
using rhino::dataflow::Batch;

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// The counter's store key: the record key, 8 bytes big-endian.
std::string StoreKey(uint64_t key) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<size_t>(i)] = static_cast<char>(key & 0xff);
    key >>= 8;
  }
  return out;
}

Result<std::unique_ptr<rhino::state::LsmStateBackend>> OpenBackend(
    rhino::lsm::Env* env, const std::string& dir) {
  // The node's options (NodeServer::HandleAddOperator).
  rhino::lsm::Options options;
  options.background_maintenance = true;
  return rhino::state::LsmStateBackend::Open(env, dir, kCounterOp, 0,
                                             std::move(options));
}

}  // namespace

Result<LayerMetrics> ProbeWire(
    const std::vector<std::pair<std::string, std::string>>& samples,
    Tracer* tracer) {
  using rhino::net::ProcessBatchReply;
  using rhino::net::ProcessBatchRequest;
  if (samples.empty()) return Status::FailedPrecondition("no batch samples");
  std::vector<ProcessBatchRequest> requests;
  uint64_t records = 0;
  for (const auto& [req, reply] : samples) {
    RHINO_ASSIGN_OR_RETURN(ProcessBatchRequest decoded,
                           ProcessBatchRequest::Decode(req));
    records += decoded.batch.records.size();
    requests.push_back(std::move(decoded));
  }
  if (records == 0) return Status::FailedPrecondition("empty batch samples");
  constexpr int kRounds = 20;
  LayerMetrics m;
  {
    Tracer::Scope span(tracer, "wire", "batch_encode", 0);
    std::string out;
    int64_t t0 = NowNs();
    for (int r = 0; r < kRounds; ++r) {
      for (const auto& req : requests) {
        out.clear();
        req.EncodeTo(&out);
      }
    }
    m["wire.batch_encode_ns_per_record"] =
        static_cast<double>(NowNs() - t0) / (kRounds * static_cast<double>(records));
  }
  {
    Tracer::Scope span(tracer, "wire", "batch_decode", 0);
    int64_t t0 = NowNs();
    for (int r = 0; r < kRounds; ++r) {
      for (const auto& [req, reply] : samples) {
        auto decoded = ProcessBatchRequest::Decode(req);
        if (!decoded.ok()) return decoded.status();
      }
    }
    m["wire.batch_decode_ns_per_record"] =
        static_cast<double>(NowNs() - t0) / (kRounds * static_cast<double>(records));
  }
  {
    Tracer::Scope span(tracer, "wire", "reply_decode", 0);
    int64_t t0 = NowNs();
    for (int r = 0; r < kRounds; ++r) {
      for (const auto& [req, reply] : samples) {
        auto decoded = ProcessBatchReply::Decode(reply);
        if (!decoded.ok()) return decoded.status();
        if (!decoded->outputs.empty()) {
          auto outputs = rhino::net::DecodeBatch(decoded->outputs);
          if (!outputs.ok()) return outputs.status();
        }
      }
    }
    m["wire.reply_decode_ns_per_record"] =
        static_cast<double>(NowNs() - t0) / (kRounds * static_cast<double>(records));
  }
  return m;
}

Result<LayerMetrics> ProbeState(const std::string& dir, uint64_t keys,
                                const std::vector<Batch>& waves,
                                Tracer* tracer) {
  rhino::lsm::PosixEnv env;
  RHINO_RETURN_NOT_OK(env.CreateDir(dir));
  auto vnode_of = [](uint64_t key) {
    return rhino::net::VnodeForKey(key, kNumVnodes);
  };
  // Node 0's initial share: ClusterDriver assigns vnodes round-robin.
  std::vector<uint32_t> owned;
  for (uint32_t v = 0; v < kNumVnodes; v += kNumNodes) owned.push_back(v);

  rhino::dataflow::OperatorSpec spec;
  spec.kind = rhino::dataflow::OperatorKind::kKeyedCounter;
  spec.name = kCounterOp;
  spec.num_vnodes = kNumVnodes;
  spec.input_arity = 1;
  RHINO_ASSIGN_OR_RETURN(auto backend, OpenBackend(&env, dir + "/a"));
  RHINO_ASSIGN_OR_RETURN(
      auto host, rhino::dataflow::OperatorHost::Create(spec, std::move(backend),
                                                       vnode_of, 0));
  host->InitOwned(owned);

  auto owned_only = [&](const std::vector<rhino::dataflow::Record>& recs,
                        uint64_t offset) {
    Batch b;
    b.source_id = 0;
    b.source_offset = offset;
    for (const auto& r : recs) {
      if (host->Owns(vnode_of(r.key))) {
        b.records.push_back(r);
        b.count += 1;
        b.bytes += r.size;
      }
    }
    return b;
  };

  // Preload: every key of the share once, like the cluster's set-up.
  std::vector<uint64_t> share_keys;
  std::vector<rhino::dataflow::Record> preload;
  for (uint64_t k = 0; k < keys; ++k) {
    if (!host->Owns(vnode_of(k))) continue;
    share_keys.push_back(k);
    rhino::dataflow::Record r;
    r.key = k;
    r.size = 32;
    preload.push_back(r);
  }
  uint64_t offset = 0;
  {
    Batch b = owned_only(preload, offset++);
    Batch out;
    RHINO_ASSIGN_OR_RETURN(auto applied, host->Apply(0, b, 0, &out, true));
    if (applied.applied != share_keys.size()) {
      return Status::Corruption("probe preload applied a wrong count");
    }
  }

  LayerMetrics m;
  {
    Tracer::Scope span(tracer, "operator_host", "apply", 0);
    uint64_t records = 0;
    int64_t busy_ns = 0;
    for (const Batch& wave : waves) {
      Batch b = owned_only(wave.records, offset++);
      Batch out;
      int64_t t0 = NowNs();
      RHINO_ASSIGN_OR_RETURN(auto applied, host->Apply(0, b, 0, &out, true));
      busy_ns += NowNs() - t0;
      records += applied.applied;
    }
    m["operator_host.apply_ns_per_record"] =
        records == 0 ? 0 : static_cast<double>(busy_ns) / static_cast<double>(records);
  }

  rhino::state::StateBackend* a = host->backend();
  {
    Tracer::Scope span(tracer, "lsm", "get_put", 0);
    constexpr size_t kOps = 50'000;
    std::vector<std::string> values(kOps);
    int64_t t0 = NowNs();
    for (size_t i = 0; i < kOps; ++i) {
      uint64_t key = share_keys[(i * 7919) % share_keys.size()];
      RHINO_RETURN_NOT_OK(a->Get(vnode_of(key), StoreKey(key), &values[i]));
    }
    m["lsm.get_ns"] = static_cast<double>(NowNs() - t0) / kOps;
    t0 = NowNs();
    for (size_t i = 0; i < kOps; ++i) {
      // Rewrites the value just read: state stays as it was.
      uint64_t key = share_keys[(i * 7919) % share_keys.size()];
      RHINO_RETURN_NOT_OK(a->Put(vnode_of(key), StoreKey(key), values[i], 0));
    }
    m["lsm.put_ns"] = static_cast<double>(NowNs() - t0) / kOps;
  }

  {
    Tracer::Scope span(tracer, "state", "snapshot", 0);
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      int64_t t0 = NowNs();
      RHINO_ASSIGN_OR_RETURN(auto blobs, a->ExtractVnodeBlobs(owned));
      ms.push_back(MsSince(t0));
      if (blobs.size() != owned.size()) {
        return Status::Corruption("snapshot missed vnodes");
      }
    }
    m["state.snapshot_ms"] = Median(ms);
  }

  {
    // The handover set: a quarter of the share, moved back and forth
    // between two backends.
    Tracer::Scope span(tracer, "state", "handover_set", 0);
    std::vector<uint32_t> moved(owned.begin(),
                                owned.begin() + static_cast<long>(owned.size() / 4));
    uint64_t state_bytes = 0;
    for (uint32_t v : moved) state_bytes += a->VnodeBytes(v);
    RHINO_ASSIGN_OR_RETURN(auto b_backend, OpenBackend(&env, dir + "/b"));
    rhino::state::StateBackend* from = a;
    rhino::state::StateBackend* to = b_backend.get();
    std::vector<double> extract_ms, ingest_ms, drop_ms;
    uint64_t blob_bytes = 0;
    for (int r = 0; r < 6; ++r) {
      int64_t t0 = NowNs();
      RHINO_ASSIGN_OR_RETURN(std::string blob, from->ExtractVnodes(moved));
      extract_ms.push_back(MsSince(t0));
      blob_bytes = blob.size();
      t0 = NowNs();
      RHINO_RETURN_NOT_OK(to->IngestVnodes(blob, false));
      ingest_ms.push_back(MsSince(t0));
      t0 = NowNs();
      RHINO_RETURN_NOT_OK(from->DropVnodes(moved));
      drop_ms.push_back(MsSince(t0));
      std::swap(from, to);
    }
    m["state.extract_ms"] = Median(extract_ms);
    m["state.ingest_ms"] = Median(ingest_ms);
    m["state.drop_ms"] = Median(drop_ms);
    m["state.blob_bytes_per_state_byte"] =
        state_bytes == 0 ? 0 : static_cast<double>(blob_bytes) / static_cast<double>(state_bytes);
  }
  return m;
}

}  // namespace rbench
