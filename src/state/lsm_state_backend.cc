#include "state/lsm_state_backend.h"

#include <cstring>

#include "common/serde.h"
#include "state/change_log.h"

namespace rhino::state {

Result<std::unique_ptr<LsmStateBackend>> LsmStateBackend::Open(
    lsm::Env* env, std::string dir, std::string operator_name,
    uint32_t instance_id, lsm::Options options) {
  auto backend = std::unique_ptr<LsmStateBackend>(new LsmStateBackend(
      env, std::move(dir), std::move(operator_name), instance_id));
  RHINO_ASSIGN_OR_RETURN(backend->db_,
                         lsm::DB::Open(env, backend->dir_, options));
  return backend;
}

std::string LsmStateBackend::EncodeKey(uint32_t vnode, std::string_view key) {
  // Big-endian vnode prefix keeps each vnode's keys contiguous and sorted.
  std::string out;
  out.reserve(4 + key.size());
  out.push_back(static_cast<char>(vnode >> 24));
  out.push_back(static_cast<char>(vnode >> 16));
  out.push_back(static_cast<char>(vnode >> 8));
  out.push_back(static_cast<char>(vnode));
  out.append(key);
  return out;
}

Status LsmStateBackend::Put(uint32_t vnode, std::string_view key,
                            std::string_view value, uint64_t nominal_bytes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  RHINO_RETURN_NOT_OK(db_->Put(EncodeKey(vnode, key), value));
  vnode_bytes_[vnode] += nominal_bytes;
  RecordChange(vnode, key, &value);
  return Status::OK();
}

Status LsmStateBackend::Get(uint32_t vnode, std::string_view key,
                            std::string* value) {
  return db_->Get(EncodeKey(vnode, key), value);
}

Status LsmStateBackend::Delete(uint32_t vnode, std::string_view key,
                               uint64_t nominal_bytes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  RHINO_RETURN_NOT_OK(db_->Delete(EncodeKey(vnode, key)));
  DiscountBytes(vnode, nominal_bytes);
  RecordChange(vnode, key, nullptr);
  return Status::OK();
}

void LsmStateBackend::DiscountBytes(uint32_t vnode, uint64_t nominal_bytes) {
  auto it = vnode_bytes_.find(vnode);
  if (it != vnode_bytes_.end()) {
    it->second = nominal_bytes > it->second ? 0 : it->second - nominal_bytes;
  }
}

void LsmStateBackend::RecordChange(uint32_t vnode, std::string_view key,
                                   const std::string_view* value) {
  if (!tracking_) return;
  auto& keys = changes_[vnode];
  std::optional<std::string> latest;
  if (value != nullptr) latest.emplace(*value);
  auto it = keys.find(key);
  if (it == keys.end()) {
    keys.emplace(std::string(key), std::move(latest));
  } else {
    it->second = std::move(latest);
  }
}

Status LsmStateBackend::ApplyBatch(const std::vector<StateWrite>& writes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  lsm::WriteBatch batch;
  for (const auto& w : writes) {
    if (w.is_delete) {
      batch.Delete(EncodeKey(w.vnode, w.key));
    } else {
      batch.Put(EncodeKey(w.vnode, w.key), w.value);
    }
  }
  RHINO_RETURN_NOT_OK(db_->Write(batch));
  // Accounting only after the whole run committed.
  for (const auto& w : writes) {
    if (w.is_delete) {
      DiscountBytes(w.vnode, w.nominal_bytes);
      RecordChange(w.vnode, w.key, nullptr);
    } else {
      vnode_bytes_[w.vnode] += w.nominal_bytes;
      std::string_view value = w.value;
      RecordChange(w.vnode, w.key, &value);
    }
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>>
LsmStateBackend::ScanVnode(uint32_t vnode) {
  std::vector<std::pair<std::string, std::string>> out;
  RHINO_RETURN_NOT_OK(
      VisitVnode(vnode, [&](std::string_view key, std::string_view value) {
        out.emplace_back(key, value);
        return Status::OK();
      }));
  return out;
}

Status LsmStateBackend::VisitVnode(uint32_t vnode, const EntryVisitor& fn) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // The DB iterator streams block by block; only the entries the visitor
  // chooses to keep are ever materialized.
  RHINO_ASSIGN_OR_RETURN(
      auto it, db_->NewIterator(EncodeKey(vnode, ""), EncodeKey(vnode + 1, "")));
  for (; it.Valid(); it.Next()) {
    RHINO_RETURN_NOT_OK(
        fn(std::string_view(it.key()).substr(4), it.value()));
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>>
LsmStateBackend::ScanPrefix(uint32_t vnode, std::string_view prefix) {
  // Upper bound: the prefix with its last byte incremented (carrying over
  // 0xff bytes). An all-0xff prefix falls back to the vnode end.
  std::string begin = EncodeKey(vnode, prefix);
  std::string end = begin;
  while (!end.empty() && static_cast<uint8_t>(end.back()) == 0xff) end.pop_back();
  if (end.empty()) {
    end = EncodeKey(vnode + 1, "");
  } else {
    end.back() = static_cast<char>(static_cast<uint8_t>(end.back()) + 1);
  }
  RHINO_ASSIGN_OR_RETURN(auto it, db_->NewIterator(begin, end));
  std::vector<std::pair<std::string, std::string>> out;
  for (; it.Valid(); it.Next()) {
    out.emplace_back(it.key().substr(4), it.value());
  }
  return out;
}

uint64_t LsmStateBackend::SizeBytes() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [_, bytes] : vnode_bytes_) total += bytes;
  return total;
}

uint64_t LsmStateBackend::VnodeBytes(uint32_t vnode) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = vnode_bytes_.find(vnode);
  return it == vnode_bytes_.end() ? 0 : it->second;
}

Result<CheckpointDescriptor> LsmStateBackend::Checkpoint(
    uint64_t checkpoint_id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::string ckpt_dir = dir_ + "-chk-" + std::to_string(checkpoint_id);
  RHINO_ASSIGN_OR_RETURN(auto info, db_->CreateCheckpoint(ckpt_dir));

  CheckpointDescriptor desc;
  desc.checkpoint_id = checkpoint_id;
  desc.operator_name = operator_name_;
  desc.instance_id = instance_id_;
  for (const auto& f : info.files) {
    desc.files.push_back(StateFile{f.name, f.size});
  }
  desc.delta_files = DeltaFiles(last_checkpoint_files_, desc.files);
  desc.vnode_bytes = vnode_bytes_;
  last_checkpoint_files_ = desc.files;
  return desc;
}

Result<std::string> LsmStateBackend::ExtractVnodes(
    const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Entries stream straight from the DB iterator into the blob; the only
  // intermediate state per vnode is the fixed-width entry count, written
  // as a placeholder and patched once the vnode is done.
  std::string blob;
  BinaryWriter w(&blob);
  w.PutU32(static_cast<uint32_t>(vnodes.size()));
  for (uint32_t v : vnodes) {
    w.PutU32(v);
    w.PutU64(VnodeBytes(v));
    size_t count_offset = blob.size();
    w.PutU64(0);
    uint64_t count = 0;
    RHINO_RETURN_NOT_OK(
        VisitVnode(v, [&](std::string_view key, std::string_view value) {
          w.PutString(key);
          w.PutString(value);
          ++count;
          return Status::OK();
        }));
    std::memcpy(blob.data() + count_offset, &count, sizeof(count));
  }
  return blob;
}

Status LsmStateBackend::IngestVnodes(std::string_view blob, bool) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Entries are replayed through group-committed batches: one WAL append
  // per ~kIngestCommitBytes of entries rather than one per entry, which
  // is where vnode-restore ingest throughput comes from.
  constexpr uint64_t kIngestCommitBytes = 1 << 20;
  BinaryReader r(blob);
  uint32_t num_vnodes = 0;
  RHINO_RETURN_NOT_OK(r.GetU32(&num_vnodes));
  lsm::WriteBatch batch;
  for (uint32_t i = 0; i < num_vnodes; ++i) {
    uint32_t vnode = 0;
    uint64_t nominal = 0, count = 0;
    RHINO_RETURN_NOT_OK(r.GetU32(&vnode));
    RHINO_RETURN_NOT_OK(r.GetU64(&nominal));
    RHINO_RETURN_NOT_OK(r.GetU64(&count));
    for (uint64_t e = 0; e < count; ++e) {
      std::string_view key, value;
      RHINO_RETURN_NOT_OK(r.GetString(&key));
      RHINO_RETURN_NOT_OK(r.GetString(&value));
      batch.Put(EncodeKey(vnode, key), value);
      if (batch.ApproximateBytes() >= kIngestCommitBytes) {
        RHINO_RETURN_NOT_OK(db_->Write(batch));
        batch.Clear();
      }
    }
    vnode_bytes_[vnode] += nominal;
    changes_.erase(vnode);
  }
  return db_->Write(batch);
}

Status LsmStateBackend::DropVnodes(const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  constexpr uint64_t kDropCommitBytes = 1 << 20;
  for (uint32_t v : vnodes) {
    // Deleting while iterating is safe: the iterator is a snapshot, so
    // the tombstones it writes (and any flush/compaction they trigger) do
    // not perturb the visit. Tombstones are group-committed in runs.
    RHINO_ASSIGN_OR_RETURN(
        auto it, db_->NewIterator(EncodeKey(v, ""), EncodeKey(v + 1, "")));
    lsm::WriteBatch batch;
    for (; it.Valid(); it.Next()) {
      batch.Delete(it.key());
      if (batch.ApproximateBytes() >= kDropCommitBytes) {
        RHINO_RETURN_NOT_OK(db_->Write(batch));
        batch.Clear();
      }
    }
    RHINO_RETURN_NOT_OK(db_->Write(batch));
    vnode_bytes_.erase(v);
    changes_.erase(v);
  }
  return Status::OK();
}

bool LsmStateBackend::TrackChanges() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  tracking_ = true;
  return true;
}

Result<std::map<uint32_t, std::string>> LsmStateBackend::TakeVnodeChanges(
    const std::vector<uint32_t>& vnodes) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!tracking_) return StateBackend::TakeVnodeChanges(vnodes);
  std::map<uint32_t, std::string> logs;
  for (uint32_t v : vnodes) {
    std::string& log = logs[v];
    auto it = changes_.find(v);
    if (it == changes_.end()) continue;
    for (const auto& [key, value] : it->second) {
      AppendChange(&log, value ? ChangeKind::kPut : ChangeKind::kDelete, key,
                   value ? std::string_view(*value) : std::string_view());
    }
    changes_.erase(it);
  }
  return logs;
}

Result<std::string> LsmStateBackend::FoldVnodeBlob(std::string_view base,
                                                   std::string_view changes,
                                                   uint64_t nominal_bytes) {
  // The latest change per key; the log is small next to the base, and
  // its views point into `changes`, which outlives the merge.
  std::map<std::string_view, std::optional<std::string_view>> latest;
  RHINO_RETURN_NOT_OK(ForEachChange(
      changes,
      [&](ChangeKind kind, std::string_view key, std::string_view value) {
        latest[key] = kind == ChangeKind::kPut
                          ? std::optional<std::string_view>(value)
                          : std::nullopt;
        return Status::OK();
      }));

  BinaryReader r(base);
  uint32_t num_vnodes = 0, vnode = 0;
  uint64_t old_nominal = 0, count = 0;
  RHINO_RETURN_NOT_OK(r.GetU32(&num_vnodes));
  if (num_vnodes != 1) {
    return Status::Corruption("fold: base blob holds " +
                              std::to_string(num_vnodes) + " vnodes, not 1");
  }
  RHINO_RETURN_NOT_OK(r.GetU32(&vnode));
  RHINO_RETURN_NOT_OK(r.GetU64(&old_nominal));
  RHINO_RETURN_NOT_OK(r.GetU64(&count));

  // Same layout as ExtractVnodes({vnode}); the entry count is patched in
  // at the end.
  constexpr size_t kCountOffset = 4 + 4 + 8;  // nvnodes | vnode | nominal
  std::string out;
  out.reserve(base.size() + changes.size());
  BinaryWriter w(&out);
  w.PutU32(1);
  w.PutU32(vnode);
  w.PutU64(nominal_bytes);
  w.PutU64(0);
  uint64_t out_count = 0;
  auto emit = [&](std::string_view key, std::string_view value) {
    w.PutString(key);
    w.PutString(value);
    ++out_count;
  };
  // Merge of two key-ordered runs: a change replaces (or, as a delete,
  // removes) the base entry of its key.
  auto next = latest.begin();
  for (uint64_t e = 0; e < count; ++e) {
    std::string_view key, value;
    RHINO_RETURN_NOT_OK(r.GetString(&key));
    RHINO_RETURN_NOT_OK(r.GetString(&value));
    for (; next != latest.end() && next->first < key; ++next) {
      if (next->second) emit(next->first, *next->second);
    }
    if (next != latest.end() && next->first == key) {
      if (next->second) emit(key, *next->second);
      ++next;
    } else {
      emit(key, value);
    }
  }
  if (!r.AtEnd()) return Status::Corruption("fold: trailing bytes in base");
  for (; next != latest.end(); ++next) {
    if (next->second) emit(next->first, *next->second);
  }
  std::memcpy(out.data() + kCountOffset, &out_count, sizeof(out_count));
  return out;
}

}  // namespace rhino::state
