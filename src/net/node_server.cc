#include "net/node_server.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "rhino/checkpoint_storage.h"
#include "state/modeled_state_backend.h"

namespace rhino::net {

namespace {
/// Pacing between retries after a stream failure: without it a dead
/// successor turns the replicator into a busy loop (loopback Call and a
/// broken channel Submit both fail instantly).
constexpr auto kReplErrorPacing = std::chrono::milliseconds(20);
}  // namespace

std::string CheckpointImagePath(const std::string& ckpt_dir,
                                uint32_t origin_node, const std::string& op) {
  return ckpt_dir + "/node-" + std::to_string(origin_node) + "-" + op +
         ".img";
}

NodeServer::NodeServer(lsm::Env* env, Transport* transport,
                       NodeServerOptions options, obs::Observability* obs)
    : env_(env),
      transport_(transport),
      options_(std::move(options)),
      obs_(obs != nullptr ? obs : obs::Observability::Default()) {
  if (options_.continuous_replication && transport_ != nullptr) {
    std::random_device rd;
    // Never 0: sync-mode images are held under epoch 0.
    repl_->epoch = ((static_cast<uint64_t>(rd()) << 32) | rd()) | 1;
    replicating_ = true;
    replicator_ = std::thread([this] { ReplicatorLoop(); });
  }
}

NodeServer::~NodeServer() { StopReplication(); }

void NodeServer::StopReplication() {
  {
    std::lock_guard<std::mutex> lock(repl_->mu);
    repl_->stop = true;
  }
  repl_->work_cv.notify_all();
  repl_->barrier_cv.notify_all();
  if (replicator_.joinable()) replicator_.join();
}

Result<std::string> NodeServer::Handle(MessageType type,
                                       std::string_view body) {
  if (type == MessageType::kCheckpoint) {
    // Manages its own locking: the barrier must wait with mu_ released so
    // the replicator can drain the stream.
    return HandleCheckpoint(body);
  }
  if (type == MessageType::kProcessBatch && options_.apply_delay_us > 0) {
    // Emulated service latency (bench seam) — outside mu_ so it models a
    // slow link, not a held lock.
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.apply_delay_us));
  }
  std::lock_guard<std::mutex> lock(mu_);
  switch (type) {
    case MessageType::kHello:
      return HandleHello(body);
    case MessageType::kAddOperator:
      return HandleAddOperator(body);
    case MessageType::kProcessBatch:
      return HandleProcessBatch(body);
    case MessageType::kCheckpoint:
      break;  // dispatched above
    case MessageType::kExtractVnodes:
      return HandleExtractVnodes(body);
    case MessageType::kIngestVnodes:
      return HandleIngestVnodes(body);
    case MessageType::kDropVnodes:
      return HandleDropVnodes(body);
    case MessageType::kReplicateState:
      return HandleReplicateState(body);
    case MessageType::kPromoteReplica:
    case MessageType::kRestoreFromCheckpoint:
      return HandleReplicaFetch(type, body);
    case MessageType::kQueryCount:
      return HandleQueryCount(body);
    case MessageType::kStats:
      return HandleStats();
    case MessageType::kShutdown:
      shutdown_.store(true);
      return std::string();
    case MessageType::kReply:
      break;
  }
  return Status::InvalidArgument(std::string("node cannot serve ") +
                                 MessageTypeName(type));
}

Result<NodeServer::Shard*> NodeServer::FindShard(const std::string& op) {
  auto it = shards_.find(op);
  if (it == shards_.end()) {
    return Status::NotFound("no operator shard: " + op);
  }
  return &it->second;
}

Result<std::string> NodeServer::HandleHello(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(HelloRequest req, HelloRequest::Decode(body));
  node_id_.store(req.node_id);
  successor_ = req.successor;
  RHINO_RETURN_NOT_OK(env_->CreateDir(options_.data_dir));
  RHINO_RETURN_NOT_OK(env_->CreateDir(options_.ckpt_dir));
  if (replicating_) {
    // The ring (re)formed: forget the old successor's failures and
    // re-baseline — everything owned ships again so the NEW successor
    // holds a complete replica, not just future deltas.
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      repl_->error = Status::OK();
    }
    for (const auto& [op, shard] : shards_) {
      MarkReplDirty(op, shard.host->owned(), /*whole=*/true);
    }
    repl_->work_cv.notify_all();
  }
  return std::string();
}

Result<std::string> NodeServer::HandleAddOperator(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(AddOperatorRequest req,
                         AddOperatorRequest::Decode(body));
  const dataflow::OperatorSpec& spec = req.spec;
  if (spec.num_vnodes == 0) {
    return Status::InvalidArgument("num_vnodes must be > 0");
  }
  auto it = shards_.find(spec.name);
  if (it != shards_.end()) {
    // Idempotent re-add (driver retry after a transport hiccup).
    const dataflow::OperatorSpec& have = it->second.host->spec();
    if (have.num_vnodes != spec.num_vnodes || have.kind != spec.kind) {
      return Status::AlreadyExists("operator " + spec.name +
                                   " exists with a different spec");
    }
    return std::string();
  }
  std::unique_ptr<state::StateBackend> backend;
  if (spec.kind == dataflow::OperatorKind::kModeledState) {
    // Modeled operators account bytes instead of materializing values —
    // no LSM shard on disk, same protocols above the backend interface.
    backend = std::make_unique<state::ModeledStateBackend>(spec.name,
                                                           node_id_.load());
  } else {
    // Real worker processes take flushes/compactions off the RPC thread:
    // a ProcessBatch that fills a memtable schedules the flush and
    // returns instead of paying for it inline (failures surface on the
    // next write).
    lsm::Options lsm_options;
    lsm_options.background_maintenance = true;
    RHINO_ASSIGN_OR_RETURN(
        backend,
        state::LsmStateBackend::Open(env_, options_.data_dir + "/" + spec.name,
                                     spec.name, node_id_.load(),
                                     std::move(lsm_options)));
  }
  const uint32_t num_vnodes = spec.num_vnodes;
  RHINO_ASSIGN_OR_RETURN(
      auto host,
      dataflow::OperatorHost::Create(
          spec, std::move(backend),
          [num_vnodes](uint64_t key) { return VnodeForKey(key, num_vnodes); },
          node_id_.load()));
  host->InitOwned(req.owned_vnodes);
  // Only a node that streams deltas records key changes; anything else
  // would hold them forever.
  if (replicating_) host->TrackChanges();
  Shard shard;
  shard.host = std::move(host);
  shards_.emplace(spec.name, std::move(shard));
  // Baseline the stream: even before any traffic, the successor should
  // hold an (empty-state) replica of every owned vnode, so promotion
  // works for a node killed right after setup.
  MarkReplDirty(spec.name, req.owned_vnodes, /*whole=*/true);
  return std::string();
}

Result<std::string> NodeServer::HandleProcessBatch(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ProcessBatchRequest req,
                         ProcessBatchRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  // The host runs the same dedup + operator core as the in-process
  // engine; strict ownership turns a misrouted record into a clean
  // FailedPrecondition before any state mutation.
  dataflow::Batch out;
  out.create_time = req.batch.create_time;
  RHINO_ASSIGN_OR_RETURN(
      dataflow::ApplyResult applied,
      shard->host->Apply(static_cast<int>(req.side), req.batch,
                         /*now=*/req.batch.create_time, &out,
                         /*strict_ownership=*/true));
  ProcessBatchReply reply;
  reply.applied = applied.applied;
  reply.deduped = applied.deduped;
  reply.applied_vnodes.assign(applied.applied_vnodes.begin(),
                              applied.applied_vnodes.end());
  if (req.return_outputs != 0 && out.count > 0) {
    EncodeBatch(out, &reply.outputs);
  }
  MarkReplDirty(req.op, applied.applied_vnodes);
  shard->applied += reply.applied;
  shard->deduped += reply.deduped;
  std::string encoded;
  reply.EncodeTo(&encoded);
  return encoded;
}

Result<rhino::ReplicaState> NodeServer::Snapshot(
    Shard* shard, const std::vector<uint32_t>& vnodes, uint64_t id) {
  RHINO_ASSIGN_OR_RETURN(dataflow::OperatorImage image,
                         shard->host->ExtractImage(vnodes, id));
  // For the join, this image is the unit of consistency: both side
  // columns of a vnode travel inside one blob.
  image.descriptor.instance_id = node_id_.load();
  rhino::ReplicaState rs;
  rs.latest_checkpoint_id = id;
  rs.latest_descriptor = std::move(image.descriptor);
  rs.vnode_blobs = std::move(image.blobs);
  return rs;
}

Status NodeServer::Absorb(const std::string& op, rhino::ReplicaState&& rs,
                          const std::vector<uint32_t>& vnodes,
                          bool already_durable) {
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(op));
  dataflow::OperatorImage image;
  // Blobs are stolen (they dominate the image); the descriptor is copied
  // because kPromoteReplica still returns it to the driver afterwards.
  image.descriptor = rs.latest_descriptor;
  image.blobs = std::move(rs.vnode_blobs);
  // Dedup positions come WITH the state: replay resumes exactly where the
  // snapshot stopped (the host assigns, never max-merges).
  RHINO_ASSIGN_OR_RETURN(std::vector<uint32_t> absorbed,
                         shard->host->Absorb(image, vnodes, already_durable));
  // Newly absorbed vnodes are state this node's OWN successor has not
  // seen yet, and no earlier ship of ours is a base for them.
  MarkReplDirty(op, absorbed, /*whole=*/true);
  return Status::OK();
}

Result<std::string> NodeServer::HandleCheckpoint(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(dataflow::ControlEvent ev, DecodeControlEvent(body));
  if (ev.type != dataflow::ControlEvent::Type::kCheckpointBarrier) {
    return Status::InvalidArgument("kCheckpoint body is not a barrier");
  }
  CheckpointReply reply;
  reply.checkpoint_id = ev.id;
  bool want_barrier = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [op, shard] : shards_) {
      const auto& owned_set = shard.host->owned();
      std::vector<uint32_t> owned(owned_set.begin(), owned_set.end());
      RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                             Snapshot(&shard, owned, ev.id));
      std::string image;
      rhino::EncodeReplicaState(rs, &image);
      reply.bytes += image.size();
      ++reply.operators;
      // Durable image first (the "DFS" copy), then the chain hop: a crash
      // between the two leaves at least the image restorable.
      RHINO_RETURN_NOT_OK(rhino::WriteCheckpointImage(
          env_, CheckpointImagePath(options_.ckpt_dir, node_id_.load(), op),
          rs));
      if (!replicating_ && !successor_.empty() && transport_ != nullptr) {
        // Sync mode: the full image hops the chain inside the barrier —
        // checkpoint cost scales with total state volume.
        ReplicateStateRequest rep;
        rep.origin_node = node_id_.load();
        rep.op = op;
        rep.replica = std::move(image);
        std::string rep_body;
        rep.EncodeTo(&rep_body);
        RHINO_RETURN_NOT_OK(transport_->Call(
            successor_, MessageType::kReplicateState, rep_body, nullptr));
        {
          std::lock_guard<std::mutex> rlock(repl_->mu);
          repl_->bytes_shipped += rep_body.size();
        }
        reply.replicated = 1;
      }
    }
    want_barrier = replicating_ && !successor_.empty();
  }
  if (want_barrier) {
    // Continuous mode: replication already streamed in the background;
    // the barrier only waits for the stream to drain (sequence-number
    // barrier), independent of how much state the deltas carried.
    RHINO_RETURN_NOT_OK(WaitReplicationBarrier());
    reply.replicated = 1;
  }
  obs_->trace().Emit("net", "node_checkpoint",
                     "node" + std::to_string(node_id_.load()), ev.id,
                     {{"bytes", static_cast<int64_t>(reply.bytes)}});
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

Result<std::string> NodeServer::HandleExtractVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(HandoverStateRequest req,
                         HandoverStateRequest::Decode(body));
  if (req.control.handover == nullptr ||
      req.move_index >= req.control.handover->moves.size()) {
    return Status::InvalidArgument("extract request without a valid move");
  }
  const auto& spec = *req.control.handover;
  const auto& move = spec.moves[req.move_index];
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(spec.operator_name));
  for (uint32_t vnode : move.vnodes) {
    if (!shard->host->Owns(vnode)) {
      return Status::FailedPrecondition("extract of unowned vnode " +
                                        std::to_string(vnode));
    }
  }
  RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                         Snapshot(shard, move.vnodes, spec.id));
  obs_->trace().Emit("net", "handover_extract",
                     "node" + std::to_string(node_id_.load()), spec.id,
                     {{"vnodes", static_cast<int64_t>(move.vnodes.size())}});
  std::string out;
  EncodeReplicaState(rs, &out);
  return out;
}

Result<std::string> NodeServer::HandleIngestVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(HandoverStateRequest req,
                         HandoverStateRequest::Decode(body));
  if (req.control.handover == nullptr ||
      req.move_index >= req.control.handover->moves.size()) {
    return Status::InvalidArgument("ingest request without a valid move");
  }
  const auto& spec = *req.control.handover;
  const auto& move = spec.moves[req.move_index];
  RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                         rhino::DecodeReplicaState(req.replica));
  RHINO_RETURN_NOT_OK(Absorb(spec.operator_name, std::move(rs), move.vnodes,
                             req.durable != 0));
  obs_->trace().Emit("net", "handover_ingest",
                     "node" + std::to_string(node_id_.load()), spec.id,
                     {{"vnodes", static_cast<int64_t>(move.vnodes.size())}});
  return std::string();
}

Result<std::string> NodeServer::HandleDropVnodes(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(VnodeSetRequest req, VnodeSetRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  RHINO_RETURN_NOT_OK(shard->host->Drop(req.vnodes));
  if (replicating_ && !req.vnodes.empty()) {
    // Dropped vnodes become stream tombstones: the successor must purge
    // them from its replica, or a later promotion would resurrect state
    // that was handed to another node (double counting).
    {
      std::lock_guard<std::mutex> lock(repl_->mu);
      for (auto* pending : {&repl_->dirty, &repl_->whole}) {
        auto dit = pending->find(req.op);
        if (dit == pending->end()) continue;
        for (uint32_t vnode : req.vnodes) dit->second.erase(vnode);
        if (dit->second.empty()) pending->erase(dit);
      }
      auto& tomb = repl_->dropped[req.op];
      tomb.insert(req.vnodes.begin(), req.vnodes.end());
    }
    repl_->work_cv.notify_all();
  }
  return std::string();
}

Result<std::string> NodeServer::HandleReplicateState(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ReplicateStateRequest req,
                         ReplicateStateRequest::Decode(body));
  if (req.delta == 0) {
    // Full image (sync-mode checkpoint hop): wholesale replace.
    RHINO_ASSIGN_OR_RETURN(rhino::ReplicaState rs,
                           rhino::DecodeReplicaState(req.replica));
    HeldReplica held;
    held.latest_seq = rs.latest_checkpoint_id;
    const auto& marks = rs.latest_descriptor.vnode_watermarks;
    for (const auto& [vnode, bytes] : rs.latest_descriptor.vnode_bytes) {
      HeldVnode& hv = held.vnodes[vnode];
      hv.seq = rs.latest_checkpoint_id;
      hv.nominal_bytes = bytes;
      auto mit = marks.find(vnode);
      if (mit != marks.end()) hv.watermarks = mit->second;
      auto blob = rs.vnode_blobs.find(vnode);
      if (blob != rs.vnode_blobs.end()) hv.base = std::move(blob->second);
    }
    replicas_[{req.origin_node, req.op}] = std::move(held);
    return std::string();
  }
  // One element of the stream. Its tombstones were taken before its ships
  // were captured, so they apply first: a vnode handed away and back
  // arrives as a drop followed by a whole ship.
  HeldReplica& held = replicas_[{req.origin_node, req.op}];
  held.latest_seq = std::max(held.latest_seq, req.stream_seq);
  for (uint32_t vnode : req.dropped_vnodes) held.vnodes.erase(vnode);
  ReplicateStateReply reply;
  for (VnodeShip& ship : req.vnodes) {
    const uint32_t vnode = ship.vnode;
    if (!ApplyShip(req.stream_epoch, req.stream_seq, std::move(ship),
                   &held)) {
      reply.rejected_vnodes.push_back(vnode);
    }
  }
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

bool NodeServer::ApplyShip(uint64_t epoch, uint64_t seq, VnodeShip&& ship,
                           HeldReplica* held) {
  if (ship.whole != 0) {
    HeldVnode& hv = held->vnodes[ship.vnode];
    hv.epoch = epoch;
    hv.seq = seq;
    hv.nominal_bytes = ship.nominal_bytes;
    hv.watermarks = std::move(ship.watermarks);
    hv.base = std::move(ship.state);
    hv.tail = std::string();
    return true;
  }
  // A key delta is only meaningful on top of the exact ship it was taken
  // after. On any other copy (an earlier ship failed or was rejected) it
  // is refused, and the copy stays as it is: older, but consistent.
  auto it = held->vnodes.find(ship.vnode);
  if (it == held->vnodes.end() || it->second.epoch != epoch ||
      it->second.seq != ship.base_seq) {
    return false;
  }
  HeldVnode& hv = it->second;
  hv.tail.append(ship.state);
  hv.seq = seq;
  hv.nominal_bytes = ship.nominal_bytes;
  hv.watermarks = std::move(ship.watermarks);
  // Fold once the tail outgrows the base: the held copy stays within
  // twice the vnode's blob, and folding costs O(blob) per blob's worth of
  // deltas.
  if (hv.tail.size() > hv.base.size() && !FoldHeldVnode(&hv).ok()) {
    // Unusable base: forget the vnode rather than hold a torn copy; the
    // rejection makes the origin re-ship it whole.
    held->vnodes.erase(it);
    return false;
  }
  return true;
}

Status NodeServer::FoldHeldVnode(HeldVnode* hv) {
  if (hv->tail.empty()) return Status::OK();
  RHINO_ASSIGN_OR_RETURN(std::string folded,
                         state::LsmStateBackend::FoldVnodeBlob(
                             hv->base, hv->tail, hv->nominal_bytes));
  hv->base = std::move(folded);
  hv->tail = std::string();
  return Status::OK();
}

Result<std::string> NodeServer::HandleReplicaFetch(MessageType type,
                                                   std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(ReplicaFetchRequest req,
                         ReplicaFetchRequest::Decode(body));
  rhino::ReplicaState rs;
  if (type == MessageType::kPromoteReplica) {
    auto it = replicas_.find({req.origin_node, req.op});
    if (it == replicas_.end()) {
      return Status::NotFound("no replica of node " +
                              std::to_string(req.origin_node) + " op " +
                              req.op + " on node " +
                              std::to_string(node_id_.load()));
    }
    HeldReplica& held = it->second;
    rs.latest_checkpoint_id = held.latest_seq;
    rs.latest_descriptor.checkpoint_id = held.latest_seq;
    rs.latest_descriptor.operator_name = req.op;
    rs.latest_descriptor.instance_id = req.origin_node;
    const std::set<uint32_t> wanted(req.vnodes.begin(), req.vnodes.end());
    for (auto& [vnode, hv] : held.vnodes) {
      rs.latest_descriptor.vnode_bytes[vnode] = hv.nominal_bytes;
      if (!hv.watermarks.empty()) {
        rs.latest_descriptor.vnode_watermarks[vnode] = hv.watermarks;
      }
      if (!wanted.empty() && wanted.count(vnode) == 0) continue;
      RHINO_RETURN_NOT_OK(FoldHeldVnode(&hv));
      if (!hv.base.empty()) rs.vnode_blobs[vnode] = hv.base;
    }
  } else {
    RHINO_ASSIGN_OR_RETURN(
        rs, rhino::ReadCheckpointImage(
                env_, CheckpointImagePath(options_.ckpt_dir, req.origin_node,
                                          req.op)));
  }
  RHINO_RETURN_NOT_OK(
      Absorb(req.op, std::move(rs), req.vnodes, /*already_durable=*/true));
  obs_->trace().Emit(
      "net",
      type == MessageType::kPromoteReplica ? "promote_replica"
                                           : "restore_from_checkpoint",
      "node" + std::to_string(node_id_.load()), rs.latest_checkpoint_id,
      {{"origin", static_cast<int64_t>(req.origin_node)}});
  // The reply is the image minus the blobs: the driver only needs the
  // descriptor (replay watermarks) to rewind its partition cursors.
  rs.vnode_blobs.clear();
  std::string out;
  EncodeReplicaState(rs, &out);
  return out;
}

Result<std::string> NodeServer::HandleQueryCount(std::string_view body) {
  RHINO_ASSIGN_OR_RETURN(QueryCountRequest req,
                         QueryCountRequest::Decode(body));
  RHINO_ASSIGN_OR_RETURN(Shard * shard, FindShard(req.op));
  uint32_t vnode = shard->host->VnodeOf(req.key);
  if (!shard->host->Owns(vnode)) {
    return Status::FailedPrecondition("query for unowned vnode " +
                                      std::to_string(vnode));
  }
  RHINO_ASSIGN_OR_RETURN(dataflow::OperatorQueryResult result,
                         shard->host->Query(req.key));
  QueryCountReply reply;
  reply.count = result.count;
  reply.left = result.left;
  reply.right = result.right;
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

Result<std::string> NodeServer::HandleStats() {
  StatsReply reply;
  for (const auto& [op, shard] : shards_) {
    reply.applied += shard.applied;
    reply.deduped += shard.deduped;
    reply.owned_vnodes += shard.host->owned().size();
    reply.state_bytes += shard.host->backend()->SizeBytes();
  }
  reply.replicas_held = replicas_.size();
  {
    std::lock_guard<std::mutex> lock(repl_->mu);
    for (const auto& [op, set] : repl_->dirty) reply.repl_dirty += set.size();
    for (const auto& [op, set] : repl_->dropped) {
      reply.repl_dirty += set.size();
    }
    reply.repl_inflight = repl_->inflight;
    reply.repl_stream_seq = repl_->stream_seq;
    reply.repl_shipped = repl_->shipped;
    reply.repl_bytes_shipped = repl_->bytes_shipped;
  }
  std::string out;
  reply.EncodeTo(&out);
  return out;
}

void NodeServer::ReplicatorLoop() {
  // The loop holds repl_->mu only for bookkeeping and mu_ only while
  // capturing; the actual ship is an async submit, so writers are never
  // blocked behind the network.
  auto repl = repl_;
  // op -> vnode -> stream seq of that vnode's previous ship: the base its
  // next key delta applies on. Only this thread touches it.
  std::map<std::string, std::map<uint32_t, uint64_t>> last_ship;
  // Puts unacknowledged work back on the stream, every vnode as a whole
  // ship (its changes were taken). Caller holds repl->mu.
  auto requeue = [repl](const std::string& op,
                        const std::vector<uint32_t>& vnodes,
                        const std::vector<uint32_t>& dropped) {
    if (!vnodes.empty()) {
      repl->dirty[op].insert(vnodes.begin(), vnodes.end());
      repl->whole[op].insert(vnodes.begin(), vnodes.end());
    }
    if (!dropped.empty()) {
      repl->dropped[op].insert(dropped.begin(), dropped.end());
    }
  };
  auto take = [](std::map<std::string, std::set<uint32_t>>* pending,
                 const std::string& op) {
    std::set<uint32_t> out;
    auto it = pending->find(op);
    if (it != pending->end()) {
      out = std::move(it->second);
      pending->erase(it);
    }
    return out;
  };
  while (true) {
    std::string op;
    bool paced = false;
    {
      std::unique_lock<std::mutex> lock(repl->mu);
      repl->work_cv.wait(lock, [&] {
        return repl->stop ||
               ((!repl->dirty.empty() || !repl->dropped.empty()) &&
                repl->inflight < options_.repl_credit_window);
      });
      if (repl->stop) return;
      op = !repl->dirty.empty() ? repl->dirty.begin()->first
                                : repl->dropped.begin()->first;
      ++repl->inflight;  // credit spent before the lock drops
      paced = !repl->error.ok();
    }
    if (paced) {
      // Last ship failed (dead successor until the ring re-forms): retry,
      // but not in a busy loop.
      std::this_thread::sleep_for(kReplErrorPacing);
      std::lock_guard<std::mutex> lock(repl->mu);
      if (repl->stop) {
        --repl->inflight;
        return;
      }
    }
    // Capture under mu_: the pending vnodes and tombstones are popped and
    // each vnode's state, watermarks and nominal bytes are read in one
    // step, so an element's drops and ships reflect one instant of the
    // shard.
    std::vector<uint32_t> vnodes;
    std::vector<uint32_t> dropped;
    ReplicateStateRequest req;
    std::string successor;
    Status failure;
    bool have = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::set<uint32_t> whole;
      {
        std::lock_guard<std::mutex> rlock(repl->mu);
        std::set<uint32_t> dirty = take(&repl->dirty, op);
        vnodes.assign(dirty.begin(), dirty.end());
        whole = take(&repl->whole, op);
        std::set<uint32_t> drops = take(&repl->dropped, op);
        dropped.assign(drops.begin(), drops.end());
      }
      successor = successor_;
      auto it = shards_.find(op);
      Shard* shard = it != shards_.end() ? &it->second : nullptr;
      std::map<uint32_t, uint64_t>& bases = last_ship[op];
      std::vector<uint32_t> ship_whole;
      std::vector<uint32_t> ship_delta;
      if (shard != nullptr) {
        for (uint32_t vnode : vnodes) {
          // A vnode dirtied then handed away ships as a tombstone only.
          if (!shard->host->Owns(vnode)) continue;
          bool as_whole = !shard->host->tracks_changes() ||
                          whole.count(vnode) != 0 || bases.count(vnode) == 0;
          (as_whole ? ship_whole : ship_delta).push_back(vnode);
        }
      }
      if (successor.empty()) {
        // Nothing to ship to. Forget the recorded changes so they do not
        // pile up: forming the ring (kHello) re-ships every vnode whole.
        if (shard != nullptr && shard->host->tracks_changes()) {
          (void)shard->host->backend()->TakeVnodeChanges(vnodes);
        }
      } else if (!ship_whole.empty() || !ship_delta.empty() ||
                 !dropped.empty()) {
        uint64_t seq;
        {
          std::lock_guard<std::mutex> rlock(repl->mu);
          seq = ++repl->stream_seq;
        }
        std::vector<dataflow::VnodeDelta> captured;
        if (shard != nullptr) {
          auto capture =
              shard->host->CaptureReplicationDelta(ship_whole, ship_delta);
          if (capture.ok()) {
            captured = std::move(capture).MoveValue();
          } else {
            failure = capture.status();
          }
        }
        if (failure.ok()) {
          req.origin_node = node_id_.load();
          req.op = op;
          req.delta = 1;
          req.stream_epoch = repl->epoch;
          req.stream_seq = seq;
          req.dropped_vnodes = dropped;
          req.vnodes.reserve(captured.size());
          for (dataflow::VnodeDelta& d : captured) {
            VnodeShip ship;
            ship.vnode = d.vnode;
            ship.whole = d.whole ? 1 : 0;
            ship.base_seq = d.whole ? 0 : bases[d.vnode];
            ship.nominal_bytes = d.nominal_bytes;
            ship.watermarks = std::move(d.watermarks);
            ship.state = std::move(d.state);
            bases[d.vnode] = seq;
            req.vnodes.push_back(std::move(ship));
          }
          have = true;
        }
      }
    }
    if (!have) {
      // Nothing to ship (no successor, or the vnodes all moved away) or
      // the capture failed. Return the credit; requeue on failure.
      std::lock_guard<std::mutex> lock(repl->mu);
      --repl->inflight;
      if (!failure.ok()) {
        repl->error = failure;
        requeue(op, vnodes, dropped);
      }
      repl->work_cv.notify_all();
      repl->barrier_cv.notify_all();
      continue;
    }
    std::vector<uint32_t> shipped;
    shipped.reserve(req.vnodes.size());
    for (const VnodeShip& ship : req.vnodes) shipped.push_back(ship.vnode);
    std::string req_body;
    req.EncodeTo(&req_body);
    const uint64_t body_bytes = req_body.size();
    // The callback captures only the shared stream block (+ the work it
    // would have to requeue): the transport may run it after this
    // NodeServer is gone.
    Status submitted = transport_->CallAsync(
        successor, MessageType::kReplicateState, std::move(req_body),
        [repl, requeue, op, shipped, dropped, body_bytes](Status st,
                                                          std::string reply) {
          std::vector<uint32_t> rejected;
          if (st.ok()) {
            auto decoded = ReplicateStateReply::Decode(reply);
            if (decoded.ok()) {
              rejected = std::move(decoded->rejected_vnodes);
            } else {
              st = decoded.status();
            }
          }
          {
            std::lock_guard<std::mutex> lock(repl->mu);
            --repl->inflight;
            if (st.ok()) {
              ++repl->shipped;
              repl->bytes_shipped += body_bytes;
              repl->error = Status::OK();
              // The successor kept an older copy of these: ship them whole.
              requeue(op, rejected, {});
            } else {
              // Applied or not, the outcome is unknown: every vnode of the
              // element re-ships whole, and a waiting barrier fails fast
              // on the sticky error.
              repl->error = st;
              requeue(op, shipped, dropped);
            }
          }
          repl->work_cv.notify_all();
          repl->barrier_cv.notify_all();
        });
    if (!submitted.ok()) {
      // Never handed to the transport — the callback will not run.
      {
        std::lock_guard<std::mutex> lock(repl->mu);
        --repl->inflight;
        repl->error = submitted;
        requeue(op, shipped, dropped);
      }
      repl->work_cv.notify_all();
      repl->barrier_cv.notify_all();
    }
  }
}

Status NodeServer::WaitReplicationBarrier() {
  auto repl = repl_;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.barrier_timeout_ms);
  std::unique_lock<std::mutex> lock(repl->mu);
  bool done = repl->barrier_cv.wait_until(lock, deadline, [&] {
    return repl->stop || !repl->error.ok() ||
           (repl->dirty.empty() && repl->dropped.empty() &&
            repl->inflight == 0);
  });
  if (!repl->error.ok()) {
    return Status(repl->error.code(),
                  "replication stream to successor failed: " +
                      repl->error.ToString());
  }
  if (repl->stop) return Status::Aborted("node stopping");
  if (!done) {
    return Status::TimedOut("replication barrier: stream not drained after " +
                            std::to_string(options_.barrier_timeout_ms) +
                            "ms");
  }
  return Status::OK();
}

}  // namespace rhino::net
