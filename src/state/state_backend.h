#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "state/checkpoint.h"

/// \file state_backend.h
/// Mutable keyed operator state (paper §3.4, R3).
///
/// State is partitioned by virtual node so that a handover can extract and
/// ingest exactly the virtual nodes being migrated. Two implementations:
///
///  * `LsmStateBackend`  — real bytes in the embedded LSM store; used by
///    correctness tests, the examples, and small-scale benchmarks.
///  * `ModeledStateBackend` — per-vnode byte accounting without values;
///    used by the TB-scale simulation benches where materializing state
///    is impossible. Produces the same `CheckpointDescriptor`s, so every
///    protocol above this interface is identical code in both modes.

namespace rhino::state {

/// One buffered mutation for StateBackend::ApplyBatch.
struct StateWrite {
  uint32_t vnode = 0;
  bool is_delete = false;
  std::string key;
  std::string value;          // ignored for deletes
  uint64_t nominal_bytes = 0;
};

/// Abstract keyed state store scoped to one operator instance.
class StateBackend {
 public:
  virtual ~StateBackend() = default;

  /// Inserts/overwrites a key in `vnode`. `nominal_bytes` is the modeled
  /// payload size (real backends may additionally store the value bytes).
  virtual Status Put(uint32_t vnode, std::string_view key,
                     std::string_view value, uint64_t nominal_bytes) = 0;

  /// Point lookup; NotFound when absent.
  virtual Status Get(uint32_t vnode, std::string_view key,
                     std::string* value) = 0;

  virtual Status Delete(uint32_t vnode, std::string_view key,
                        uint64_t nominal_bytes) = 0;

  /// Applies a buffered run of mutations. The default loops Put/Delete;
  /// LSM-backed stores override it to group-commit the run as one WAL
  /// append instead of one per entry. No atomicity beyond what the
  /// backend's override provides is implied — this is a throughput hint.
  virtual Status ApplyBatch(const std::vector<StateWrite>& writes) {
    for (const auto& w : writes) {
      if (w.is_delete) {
        RHINO_RETURN_NOT_OK(Delete(w.vnode, w.key, w.nominal_bytes));
      } else {
        RHINO_RETURN_NOT_OK(Put(w.vnode, w.key, w.value, w.nominal_bytes));
      }
    }
    return Status::OK();
  }

  /// All live key-value pairs of a vnode, in key order. Only meaningful
  /// for real backends (modeled backends return empty).
  virtual Result<std::vector<std::pair<std::string, std::string>>> ScanVnode(
      uint32_t vnode) = 0;

  /// Live pairs of `vnode` whose key starts with `prefix`, in key order.
  virtual Result<std::vector<std::pair<std::string, std::string>>> ScanPrefix(
      uint32_t vnode, std::string_view prefix) = 0;

  /// Per-entry callback for VisitVnode; a non-OK return aborts the visit
  /// and propagates. The views are only valid during the call.
  using EntryVisitor =
      std::function<Status(std::string_view key, std::string_view value)>;

  /// Streams the live entries of `vnode` into `fn` in key order without
  /// materializing the range. The default adapts ScanVnode; real backends
  /// override it to keep resident memory at O(one block).
  virtual Status VisitVnode(uint32_t vnode, const EntryVisitor& fn) {
    RHINO_ASSIGN_OR_RETURN(auto entries, ScanVnode(vnode));
    for (const auto& [key, value] : entries) {
      RHINO_RETURN_NOT_OK(fn(key, value));
    }
    return Status::OK();
  }

  /// Current state footprint in (nominal) bytes.
  virtual uint64_t SizeBytes() const = 0;
  virtual uint64_t VnodeBytes(uint32_t vnode) const = 0;

  /// Takes an incremental checkpoint: flush, persist immutable files, and
  /// describe them. `delta_files` is relative to the previous checkpoint
  /// taken through this backend.
  virtual Result<CheckpointDescriptor> Checkpoint(uint64_t checkpoint_id) = 0;

  /// Serializes the live contents of `vnodes` for a handover transfer.
  /// Real backends emit the actual entries; modeled backends emit a
  /// size-only placeholder. Returns the blob (wire format is backend-
  /// internal; pass to IngestVnodes of a backend of the same kind).
  virtual Result<std::string> ExtractVnodes(
      const std::vector<uint32_t>& vnodes) = 0;

  /// Serializes each of `vnodes` into its own blob (each the same wire
  /// format as ExtractVnodes({v})) keyed by vnode id. The default loops
  /// ExtractVnodes one vnode at a time, which for range-scoped storage is
  /// one seek plus a scan of exactly that vnode's key range.
  virtual Result<std::map<uint32_t, std::string>> ExtractVnodeBlobs(
      const std::vector<uint32_t>& vnodes) {
    std::map<uint32_t, std::string> blobs;
    for (uint32_t v : vnodes) {
      RHINO_ASSIGN_OR_RETURN(auto blob, ExtractVnodes({v}));
      blobs.emplace(v, std::move(blob));
    }
    return blobs;
  }

  /// Ingests a blob produced by ExtractVnodes on the origin instance.
  /// `already_durable` marks bytes that came out of a replicated/persisted
  /// checkpoint: they must not surface in this backend's next incremental
  /// delta (they are on disk already); a live migration tail is not
  /// durable and becomes part of the next delta.
  virtual Status IngestVnodes(std::string_view blob,
                              bool already_durable = false) = 0;

  /// Drops all state of `vnodes` (origin side after a successful handover).
  virtual Status DropVnodes(const std::vector<uint32_t>& vnodes) = 0;

  /// Starts recording, per vnode, every key put or deleted from now on,
  /// for TakeVnodeChanges. Returns false when the backend cannot produce
  /// key deltas (the default): its vnodes then replicate as whole blobs.
  /// Off until called, so instances nobody drains hold nothing.
  virtual bool TrackChanges() { return false; }

  /// Returns and forgets what was recorded for `vnodes` since the last
  /// take: one change log (change_log.h) per requested vnode, holding the
  /// latest put or delete of every changed key in key order (empty when
  /// nothing changed). Ingested and dropped vnodes start over empty.
  virtual Result<std::map<uint32_t, std::string>> TakeVnodeChanges(
      const std::vector<uint32_t>& /*vnodes*/) {
    return Status::NotSupported("backend does not track key changes");
  }
};

}  // namespace rhino::state
