#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster.h"
#include "common/status.h"
#include "dataflow/record.h"
#include "tracing.h"

/// \file layers.h
/// In-process probes of the layers below the wire, run by the traced run
/// only: the wire codecs on the workload's captured batches, and
/// `OperatorHost`, `LsmStateBackend` and the LSM at the workload's state
/// size on one node's share of the vnodes.

namespace rbench {

using LayerMetrics = std::map<std::string, double>;

/// `wire.*`: encode/decode cost of real `kProcessBatch` request and reply
/// bodies captured by the traced transport.
rhino::Result<LayerMetrics> ProbeWire(
    const std::vector<std::pair<std::string, std::string>>& samples,
    Tracer* tracer);

/// `operator_host.*`, `state.*`, `lsm.*` on a fresh `LsmStateBackend`
/// (PosixEnv, the node's LSM options) under `dir`, holding node 0's
/// initial vnodes of a `keys`-key counter, fed `waves`.
rhino::Result<LayerMetrics> ProbeState(
    const std::string& dir, uint64_t keys,
    const std::vector<rhino::dataflow::Batch>& waves, Tracer* tracer);

}  // namespace rbench
