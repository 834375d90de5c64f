#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster.h"

/// \file checks.h
/// Correctness checks of the cluster's outputs against the benchmark's own
/// computations. Each returns an empty string when the outputs match the
/// expectation it is given, or a description of the first disagreement.
/// `--self-test` runs each one against a deliberately wrong expectation and
/// requires it to fail.

namespace rbench {

/// Operations attempted and failed (an operation that returned an error).
struct OpLedger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Count(bool ok) {
    attempted += 1;
    if (!ok) failed += 1;
  }
};

/// Queries `op`'s count of every key in `keys` (one audit operation each)
/// and compares it with `expected[key]`; reports records lost and
/// duplicated. Observed counts land in `observed` (parallel to `keys`).
std::string CheckKeyCounts(rhino::net::ClusterDriver& driver, const char* op,
                           const std::vector<uint64_t>& keys,
                           const std::vector<uint64_t>& expected,
                           OpLedger* ops, std::vector<uint64_t>* observed);

/// The rollup's count of each key equals the counter's plus
/// `expected_difference` (0 for a correct pipeline).
std::string CheckStagesAgree(const std::vector<uint64_t>& keys,
                             const std::vector<uint64_t>& counter,
                             const std::vector<uint64_t>& rollup,
                             int64_t expected_difference);

/// The sum of `state_bytes` over the live nodes equals `expected`.
std::string CheckStateBytes(rhino::net::ClusterDriver& driver,
                            uint64_t expected, OpLedger* ops);

/// A total the coordinator reports equals the benchmark's own count.
std::string CheckTotal(const std::string& what, uint64_t observed,
                       uint64_t expected);

/// The sum of the nodes' own `applied` counters equals `expected`.
std::string CheckNodeApplied(rhino::net::ClusterDriver& driver,
                             uint64_t expected, OpLedger* ops);

/// Every vnode of `vnodes` of `op` answers queries on `target` and is
/// refused by `origin` (asked directly, bypassing the coordinator's
/// routing), and the coordinator routes it to `target`.
std::string CheckOwnership(Cluster& cluster, const char* op, uint32_t origin,
                           uint32_t target, const std::vector<uint32_t>& vnodes,
                           const std::vector<std::vector<uint64_t>>& keys_by_vnode,
                           OpLedger* ops);

/// Keys of a `keys`-key space grouped by vnode.
std::vector<std::vector<uint64_t>> KeysByVnode(uint64_t keys);

/// A seeded sample of `per_vnode` keys from every vnode.
std::vector<uint64_t> SampleEveryVnode(
    const std::vector<std::vector<uint64_t>>& keys_by_vnode, size_t per_vnode,
    uint64_t seed);

/// Starts a small cluster and shows that every check passes on the true
/// expectation and fails on a wrong one. Returns the process exit code.
int RunSelfTest(const std::string& root);

}  // namespace rbench
