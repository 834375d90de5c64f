#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace rbench {

using rhino::Status;
using rhino::StatusCode;
using rhino::net::ClusterDriver;

std::string CheckKeyCounts(ClusterDriver& driver, const char* op,
                           const std::vector<uint64_t>& keys,
                           const std::vector<uint64_t>& expected,
                           OpLedger* ops, std::vector<uint64_t>* observed) {
  observed->assign(keys.size(), 0);
  uint64_t lost = 0, duplicated = 0, errors = 0, wrong_keys = 0;
  std::string first;
  // A signal has killed the nodes: each query would only wait out its
  // retries.
  for (size_t i = 0; i < keys.size() && !Interrupted(); ++i) {
    auto count = driver.QueryCount(op, keys[i]);
    ops->Count(count.ok());
    if (!count.ok()) {
      ++errors;
      continue;
    }
    (*observed)[i] = *count;
    uint64_t want = expected[keys[i]];
    if (*count == want) continue;
    ++wrong_keys;
    if (*count < want) lost += want - *count;
    if (*count > want) duplicated += *count - want;
    if (first.empty()) {
      first = "key " + std::to_string(keys[i]) + " counted " +
              std::to_string(*count) + ", expected " + std::to_string(want);
    }
  }
  if (wrong_keys == 0) return "";
  return std::string(op) + ": " + std::to_string(wrong_keys) + " of " +
         std::to_string(keys.size() - errors) + " keys wrong (" +
         std::to_string(lost) + " records lost, " +
         std::to_string(duplicated) + " duplicated; " + first + ")";
}

std::string CheckStagesAgree(const std::vector<uint64_t>& keys,
                             const std::vector<uint64_t>& counter,
                             const std::vector<uint64_t>& rollup,
                             int64_t expected_difference) {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (static_cast<int64_t>(rollup[i]) - static_cast<int64_t>(counter[i]) !=
        expected_difference) {
      return "rollup of key " + std::to_string(keys[i]) + " is " +
             std::to_string(rollup[i]) + ", counter is " +
             std::to_string(counter[i]);
    }
  }
  return "";
}

std::string CheckStateBytes(ClusterDriver& driver, uint64_t expected,
                            OpLedger* ops) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumNodes; ++i) {
    if (!driver.IsAlive(i)) continue;
    auto stats = driver.NodeStats(i);
    ops->Count(stats.ok());
    if (!stats.ok()) return "node " + std::to_string(i) + " stats: " + stats.status().ToString();
    total += stats->state_bytes;
  }
  if (total == expected) return "";
  return "state_bytes over live nodes is " + std::to_string(total) +
         ", expected " + std::to_string(expected);
}

std::string CheckTotal(const std::string& what, uint64_t observed,
                       uint64_t expected) {
  if (observed == expected) return "";
  return what + " is " + std::to_string(observed) + ", expected " +
         std::to_string(expected);
}

std::string CheckNodeApplied(ClusterDriver& driver, uint64_t expected,
                             OpLedger* ops) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumNodes; ++i) {
    if (!driver.IsAlive(i)) continue;
    auto stats = driver.NodeStats(i);
    ops->Count(stats.ok());
    if (!stats.ok()) return "node " + std::to_string(i) + " stats: " + stats.status().ToString();
    total += stats->applied;
  }
  return CheckTotal("records applied by the nodes", total, expected);
}

std::string CheckOwnership(Cluster& cluster, const char* op, uint32_t origin,
                           uint32_t target, const std::vector<uint32_t>& vnodes,
                           const std::vector<std::vector<uint64_t>>& keys_by_vnode,
                           OpLedger* ops) {
  auto routed = cluster.driver().VnodesOwnedBy(op, target);
  std::set<uint32_t> routed_set(routed.begin(), routed.end());
  for (uint32_t vnode : vnodes) {
    if (!routed_set.count(vnode)) {
      return "coordinator does not route vnode " + std::to_string(vnode) +
             " to node " + std::to_string(target);
    }
    if (keys_by_vnode[vnode].empty()) continue;
    rhino::net::QueryCountRequest req;
    req.op = op;
    req.key = keys_by_vnode[vnode].front();
    std::string body;
    req.EncodeTo(&body);
    std::string reply;
    Status at_target = cluster.transport()->Call(
        cluster.endpoint(target), rhino::net::MessageType::kQueryCount, body,
        &reply);
    ops->Count(at_target.ok());
    if (!at_target.ok()) {
      return "node " + std::to_string(target) + " does not serve vnode " +
             std::to_string(vnode) + ": " + at_target.ToString();
    }
    Status at_origin = cluster.transport()->Call(
        cluster.endpoint(origin), rhino::net::MessageType::kQueryCount, body,
        &reply);
    // A refusal is the expected answer; only a transport error fails.
    bool refused = at_origin.code() == StatusCode::kFailedPrecondition;
    ops->Count(at_origin.ok() || refused);
    if (!refused) {
      return "node " + std::to_string(origin) + " still serves vnode " +
             std::to_string(vnode) + " (" + at_origin.ToString() + ")";
    }
  }
  return "";
}

std::vector<std::vector<uint64_t>> KeysByVnode(uint64_t keys) {
  std::vector<std::vector<uint64_t>> out(kNumVnodes);
  for (uint64_t k = 0; k < keys; ++k) {
    out[rhino::net::VnodeForKey(k, kNumVnodes)].push_back(k);
  }
  return out;
}

std::vector<uint64_t> SampleEveryVnode(
    const std::vector<std::vector<uint64_t>>& keys_by_vnode, size_t per_vnode,
    uint64_t seed) {
  std::vector<uint64_t> sample;
  uint64_t state = seed * 0x2545F4914F6CDD1Dull + 7;
  for (const auto& keys : keys_by_vnode) {
    if (keys.empty()) continue;
    for (size_t i = 0; i < per_vnode; ++i) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      sample.push_back(keys[state % keys.size()]);
    }
  }
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  return sample;
}

// ------------------------------------------------------------ self-test --

namespace {

struct SelfTest {
  int failures = 0;
  /// `right` must be empty (pass) and `wrong` non-empty (fail).
  void Expect(const char* check, const std::string& right,
              const std::string& wrong) {
    bool ok = right.empty() && !wrong.empty();
    std::fprintf(stderr, "self-test %-34s %s", check, ok ? "ok" : "BROKEN");
    if (!right.empty()) std::fprintf(stderr, " (true expectation failed: %s)", right.c_str());
    if (wrong.empty()) std::fprintf(stderr, " (wrong expectation passed)");
    std::fprintf(stderr, "\n");
    if (!ok) ++failures;
  }
};

}  // namespace

int RunSelfTest(const std::string& root) {
  WorkloadConfig cfg{"self-test", 2048, /*two_stage=*/true, /*churn=*/false};
  Generator gen(cfg.keys, 1);
  OpLedger ops;
  SelfTest t;
  const uint64_t state_bytes = kStateBytesPerKey * cfg.keys * cfg.stages();
  auto keys_by_vnode = KeysByVnode(cfg.keys);
  std::vector<uint64_t> all_keys(cfg.keys);
  for (uint64_t k = 0; k < cfg.keys; ++k) all_keys[k] = k;
  {
    Cluster cluster(root + "/self-test", cfg, nullptr, nullptr);
    Status st = cluster.Start();
    uint64_t applied = 0;
    if (st.ok()) st = cluster.Preload(&gen, &applied);
    for (int w = 0; w < 3 && st.ok(); ++w) {
      cluster.partition().Append(gen.Wave());
      auto pumped = cluster.driver().Pump();
      st = pumped.status();
      if (st.ok()) applied += pumped->applied;
    }
    std::vector<uint32_t> moved = cluster.driver().VnodesOwnedBy(kCounterOp, 0);
    moved.resize(moved.size() / 4);
    if (st.ok()) st = cluster.driver().TriggerHandover(kCounterOp, 0, 1, moved);
    if (!st.ok()) {
      std::fprintf(stderr, "self-test: cluster failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::vector<uint64_t> wrong_tally = gen.tally();
    wrong_tally[all_keys[cfg.keys / 2]] += 1;
    std::vector<uint64_t> counter, rollup, scratch;
    t.Expect("key counts (counter)",
             CheckKeyCounts(cluster.driver(), kCounterOp, all_keys, gen.tally(), &ops, &counter),
             CheckKeyCounts(cluster.driver(), kCounterOp, all_keys, wrong_tally, &ops, &scratch));
    t.Expect("key counts (rollup)",
             CheckKeyCounts(cluster.driver(), kRollupOp, all_keys, gen.tally(), &ops, &rollup),
             CheckKeyCounts(cluster.driver(), kRollupOp, all_keys, wrong_tally, &ops, &scratch));
    t.Expect("rollup equals counter", CheckStagesAgree(all_keys, counter, rollup, 0),
             CheckStagesAgree(all_keys, counter, rollup, 1));
    t.Expect("state bytes", CheckStateBytes(cluster.driver(), state_bytes, &ops),
             CheckStateBytes(cluster.driver(), state_bytes + kStateBytesPerKey, &ops));
    t.Expect("coordinator applied total",
             CheckTotal("applied", applied, gen.generated() * cfg.stages()),
             CheckTotal("applied", applied, gen.generated() * cfg.stages() - 1));
    t.Expect("node applied total",
             CheckNodeApplied(cluster.driver(), gen.generated() * cfg.stages(), &ops),
             CheckNodeApplied(cluster.driver(), gen.generated() * cfg.stages() + 1, &ops));
    t.Expect("moved vnodes owned by target",
             CheckOwnership(cluster, kCounterOp, 0, 1, moved, keys_by_vnode, &ops),
             CheckOwnership(cluster, kCounterOp, 1, 0, moved, keys_by_vnode, &ops));

    // Recovery audit: SIGKILL, recover, replay, one more wave.
    cluster.partition().Append(gen.Wave());
    cluster.node(2).Kill();
    auto dead = cluster.driver().ProbeFailures();
    st = dead == std::vector<uint32_t>{2} ? Status::OK()
                                          : Status::Aborted("probe missed the kill");
    if (st.ok()) st = cluster.driver().RecoverNode(2);
    for (int p = 0; p < 2 && st.ok(); ++p) {
      if (p == 1) cluster.partition().Append(gen.Wave());
      st = cluster.driver().Pump().status();
    }
    if (!st.ok()) {
      std::fprintf(stderr, "self-test: recovery failed: %s\n", st.ToString().c_str());
      return 1;
    }
    wrong_tally = gen.tally();
    wrong_tally[all_keys[7]] -= 1;  // as if the replay had duplicated a record
    t.Expect("recovery audit",
             CheckKeyCounts(cluster.driver(), kRollupOp, all_keys, gen.tally(), &ops, &scratch),
             CheckKeyCounts(cluster.driver(), kRollupOp, all_keys, wrong_tally, &ops, &scratch));
    t.Expect("state bytes after recovery",
             CheckStateBytes(cluster.driver(), state_bytes, &ops),
             CheckStateBytes(cluster.driver(), state_bytes - kStateBytesPerKey, &ops));
  }
  std::fprintf(stderr, "self-test: %d check(s) broken, %llu operations, %llu failed\n",
               t.failures, static_cast<unsigned long long>(ops.attempted),
               static_cast<unsigned long long>(ops.failed));
  return t.failures == 0 && ops.failed == 0 ? 0 : 1;
}

}  // namespace rbench
