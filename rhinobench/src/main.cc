// rhino_bench: one wall-clock benchmark of the multi-process Rhino cluster.
//
// Three real `rhino_node` processes and one coordinator (`ClusterDriver`,
// pipelined pump, credit window 16, continuous replication on, 64 vnodes)
// over loopback TCP. Phases: set-up (launch, wire, preload every key once,
// wait for an idle replication stream); timed closed-loop ingest of seeded
// 4,096-record waves, in slices; after each slice, checkpoints and
// handovers at rest and recovery samples on fresh clusters (SIGKILL one
// node); and checks of every output against the benchmark's own tallies.
//
//   rhino_bench --workload hot|big|churn --seed N --seconds S --trace 0|1
//   rhino_bench --self-test
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Everything it writes stays under the working directory:
// scratch state in .bench_tmp/ (removed on exit), traces in .bench_out/.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "cluster.h"
#include "layers.h"
#include "tracing.h"

namespace rbench {
namespace {

using rhino::Status;
using rhino::net::MessageType;

/// Slices of the timed phase. After each: rest checkpoints and handovers
/// (hot, big) and recovery samples.
constexpr int kSlices = 8;
constexpr int kRestCheckpointsPerSlice = 4;
/// One handover from each node: ownership is back where it started.
constexpr int kRestHandoversPerSlice = 3;
constexpr int kRecoverySamplesPerSlice = 2;
/// Vnodes per handover: a quarter of one node's initial 21-22 vnodes.
constexpr uint32_t kHandoverVnodes = kNumVnodes / kNumNodes / 4;
/// churn: one checkpoint and one handover every this many waves.
constexpr int kChurnEvery = 10;
/// Waves pumped on a recovery cluster before the kill.
constexpr int kRecoveryWarmWaves = 3;
/// Keys sampled per vnode by the big/churn count checks.
constexpr size_t kSamplePerVnode = 16;
constexpr int kDrainTimeoutMs = 60'000;
/// The node SIGKILLed by each recovery sample.
constexpr uint32_t kVictim = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      long s = std::strtol(value.c_str(), &end, 10);
      have_seconds = end != nullptr && *end == '\0' && s > 0 && s <= 600;
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  if (args->self_test) return true;
  return !args->workload.empty() && have_seed && have_seconds && have_trace;
}

bool Configure(const std::string& name, WorkloadConfig* cfg) {
  if (name == "hot") {
    *cfg = WorkloadConfig{name, 16'384, /*two_stage=*/true, /*churn=*/false};
  } else if (name == "big") {
    *cfg = WorkloadConfig{name, 120'000, /*two_stage=*/false, /*churn=*/false};
  } else if (name == "churn") {
    *cfg = WorkloadConfig{name, 120'000, /*two_stage=*/false, /*churn=*/true};
  } else {
    return false;
  }
  return true;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Scratch directory of one run under ./.bench_tmp, removed on every exit
/// path that unwinds.
class RunDir {
 public:
  RunDir() {
    ::mkdir(".bench_tmp", 0755);
    char tmpl[] = ".bench_tmp/run-XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) {
      path_ = std::filesystem::absolute(tmpl).string();
    }
  }
  ~RunDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    ::rmdir(".bench_tmp");  // only when no other run is using it
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Metric {
  double value;
  const char* unit;
};

/// What one run measures and checks.
class Run {
 public:
  Run(const Args& args, const WorkloadConfig& cfg, Clock::time_point start)
      : args_(args),
        cfg_(cfg),
        start_(start),
        tracer_(args.trace),
        ledger_ptr_(args.trace ? &ledger_ : nullptr),
        keys_by_vnode_(KeysByVnode(cfg.keys)) {}

  /// Returns false when the run could not produce a result at all (the
  /// cluster never came up, or a signal stopped it); failures in between
  /// are counted.
  bool Execute(const std::string& root);
  void PrintResult() const;

 private:
  void Fail(const std::string& what) {
    if (what.empty()) return;
    check_failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void FailOn(const Status& st) {
    if (!st.ok()) Fail(st.ToString());
  }
  uint64_t ExpectedStateBytes() const {
    return kStateBytesPerKey * cfg_.keys * cfg_.stages();
  }
  /// One wave: generate, append, pump, check the applied count. A failed
  /// pump is counted, and the next one replays it. Only `timed` waves feed
  /// the wave and layer statistics.
  void Wave(Cluster& cluster, Generator& gen, uint64_t* applied_total,
            bool timed);
  /// One checkpoint; returns its wall time in ms (negative on failure).
  double CheckpointStep(Cluster& cluster);
  /// Hands `kHandoverVnodes` of `origin`'s counter vnodes to its ring
  /// successor, then checks state bytes and ownership. Returns the wall time of
  /// `TriggerHandover` in ms (negative on failure).
  double HandoverStep(Cluster& cluster, uint32_t origin);
  /// One slice of the timed phase: closed-loop waves for `seconds` (on
  /// churn with a checkpoint and a handover every `kChurnEvery` waves).
  void TimedSlice(Cluster& cluster, Generator& gen, uint64_t* applied_total,
                  double seconds);
  void AuditCounts(Cluster& cluster, const Generator& gen,
                   const std::vector<uint64_t>& keys);
  void RecoverySample(const std::string& root, int sample);
  void LayerProbes(const std::string& root);

  const Args args_;
  const WorkloadConfig cfg_;
  const Clock::time_point start_;
  Tracer tracer_;
  TransportLedger ledger_;
  TransportLedger* ledger_ptr_;
  const std::vector<std::vector<uint64_t>> keys_by_vnode_;

  OpLedger ops_;
  std::vector<std::string> check_failures_;
  uint64_t step_ = 0;

  // End-to-end inputs.
  double setup_s_ = 0;
  double timed_s_ = 0;
  uint64_t timed_records_ = 0;
  std::vector<double> wave_ms_;
  /// Per slice: source records per second, and the 50th and 90th wave
  /// percentiles. The end-to-end rate and wave times are their medians.
  std::vector<double> slice_rate_, slice_p50_, slice_p90_;
  std::vector<double> checkpoint_ms_;
  std::vector<double> handover_ms_;
  std::vector<double> recovery_ms_;
  /// Per recovery sample: VmHWM summed over its nodes just before the kill.
  std::vector<double> memory_mb_;

  // Per-layer inputs.
  std::vector<uint32_t> last_moved_;
  rhino::net::PumpStats timed_pump_;
  uint64_t timed_waves_ = 0;
  double gen_cpu_s_ = 0;
  double gen_wall_us_ = 0;
  double driver_cpu_s_ = 0;
  std::vector<double> node_cpu_s_ = std::vector<double>(kNumNodes, 0);
  uint32_t next_origin_ = 0;
  double wal_bytes_ = 0;
  double repl_deltas_ = 0;
  std::atomic<double> repl_lag_max_{0};
  std::vector<double> drain_ms_;
  std::vector<double> ckpt_bytes_;
  DirUsage disk_;
  double node_hwm_max_ = 0;
  std::vector<double> detect_ms_, restore_ms_, replay_ms_, replayed_;
  std::vector<rhino::dataflow::Batch> probe_waves_;
  LayerMetrics probes_;
};

void Run::Wave(Cluster& cluster, Generator& gen, uint64_t* applied_total,
               bool timed) {
  double cpu0 = ThreadCpuSeconds();
  int64_t g0 = NowNs();
  rhino::dataflow::Batch wave;
  {
    Tracer::Scope span(&tracer_, "gen", "wave_build", step_);
    wave = gen.Wave();
  }
  if (timed) {
    gen_wall_us_ += static_cast<double>(NowNs() - g0) / 1e3;
    gen_cpu_s_ += ThreadCpuSeconds() - cpu0;
    if (args_.trace && probe_waves_.size() < 64) probe_waves_.push_back(wave);
  }
  cluster.partition().Append(std::move(wave));
  // Waves a failed pump left behind are replayed by this one.
  const uint64_t waves_due =
      cluster.partition().end_offset() - cluster.driver().cursor(0);
  auto t0 = Clock::now();
  rhino::Result<rhino::net::PumpStats> pumped = [&] {
    Tracer::Scope span(&tracer_, "driver", "pump", step_);
    return cluster.driver().Pump();
  }();
  if (timed) wave_ms_.push_back(MsBetween(t0, Clock::now()));
  ops_.Count(pumped.ok());
  if (!pumped.ok()) {
    std::fprintf(stderr, "wave failed: %s\n", pumped.status().ToString().c_str());
    return;
  }
  *applied_total += pumped->applied;
  Fail(CheckTotal("records applied by one pump", pumped->applied,
                  waves_due * kWaveRecords * cfg_.stages()));
  Fail(CheckTotal("records deduplicated by one wave", pumped->deduped, 0));
  if (!timed) return;
  timed_pump_.batches_sent += pumped->batches_sent;
  timed_pump_.records_sent += pumped->records_sent;
  timed_pump_.credit_stalls += pumped->credit_stalls;
  timed_pump_.max_inflight =
      std::max(timed_pump_.max_inflight, pumped->max_inflight);
}

double Run::CheckpointStep(Cluster& cluster) {
  Tracer::Scope span(&tracer_, "driver", "checkpoint", ++step_);
  auto t0 = Clock::now();
  auto ckpt = cluster.driver().Checkpoint();
  double ms = MsBetween(t0, Clock::now());
  ops_.Count(ckpt.ok());
  if (!ckpt.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", ckpt.status().ToString().c_str());
    return -1;
  }
  Fail(CheckTotal("nodes acknowledging a checkpoint", ckpt->nodes, kNumNodes));
  ckpt_bytes_.push_back(static_cast<double>(ckpt->bytes));
  return ms;
}

double Run::HandoverStep(Cluster& cluster, uint32_t origin) {
  const uint32_t target = (origin + 1) % kNumNodes;
  std::vector<uint32_t> moved = cluster.driver().VnodesOwnedBy(kCounterOp, origin);
  moved.resize(std::min<size_t>(kHandoverVnodes, moved.size()));
  double ms;
  {
    Tracer::Scope span(&tracer_, "driver", "handover", ++step_);
    auto t0 = Clock::now();
    Status st = cluster.driver().TriggerHandover(kCounterOp, origin, target, moved);
    ms = MsBetween(t0, Clock::now());
    ops_.Count(st.ok());
    if (!st.ok()) {
      std::fprintf(stderr, "handover failed: %s\n", st.ToString().c_str());
      return -1;
    }
  }
  last_moved_ = moved;
  Fail(CheckStateBytes(cluster.driver(), ExpectedStateBytes(), &ops_));
  Fail(CheckOwnership(cluster, kCounterOp, origin, target, moved,
                      keys_by_vnode_, &ops_));
  return ms;
}

void Run::TimedSlice(Cluster& cluster, Generator& gen, uint64_t* applied_total,
                     double seconds) {
  std::vector<ProcSample> node0(kNumNodes);
  uint64_t seq0 = 0, wal0 = 0;
  for (uint32_t i = 0; i < kNumNodes; ++i) {
    node0[i] = ReadProc(cluster.node(i).pid());
    auto stats = cluster.driver().NodeStats(i);
    if (stats.ok()) seq0 += stats->repl_stream_seq;
    wal0 += ReadDirUsage(cluster.node(i).data_dir()).wal_bytes;
  }
  const double self_cpu0 = SelfCpuSeconds();
  const double gen_cpu0 = gen_cpu_s_;
  // Traced run: a sampler thread polls replication lag (vnode deltas
  // dirty or in flight) over its own connections, off the record path.
  std::atomic<bool> stop_sampler{false};
  double sampler_cpu_s = 0;  // the sampler's own CPU, not the coordinator's
  std::thread sampler;
  if (args_.trace) {
    ledger_.CaptureBatches(true, 256);
    sampler = std::thread([&] {
      rhino::net::TcpTransport transport;
      while (!stop_sampler) {
        for (uint32_t i = 0; i < kNumNodes; ++i) {
          std::string reply;
          if (!transport.Call(cluster.endpoint(i), MessageType::kStats, {}, &reply).ok()) {
            continue;
          }
          auto stats = rhino::net::StatsReply::Decode(reply);
          if (stats.ok()) {
            double lag = static_cast<double>(stats->repl_dirty + stats->repl_inflight);
            double seen = repl_lag_max_.load();
            while (lag > seen && !repl_lag_max_.compare_exchange_weak(seen, lag)) {
            }
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      sampler_cpu_s = ThreadCpuSeconds();
    });
  }

  // Time spent on checks inside the slice (churn's per-handover state and
  // ownership checks) is not the system's and is left out.
  double excluded_ms = 0;
  const uint64_t gen0 = gen.generated();
  const size_t waves0 = wave_ms_.size();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  while (Clock::now() + std::chrono::duration<double, std::milli>(excluded_ms) < deadline &&
         !Interrupted()) {
    if (cfg_.churn && timed_waves_ > 0 && timed_waves_ % kChurnEvery == 0) {
      double c = CheckpointStep(cluster);
      if (c >= 0) checkpoint_ms_.push_back(c);
      auto h0 = Clock::now();
      double h = HandoverStep(cluster, next_origin_);
      if (h >= 0) {
        handover_ms_.push_back(h);
        excluded_ms += MsBetween(h0, Clock::now()) - h;
      }
      next_origin_ = (next_origin_ + 1) % kNumNodes;
    }
    ++step_;
    Wave(cluster, gen, applied_total, /*timed=*/true);
    ++timed_waves_;
  }
  const double slice_s = MsBetween(t0, Clock::now()) / 1e3 - excluded_ms / 1e3;
  timed_s_ += slice_s;
  timed_records_ += gen.generated() - gen0;
  if (slice_s > 0) {
    slice_rate_.push_back(static_cast<double>(gen.generated() - gen0) / slice_s);
  }
  const std::vector<double> slice_waves(wave_ms_.begin() + static_cast<std::ptrdiff_t>(waves0),
                                        wave_ms_.end());
  if (!slice_waves.empty()) {
    slice_p50_.push_back(Quantile(slice_waves, 0.5));
    slice_p90_.push_back(Quantile(slice_waves, 0.9));
  }
  if (args_.trace) {
    ledger_.CaptureBatches(false, 0);
    stop_sampler = true;
    sampler.join();
  }

  driver_cpu_s_ +=
      SelfCpuSeconds() - self_cpu0 - (gen_cpu_s_ - gen_cpu0) - sampler_cpu_s;
  uint64_t seq1 = 0, wal1 = 0;
  for (uint32_t i = 0; i < kNumNodes; ++i) {
    double cpu = ReadProc(cluster.node(i).pid()).cpu_s - node0[i].cpu_s;
    node_cpu_s_[i] += cpu;
    auto stats = cluster.driver().NodeStats(i);
    if (stats.ok()) seq1 += stats->repl_stream_seq;
    wal1 += ReadDirUsage(cluster.node(i).data_dir()).wal_bytes;
  }
  repl_deltas_ += static_cast<double>(seq1 - seq0);
  wal_bytes_ += static_cast<double>(wal1 - wal0);
}

void Run::AuditCounts(Cluster& cluster, const Generator& gen,
                      const std::vector<uint64_t>& keys) {
  Tracer::Scope span(&tracer_, "driver", "audit", ++step_);
  std::vector<uint64_t> counter, rollup;
  Fail(CheckKeyCounts(cluster.driver(), kCounterOp, keys, gen.tally(), &ops_,
                      &counter));
  if (cfg_.two_stage) {
    Fail(CheckKeyCounts(cluster.driver(), kRollupOp, keys, gen.tally(), &ops_,
                        &rollup));
    Fail(CheckStagesAgree(keys, counter, rollup, 0));
  }
}

void Run::RecoverySample(const std::string& root, int sample) {
  Generator gen(cfg_.keys, args_.seed * 1000 + 101 + static_cast<uint64_t>(sample));
  Cluster cluster(root + "/recovery" + std::to_string(sample), cfg_, ledger_ptr_,
                  &tracer_);
  Status st = cluster.Start();
  uint64_t applied = 0;
  if (st.ok()) st = cluster.Preload(&gen, &applied);
  for (int w = 0; w < kRecoveryWarmWaves && st.ok(); ++w) {
    cluster.partition().Append(gen.Wave());
    auto pumped = cluster.driver().Pump();
    st = pumped.status();
    if (st.ok()) applied += pumped->applied;
  }
  if (st.ok()) st = cluster.WaitReplicationIdle(kDrainTimeoutMs);
  if (!st.ok()) {
    // Could not build the cluster to kill: the recovery is not attempted
    // but counts as failed.
    std::fprintf(stderr, "recovery sample set-up failed: %s\n", st.ToString().c_str());
    ops_.Count(false);
    return;
  }
  // A cluster that has done a fixed amount of work: its memory does not
  // depend on how fast the host ran the timed phase.
  double memory_mb = 0;
  for (uint32_t i = 0; i < kNumNodes; ++i) memory_mb += ReadProc(cluster.node(i).pid()).hwm_mb;
  memory_mb_.push_back(memory_mb);
  // The wave in flight at the crash: appended, never pumped before the
  // kill, so the replay pump carries it.
  cluster.partition().Append(gen.Wave());
  ++step_;
  cluster.node(kVictim).Kill();

  auto t0 = Clock::now();
  std::vector<uint32_t> dead;
  {
    Tracer::Scope span(&tracer_, "driver", "probe_failures", step_);
    dead = cluster.driver().ProbeFailures();
  }
  auto t1 = Clock::now();
  if (dead != std::vector<uint32_t>{kVictim}) {
    Fail("failure probe reported " + std::to_string(dead.size()) +
         " dead node(s) after one SIGKILL");
  }
  {
    Tracer::Scope span(&tracer_, "driver", "recover_node", step_);
    st = cluster.driver().RecoverNode(kVictim);
  }
  auto t2 = Clock::now();
  rhino::Result<rhino::net::PumpStats> replay = st;
  if (st.ok()) {
    Tracer::Scope span(&tracer_, "driver", "replay_pump", step_);
    replay = cluster.driver().Pump();
  }
  auto t3 = Clock::now();
  ops_.Count(replay.ok());
  if (!replay.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n", replay.status().ToString().c_str());
    return;
  }
  recovery_ms_.push_back(MsBetween(t1, t3));
  detect_ms_.push_back(MsBetween(t0, t1));
  restore_ms_.push_back(MsBetween(t1, t2));
  replay_ms_.push_back(MsBetween(t2, t3));
  replayed_.push_back(static_cast<double>(replay->applied));

  if (Interrupted()) return;
  ++step_;
  Wave(cluster, gen, &applied, /*timed=*/false);
  Fail(CheckStateBytes(cluster.driver(), ExpectedStateBytes(), &ops_));
  // A seeded sample of every vnode; on hot also every key the dead node
  // owned, which is where a lost or doubled replay would show.
  std::vector<uint64_t> keys = SampleEveryVnode(
      keys_by_vnode_, kSamplePerVnode, args_.seed * 31 + static_cast<uint64_t>(sample));
  if (cfg_.two_stage) {
    for (uint32_t v = kVictim; v < kNumVnodes; v += kNumNodes) {
      keys.insert(keys.end(), keys_by_vnode_[v].begin(), keys_by_vnode_[v].end());
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  AuditCounts(cluster, gen, keys);
}

void Run::LayerProbes(const std::string& root) {
  auto wire = ProbeWire(ledger_.samples(), &tracer_);
  if (wire.ok()) {
    probes_.insert(wire->begin(), wire->end());
  } else {
    std::fprintf(stderr, "wire probe failed: %s\n", wire.status().ToString().c_str());
  }
  auto state = ProbeState(root + "/probe", cfg_.keys, probe_waves_, &tracer_);
  if (state.ok()) {
    probes_.insert(state->begin(), state->end());
  } else {
    std::fprintf(stderr, "state probe failed: %s\n", state.status().ToString().c_str());
  }
}

bool Run::Execute(const std::string& root) {
  Generator gen(cfg_.keys, args_.seed);
  uint64_t applied_total = 0;
  {
    Cluster cluster(root + "/main", cfg_, ledger_ptr_, &tracer_);
    Status st;
    {
      Tracer::Scope span(&tracer_, "driver", "setup", step_);
      st = cluster.Start();
      if (st.ok()) st = cluster.Preload(&gen, &applied_total);
      if (st.ok()) st = cluster.WaitReplicationIdle(kDrainTimeoutMs);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return false;
    }
    setup_s_ = MsBetween(start_, Clock::now()) / 1e3;
    Fail(CheckStateBytes(cluster.driver(), ExpectedStateBytes(), &ops_));

    // The timed phase is cut into slices. After each, the cluster rests:
    // the stream drains, hot and big take their share of the checkpoints
    // and handovers, and two recovery samples run on fresh clusters. Slow
    // drifts of a shared host then fall on every metric alike instead of
    // on whichever phase they happen to meet.
    const double slice_s = static_cast<double>(args_.seconds) / kSlices;
    for (int slice = 0; slice < kSlices && !Interrupted(); ++slice) {
      TimedSlice(cluster, gen, &applied_total, slice_s);
      if (Interrupted()) break;
      auto d0 = Clock::now();
      Status drained = cluster.WaitReplicationIdle(kDrainTimeoutMs);
      drain_ms_.push_back(MsBetween(d0, Clock::now()));
      FailOn(drained);
      if (!cfg_.churn) {
        // At rest means an idle stream: each step starts from a drained
        // replicator, as the first one after the slice does.
        for (int i = 0; i < kRestCheckpointsPerSlice; ++i) {
          FailOn(cluster.WaitReplicationIdle(kDrainTimeoutMs));
          double ms = CheckpointStep(cluster);
          if (ms >= 0) checkpoint_ms_.push_back(ms);
        }
        for (uint32_t origin = 0; origin < kRestHandoversPerSlice; ++origin) {
          FailOn(cluster.WaitReplicationIdle(kDrainTimeoutMs));
          double ms = HandoverStep(cluster, origin);
          if (ms >= 0) handover_ms_.push_back(ms);
        }
        FailOn(cluster.WaitReplicationIdle(kDrainTimeoutMs));
      }
      for (int r = 0; r < kRecoverySamplesPerSlice && !Interrupted(); ++r) {
        RecoverySample(root, slice * kRecoverySamplesPerSlice + r);
      }
    }

    // The nodes are gone: no result, and no checks against dead nodes.
    if (Interrupted()) return false;

    // Checks of the main cluster.
    std::vector<uint64_t> keys;
    if (cfg_.two_stage) {
      for (uint64_t k = 0; k < cfg_.keys; ++k) keys.push_back(k);
    } else {
      keys = SampleEveryVnode(keys_by_vnode_, kSamplePerVnode, args_.seed);
      for (uint32_t v : last_moved_) {
        keys.insert(keys.end(), keys_by_vnode_[v].begin(), keys_by_vnode_[v].end());
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    AuditCounts(cluster, gen, keys);
    Fail(CheckStateBytes(cluster.driver(), ExpectedStateBytes(), &ops_));
    Fail(CheckTotal("records applied by the coordinator", applied_total,
                    gen.generated() * cfg_.stages()));
    Fail(CheckNodeApplied(cluster.driver(), gen.generated() * cfg_.stages(), &ops_));

    for (uint32_t i = 0; i < kNumNodes; ++i) {
      ProcSample p = ReadProc(cluster.node(i).pid());
      node_hwm_max_ = std::max(node_hwm_max_, p.hwm_mb);
      DirUsage d = ReadDirUsage(cluster.node(i).data_dir());
      disk_.total_bytes += d.total_bytes;
      disk_.sst_files += d.sst_files;
    }
  }

  if (args_.trace) {
    LayerProbes(root);
    ::mkdir(".bench_out", 0755);
    std::string path = ".bench_out/trace-" + cfg_.name + "-seed" +
                       std::to_string(args_.seed) + ".json";
    Status written = tracer_.WriteChromeTrace(path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    } else {
      std::fprintf(stderr, "trace written to %s; self time per layer:\n", path.c_str());
      for (const auto& [layer, ms] : tracer_.SelfTimeMs()) {
        std::fprintf(stderr, "  %-16s %12.3f ms\n", layer.c_str(), ms);
      }
    }
  }
  return true;
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

void Run::PrintResult() const {
  std::map<std::string, Metric> m;
  const double waves = std::max<double>(1, static_cast<double>(timed_waves_));
  const double records = std::max<double>(1, static_cast<double>(timed_records_));
  const double tput = Median(slice_rate_);
  if (!args_.trace) {
    m["setup_s"] = {setup_s_, "s"};
    m["records_per_s"] = {tput, "records/s"};
    m["wave_ms_p50"] = {Median(slice_p50_), "ms"};
    m["wave_ms_p90"] = {Median(slice_p90_), "ms"};
    m["checkpoint_ms"] = {Median(checkpoint_ms_), "ms"};
    m["handover_ms"] = {Median(handover_ms_), "ms"};
    m["recovery_ms"] = {Median(recovery_ms_), "ms"};
    m["memory_mb"] = {Median(memory_mb_), "MB"};
  } else {
    m["trace.records_per_s"] = {tput, "records/s"};
    m["gen.wave_build_us"] = {gen_wall_us_ / waves, "us"};
    m["driver.cpu_us_per_record"] = {driver_cpu_s_ * 1e6 / records, "us"};
    m["driver.sub_batches_per_wave"] = {static_cast<double>(timed_pump_.batches_sent) / waves, "count"};
    m["driver.records_sent_per_record"] = {static_cast<double>(timed_pump_.records_sent) / records, "ratio"};
    m["driver.credit_stalls_per_wave"] = {static_cast<double>(timed_pump_.credit_stalls) / waves, "count"};
    m["driver.max_inflight"] = {static_cast<double>(timed_pump_.max_inflight), "count"};
    m["driver.rss_mb"] = {ReadProc(::getpid()).hwm_mb, "MB"};
    static const std::pair<MessageType, const char*> kVerbs[] = {
        {MessageType::kProcessBatch, "process_batch"},
        {MessageType::kCheckpoint, "checkpoint"},
        {MessageType::kExtractVnodes, "extract_vnodes"},
        {MessageType::kIngestVnodes, "ingest_vnodes"},
        {MessageType::kDropVnodes, "drop_vnodes"},
        {MessageType::kPromoteReplica, "promote_replica"},
    };
    auto verbs = ledger_.verbs();
    for (const auto& [type, name] : kVerbs) {
      const VerbLedger& v = verbs[type];
      double calls = std::max<double>(1, static_cast<double>(v.calls));
      std::string p = std::string("transport.") + name;
      m[p + ".calls"] = {static_cast<double>(v.calls), "count"};
      m[p + ".req_bytes"] = {static_cast<double>(v.req_bytes) / calls, "bytes"};
      m[p + ".reply_bytes"] = {static_cast<double>(v.reply_bytes) / calls, "bytes"};
      m[p + ".latency_us_p50"] = {Quantile(v.latency_us, 0.5), "us"};
      m[p + ".latency_us_p99"] = {Quantile(v.latency_us, 0.99), "us"};
    }
    for (const char* k : {"wire.batch_encode_ns_per_record",
                          "wire.batch_decode_ns_per_record",
                          "wire.reply_decode_ns_per_record"}) {
      auto it = probes_.find(k);
      m[k] = {it == probes_.end() ? 0 : it->second, "ns"};
    }
    const double state_bytes = static_cast<double>(ExpectedStateBytes());
    double node_cpu = 0, busiest = 0;
    for (double cpu : node_cpu_s_) {
      node_cpu += cpu;
      busiest = std::max(busiest, cpu);
    }
    m["node.cpu_us_per_record"] = {node_cpu * 1e6 / records, "us"};
    m["node.busiest_cpu_share"] = {timed_s_ > 0 ? busiest / timed_s_ : 0, "cores"};
    m["node.wal_bytes_per_record"] = {wal_bytes_ / records, "bytes"};
    m["node.sst_files"] = {static_cast<double>(disk_.sst_files), "count"};
    m["node.disk_bytes_per_state_byte"] = {static_cast<double>(disk_.total_bytes) / state_bytes, "ratio"};
    m["node.rss_mb_peak"] = {node_hwm_max_, "MB"};
    m["ckpt.image_bytes"] = {Median(ckpt_bytes_), "bytes"};
    m["repl.deltas_per_wave"] = {repl_deltas_ / waves, "count"};
    m["repl.lag_deltas_max"] = {repl_lag_max_.load(), "count"};
    m["repl.drain_ms"] = {Median(drain_ms_), "ms"};
    for (const auto& [k, unit] : std::vector<std::pair<const char*, const char*>>{
             {"operator_host.apply_ns_per_record", "ns"},
             {"state.snapshot_ms", "ms"},
             {"state.extract_ms", "ms"},
             {"state.ingest_ms", "ms"},
             {"state.drop_ms", "ms"},
             {"state.blob_bytes_per_state_byte", "ratio"},
             {"lsm.put_ns", "ns"},
             {"lsm.get_ns", "ns"}}) {
      auto it = probes_.find(k);
      m[k] = {it == probes_.end() ? 0 : it->second, unit};
    }
    m["recovery.detect_ms"] = {Median(detect_ms_), "ms"};
    m["recovery.restore_ms"] = {Median(restore_ms_), "ms"};
    m["recovery.replay_ms"] = {Median(replay_ms_), "ms"};
    m["recovery.replayed_records"] = {Median(replayed_), "count"};
  }

  // A human-readable summary on stderr, the result line on stdout.
  std::fprintf(stderr, "workload %s seed %llu: %llu waves in %.3f s, %llu checkpoints, "
               "%llu handovers, %llu recoveries\n",
               cfg_.name.c_str(), static_cast<unsigned long long>(args_.seed),
               static_cast<unsigned long long>(timed_waves_), timed_s_,
               static_cast<unsigned long long>(checkpoint_ms_.size()),
               static_cast<unsigned long long>(handover_ms_.size()),
               static_cast<unsigned long long>(recovery_ms_.size()));
  for (const auto& [name, samples] :
       std::vector<std::pair<const char*, const std::vector<double>*>>{
           {"wave_ms", &wave_ms_},
           {"checkpoint_ms", &checkpoint_ms_},
           {"handover_ms", &handover_ms_},
           {"recovery_ms", &recovery_ms_}}) {
    std::fprintf(stderr, "  %-14s n=%-5zu min %.3f p25 %.3f p50 %.3f p75 %.3f max %.3f\n",
                 name, samples->size(), Quantile(*samples, 0), Quantile(*samples, 0.25),
                 Quantile(*samples, 0.5), Quantile(*samples, 0.75), Quantile(*samples, 1));
  }
  std::fprintf(stderr, "  pooled rate %.1f wave p50 %.3f p90 %.3f; slice p50s",
               timed_s_ > 0 ? static_cast<double>(timed_records_) / timed_s_ : 0,
               Quantile(wave_ms_, 0.5), Quantile(wave_ms_, 0.9));
  for (double v : slice_p50_) std::fprintf(stderr, " %.2f", v);
  std::fprintf(stderr, "; slice p90s");
  for (double v : slice_p90_) std::fprintf(stderr, " %.2f", v);
  std::fprintf(stderr, "\n");
  for (const auto& [name, metric] : m) {
    std::fprintf(stderr, "  %-40s %14.4f %s\n", name.c_str(), metric.value, metric.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              check_failures_.empty() ? "true" : "false",
              static_cast<unsigned long long>(ops_.attempted),
              static_cast<unsigned long long>(ops_.failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(metric.value);
    std::printf(", \"unit\": \"%s\"}", metric.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace rbench

int main(int argc, char** argv) {
  using namespace rbench;
  const auto start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rhino_bench --workload hot|big|churn --seed N "
                 "--seconds S --trace 0|1\n       rhino_bench --self-test\n");
    return 2;
  }
  InstallSignalHandlers();
  RunDir dir;
  if (dir.path().empty()) {
    std::fprintf(stderr, "cannot create a scratch directory under .bench_tmp\n");
    return 1;
  }
  if (args.self_test) return RunSelfTest(dir.path());

  WorkloadConfig cfg;
  if (!Configure(args.workload, &cfg)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Run run(args, cfg, start);
  if (!run.Execute(dir.path())) return 1;
  if (Interrupted()) return 1;
  run.PrintResult();
  return 0;
}
