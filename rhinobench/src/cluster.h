#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/status.h"
#include "net/driver.h"
#include "net/transport.h"
#include "tracing.h"

/// \file cluster.h
/// Real `rhino_node` processes, the coordinator wired to them, and the
/// seeded record generator.

namespace rbench {

constexpr uint32_t kNumNodes = 3;
constexpr uint32_t kNumVnodes = 64;
constexpr uint32_t kCreditWindow = 16;
constexpr uint64_t kWaveRecords = 4096;
/// Nominal state bytes of one distinct key in a keyed counter.
constexpr uint64_t kStateBytesPerKey = 16;
extern const char* const kCounterOp;
extern const char* const kRollupOp;

/// Installs SIGINT/SIGTERM/SIGHUP handlers that SIGKILL every live node
/// process and make `Interrupted()` true, so the run unwinds through its
/// normal cleanup (reap, remove directories).
void InstallSignalHandlers();
bool Interrupted();

/// One forked + exec'd `rhino_node`. The child dies with the benchmark
/// (PR_SET_PDEATHSIG), and the destructor kills and reaps it.
class NodeProcess {
 public:
  NodeProcess() = default;
  ~NodeProcess() { Kill(); }
  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  /// Starts the node and waits for its `RHINO_NODE_PORT=` announcement.
  rhino::Status Launch(const std::string& data_dir, const std::string& ckpt_dir,
                       const std::string& log_path);
  /// SIGKILL + waitpid. Idempotent.
  void Kill();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  const std::string& data_dir() const { return data_dir_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  int slot_ = -1;
  std::string data_dir_;
};

/// Readings taken from outside a process.
struct ProcSample {
  double cpu_s = 0;  ///< utime + stime
  double hwm_mb = 0; ///< VmHWM
};
ProcSample ReadProc(pid_t pid);
/// Process CPU of this process (getrusage).
double SelfCpuSeconds();
/// CPU time of the calling thread.
double ThreadCpuSeconds();

/// Bytes and file counts of a node's state directory.
struct DirUsage {
  uint64_t total_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t sst_files = 0;
};
DirUsage ReadDirUsage(const std::string& dir);

struct WorkloadConfig {
  std::string name;
  uint64_t keys = 0;
  bool two_stage = false;  ///< counter -> rollup through the edge log
  bool churn = false;      ///< checkpoint + handover inside the timed phase
  uint32_t stages() const { return two_stage ? 2 : 1; }
};

/// The seeded closed-loop source: uniformly drawn keys, with the
/// benchmark's own per-key tally of everything it generated.
class Generator {
 public:
  Generator(uint64_t keys, uint64_t seed);
  /// The preload: every key exactly once, in ascending order, cut into
  /// waves.
  std::vector<rhino::dataflow::Batch> PreloadWaves();
  /// One wave of `kWaveRecords` uniformly drawn keys.
  rhino::dataflow::Batch Wave();

  uint64_t generated() const { return generated_; }
  const std::vector<uint64_t>& tally() const { return tally_; }

 private:
  uint64_t Next();
  rhino::dataflow::Batch MakeBatch(const std::vector<uint64_t>& keys);

  uint64_t keys_;
  uint64_t state_;
  uint64_t waves_ = 0;
  uint64_t generated_ = 0;
  std::vector<uint64_t> tally_;
};

/// Three node processes + one `ClusterDriver` (pipelined pump, credit
/// window 16, continuous replication on) over loopback TCP, wired for the
/// workload's query.
class Cluster {
 public:
  /// `ledger`/`tracer` non-null: calls go through a `TracingTransport`.
  Cluster(std::string root, const WorkloadConfig& config,
          TransportLedger* ledger, Tracer* tracer);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Launches the nodes and wires the query.
  rhino::Status Start();
  /// Appends the generator's preload waves and drains them with one
  /// `Pump()`.
  rhino::Status Preload(Generator* gen, uint64_t* applied);
  /// Polls `NodeStats` until every live node's replication stream is idle.
  rhino::Status WaitReplicationIdle(int timeout_ms);

  rhino::net::ClusterDriver& driver() { return *driver_; }
  rhino::net::Transport* transport() { return transport_; }
  rhino::broker::Partition& partition() { return partition_; }
  NodeProcess& node(uint32_t i) { return *nodes_[i]; }
  const std::string& endpoint(uint32_t i) const { return endpoints_[i]; }

 private:
  std::string root_;
  WorkloadConfig config_;
  std::vector<std::unique_ptr<NodeProcess>> nodes_;
  std::vector<std::string> endpoints_;
  std::unique_ptr<rhino::net::TcpTransport> tcp_;
  std::unique_ptr<TracingTransport> traced_;
  rhino::net::Transport* transport_ = nullptr;
  std::unique_ptr<rhino::net::ClusterDriver> driver_;
  rhino::broker::Partition partition_{0};
};

}  // namespace rbench
