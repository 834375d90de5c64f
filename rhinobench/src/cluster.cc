#include "cluster.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

#include "common/units.h"
#include "net/socket.h"

namespace rbench {

using rhino::Status;

const char* const kCounterOp = "counter";
const char* const kRollupOp = "rollup";

namespace {

/// Pids of live node processes, readable from a signal handler.
constexpr int kMaxProcs = 64;
std::atomic<pid_t> g_pids[kMaxProcs];
volatile std::sig_atomic_t g_interrupted = 0;

void OnSignal(int) {
  g_interrupted = 1;
  for (auto& slot : g_pids) {
    pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

int ClaimSlot(pid_t pid) {
  for (int i = 0; i < kMaxProcs; ++i) {
    pid_t expected = 0;
    if (g_pids[i].compare_exchange_strong(expected, pid)) return i;
  }
  return -1;
}

}  // namespace

void InstallSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
  // A node dying mid-write must surface as an RPC error, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
}

bool Interrupted() { return g_interrupted != 0; }

// ------------------------------------------------------------- process --

Status NodeProcess::Launch(const std::string& data_dir,
                           const std::string& ckpt_dir,
                           const std::string& log_path) {
  data_dir_ = data_dir;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return Status::IOError("pipe failed");
  std::string data_flag = "--data-dir=" + data_dir;
  std::string ckpt_flag = "--ckpt-dir=" + ckpt_dir;
  // The child may only make async-signal-safe calls between fork and
  // exec, so its argv and environment are built here. Continuous
  // replication and the pipelined plane are the defaults; they are pinned
  // so an inherited toggle cannot change what is measured.
  std::vector<std::string> env_strings = {"RHINO_NET_PIPELINE=1"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RHINO_", 6) != 0) env_strings.emplace_back(*e);
  }
  std::vector<char*> envp;
  for (auto& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);
  const char* argv[] = {"rhino_node", "--port=0", data_flag.c_str(),
                        ckpt_flag.c_str(), nullptr};
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    // Die with the benchmark, whatever way it exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(126);
    ::dup2(fds[1], STDOUT_FILENO);
    int logfd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (logfd >= 0) ::dup2(logfd, STDERR_FILENO);
    ::execve(RHINO_NODE_BIN, const_cast<char* const*>(argv), envp.data());
    _exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  slot_ = ClaimSlot(pid);
  // Read the port announcement, bounded in time.
  std::string buf;
  unsigned port = 0;
  auto deadline = Clock::now() + std::chrono::seconds(20);
  while (port == 0 && Clock::now() < deadline) {
    pollfd pfd{fds[0], POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char chunk[256];
    ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
    if (n <= 0) break;  // node exited before announcing
    buf.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (std::sscanf(line.c_str(), "RHINO_NODE_PORT=%u", &port) == 1) break;
    }
  }
  ::close(fds[0]);
  if (port == 0 || port > 65535) {
    Kill();
    return Status::IOError("rhino_node never announced a port (see " +
                           log_path + ")");
  }
  port_ = static_cast<uint16_t>(port);
  return Status::OK();
}

void NodeProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
  if (slot_ >= 0) g_pids[slot_].store(0);
  slot_ = -1;
  pid_ = -1;
}

// ------------------------------------------------------------- readers --

ProcSample ReadProc(pid_t pid) {
  ProcSample s;
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", static_cast<int>(pid));
  if (FILE* f = std::fopen(path, "r")) {
    char buf[1024];
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the line.
    const char* p = std::strrchr(buf, ')');
    unsigned long utime = 0, stime = 0;
    if (p != nullptr &&
        std::sscanf(p + 2,
                    "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                    &utime, &stime) == 2) {
      s.cpu_s = static_cast<double>(utime + stime) /
                static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::snprintf(path, sizeof(path), "/proc/%d/status", static_cast<int>(pid));
  if (FILE* f = std::fopen(path, "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long kb = 0;
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
        s.hwm_mb = static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  return s;
}

double SelfCpuSeconds() {
  rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

DirUsage ReadDirUsage(const std::string& dir) {
  DirUsage usage;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return usage;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::string path = dir + "/" + name;
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      DirUsage sub = ReadDirUsage(path);
      usage.total_bytes += sub.total_bytes;
      usage.wal_bytes += sub.wal_bytes;
      usage.sst_files += sub.sst_files;
    } else if (S_ISREG(st.st_mode)) {
      uint64_t size = static_cast<uint64_t>(st.st_size);
      usage.total_bytes += size;
      if (name.rfind("WAL", 0) == 0) usage.wal_bytes += size;
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".sst") == 0) {
        usage.sst_files += 1;
      }
    }
  }
  ::closedir(d);
  return usage;
}

// ----------------------------------------------------------- generator --

Generator::Generator(uint64_t keys, uint64_t seed)
    : keys_(keys), state_(seed * 0x9E3779B97F4A7C15ull + 1), tally_(keys, 0) {}

uint64_t Generator::Next() {
  // splitmix64
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

rhino::dataflow::Batch Generator::MakeBatch(const std::vector<uint64_t>& keys) {
  rhino::dataflow::Batch batch;
  batch.create_time = static_cast<rhino::SimTime>(++waves_);
  batch.records.reserve(keys.size());
  for (uint64_t key : keys) {
    rhino::dataflow::Record rec;
    rec.key = key;
    rec.event_time = batch.create_time;
    rec.size = 32;
    batch.records.push_back(std::move(rec));
    tally_[key] += 1;
  }
  batch.count = keys.size();
  batch.bytes = 32 * keys.size();
  generated_ += keys.size();
  return batch;
}

std::vector<rhino::dataflow::Batch> Generator::PreloadWaves() {
  // Ascending, independent of the seed: the nodes' memtables then start
  // from the same layout in every run.
  std::vector<uint64_t> order(keys_);
  for (uint64_t k = 0; k < keys_; ++k) order[k] = k;
  std::vector<rhino::dataflow::Batch> waves;
  for (uint64_t at = 0; at < keys_; at += kWaveRecords) {
    uint64_t end = std::min(keys_, at + kWaveRecords);
    waves.push_back(MakeBatch(
        std::vector<uint64_t>(order.begin() + static_cast<long>(at),
                              order.begin() + static_cast<long>(end))));
  }
  return waves;
}

rhino::dataflow::Batch Generator::Wave() {
  std::vector<uint64_t> keys(kWaveRecords);
  for (auto& k : keys) k = Next() % keys_;
  return MakeBatch(keys);
}

// ------------------------------------------------------------- cluster --

Cluster::Cluster(std::string root, const WorkloadConfig& config,
                 TransportLedger* ledger, Tracer* tracer)
    : root_(std::move(root)), config_(config) {
  rhino::net::RpcClientOptions options;
  // Fast, jitter-free retries: a SIGKILLed node is declared dead after a
  // fixed backoff series, so detection time is a property of these
  // options, not of chance.
  options.retry.initial_backoff_us = 2 * rhino::kMillisecond;
  options.retry.max_backoff_us = 100 * rhino::kMillisecond;
  options.retry.max_attempts = 5;
  options.retry.jitter = 0;
  tcp_ = std::make_unique<rhino::net::TcpTransport>(options);
  transport_ = tcp_.get();
  if (ledger != nullptr && tracer != nullptr) {
    traced_ = std::make_unique<TracingTransport>(tcp_.get(), ledger, tracer);
    transport_ = traced_.get();
  }
}

Cluster::~Cluster() {
  driver_.reset();
  for (auto& node : nodes_) node->Kill();
}

Status Cluster::Start() {
  if (::mkdir(root_.c_str(), 0755) != 0 ||
      ::mkdir((root_ + "/ckpt").c_str(), 0755) != 0) {
    return Status::IOError("cannot create " + root_);
  }
  for (uint32_t i = 0; i < kNumNodes; ++i) {
    auto node = std::make_unique<NodeProcess>();
    std::string id = std::to_string(i);
    RHINO_RETURN_NOT_OK(node->Launch(root_ + "/n" + id, root_ + "/ckpt",
                                     root_ + "/node" + id + ".log"));
    endpoints_.push_back(rhino::net::FormatEndpoint("127.0.0.1", node->port()));
    nodes_.push_back(std::move(node));
  }
  rhino::net::DriverOptions driver_options;
  driver_options.pipelined = true;
  driver_options.credit_window = kCreditWindow;
  driver_ = std::make_unique<rhino::net::ClusterDriver>(
      transport_, endpoints_, /*obs=*/nullptr, driver_options);
  RHINO_RETURN_NOT_OK(driver_->ConnectAll());
  RHINO_RETURN_NOT_OK(driver_->AddOperator(kCounterOp, kNumVnodes));
  driver_->AddPartition(&partition_);
  RHINO_RETURN_NOT_OK(driver_->ConnectPartition(kCounterOp, 0));
  if (config_.two_stage) {
    RHINO_RETURN_NOT_OK(driver_->AddOperator(kRollupOp, kNumVnodes));
    RHINO_RETURN_NOT_OK(driver_->ConnectOperators(kCounterOp, kRollupOp));
  }
  return Status::OK();
}

Status Cluster::Preload(Generator* gen, uint64_t* applied) {
  for (auto& wave : gen->PreloadWaves()) partition_.Append(std::move(wave));
  RHINO_ASSIGN_OR_RETURN(rhino::net::PumpStats stats, driver_->Pump());
  *applied += stats.applied;
  return Status::OK();
}

Status Cluster::WaitReplicationIdle(int timeout_ms) {
  auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline && !Interrupted()) {
    bool idle = true;
    for (uint32_t i = 0; i < kNumNodes && idle; ++i) {
      if (!driver_->IsAlive(i)) continue;
      RHINO_ASSIGN_OR_RETURN(rhino::net::StatsReply stats,
                             driver_->NodeStats(i));
      idle = stats.repl_dirty == 0 && stats.repl_inflight == 0;
    }
    if (idle) return Status::OK();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return Status::TimedOut("replication stream did not drain in " +
                          std::to_string(timeout_ms) + " ms");
}

}  // namespace rbench
