#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "net/transport.h"
#include "net/wire.h"

/// \file tracing.h
/// The benchmark's own spans and the transport decorator of the traced run.
///
/// Spans are recorded around every call the benchmark makes into a layer
/// (generator, coordinator, transport verbs, in-process codec/state/LSM
/// probes). They are kept in memory and written out once, at the end, as
/// Chrome trace JSON together with each layer's self time: a span's
/// duration minus the part of it that its child spans cover.

namespace rbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile `q` in [0, 1] of `v` (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Span recorder. Scopes nest on the coordinating thread; transport
/// completions (other threads) record finished spans with the parent that
/// was open when the call was submitted. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the coordinating thread. `step` groups the spans of one
  /// wave or reconfiguration step.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, std::string name, uint64_t step);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* layer_;
    std::string name_;
    uint64_t step_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    int64_t start_ns_ = 0;
  };

  /// Id of the innermost open scope (0 at top level).
  uint64_t current() const;
  /// Step id of the innermost open scope.
  uint64_t current_step() const;

  /// Records a finished span (any thread).
  void Record(const char* layer, std::string name, uint64_t step,
              uint64_t parent, int64_t start_ns, int64_t end_ns);

  /// Self time in milliseconds per layer.
  std::map<std::string, double> SelfTimeMs() const;

  /// Chrome trace_event JSON with the self-time table under "otherData".
  rhino::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint64_t step;
    const char* layer;
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
  };

  uint64_t Open(uint64_t step);
  void Close();

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  /// Open scopes of the coordinating thread: (span id, step).
  std::vector<std::pair<uint64_t, uint64_t>> stack_;
};

/// What the traced run learns per RPC verb.
struct VerbLedger {
  uint64_t calls = 0;
  uint64_t req_bytes = 0;
  uint64_t reply_bytes = 0;
  std::vector<double> latency_us;
};

/// Per-verb totals across every cluster of a run, plus a sample of real
/// `kProcessBatch` request/reply bodies for the wire-codec probes.
class TransportLedger {
 public:
  void Add(rhino::net::MessageType type, size_t req, size_t reply,
           double latency_us);
  /// Keeps request/reply bodies of successful batch calls while enabled,
  /// up to `limit` pairs.
  void CaptureBatches(bool on, size_t limit);
  bool capturing() const;
  void AddSample(std::string request, std::string reply);

  std::map<rhino::net::MessageType, VerbLedger> verbs() const;
  std::vector<std::pair<std::string, std::string>> samples() const;

 private:
  mutable std::mutex mu_;
  std::map<rhino::net::MessageType, VerbLedger> verbs_;
  bool capture_ = false;
  size_t capture_limit_ = 0;
  std::vector<std::pair<std::string, std::string>> samples_;
};

/// `Transport` decorator: times each call from submit to completion,
/// counts request and reply bytes per verb, and records a transport span.
class TracingTransport : public rhino::net::Transport {
 public:
  TracingTransport(rhino::net::Transport* inner, TransportLedger* ledger,
                   Tracer* tracer)
      : inner_(inner), ledger_(ledger), tracer_(tracer) {}

  rhino::Status Call(const std::string& endpoint,
                     rhino::net::MessageType type, std::string_view body,
                     std::string* reply_body) override;
  rhino::Status CallAsync(const std::string& endpoint,
                          rhino::net::MessageType type, std::string body,
                          AsyncCallback cb) override;
  void Forget(const std::string& endpoint) override { inner_->Forget(endpoint); }

 private:
  rhino::net::Transport* inner_;
  TransportLedger* ledger_;
  Tracer* tracer_;
};

}  // namespace rbench
