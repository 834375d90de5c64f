#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

namespace rbench {

using rhino::Status;
using rhino::net::MessageType;

Tracer::Scope::Scope(Tracer* tracer, const char* layer, std::string name,
                     uint64_t step)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      layer_(layer),
      name_(std::move(name)),
      step_(step) {
  if (tracer_ == nullptr) return;
  parent_ = tracer_->current();
  id_ = tracer_->Open(step_);
  start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  int64_t end = NowNs();
  tracer_->Close();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(
      Span{id_, parent_, step_, layer_, std::move(name_), start_ns_, end});
}

uint64_t Tracer::Open(uint64_t step) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  stack_.emplace_back(id, step);
  return id;
}

void Tracer::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!stack_.empty()) stack_.pop_back();
}

uint64_t Tracer::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stack_.empty() ? 0 : stack_.back().first;
}

uint64_t Tracer::current_step() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stack_.empty() ? 0 : stack_.back().second;
}

void Tracer::Record(const char* layer, std::string name, uint64_t step,
                    uint64_t parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{next_id_++, parent, step, layer, std::move(name), start_ns, end_ns});
}

std::map<std::string, double> Tracer::SelfTimeMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to this span: concurrent
      // transport calls under one pump overlap each other.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t run_start = 0, run_end = -1;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

Status Tracer::WriteChromeTrace(const std::string& path) const {
  auto self = SelfTimeMs();
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return Status::IOError("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::fprintf(f.get(), "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans_) {
    // Coordinating-thread spans on tid 1; transport completions (which
    // overlap each other) on tid 2.
    int tid = std::string_view(s.layer) == "transport" ? 2 : 1;
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"step\":%llu}}\n",
                 first ? "" : ",", JsonEscape(s.name).c_str(), s.layer,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.step));
    first = false;
  }
  std::fprintf(f.get(), "],\n\"otherData\":{\"self_time_ms\":{");
  first = true;
  for (const auto& [layer, ms] : self) {
    std::fprintf(f.get(), "%s\"%s\":%.3f", first ? "" : ",", layer.c_str(),
                 ms);
    first = false;
  }
  std::fprintf(f.get(), "}}}\n");
  if (std::ferror(f.get())) return Status::IOError("short write to " + path);
  return Status::OK();
}

// ----------------------------------------------------------- transport --

void TransportLedger::Add(MessageType type, size_t req, size_t reply,
                          double latency_us) {
  std::lock_guard<std::mutex> lock(mu_);
  VerbLedger& v = verbs_[type];
  v.calls += 1;
  v.req_bytes += req;
  v.reply_bytes += reply;
  v.latency_us.push_back(latency_us);
}

void TransportLedger::CaptureBatches(bool on, size_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_ = on;
  capture_limit_ = limit;
}

bool TransportLedger::capturing() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capture_ && samples_.size() < capture_limit_;
}

void TransportLedger::AddSample(std::string request, std::string reply) {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < capture_limit_) {
    samples_.emplace_back(std::move(request), std::move(reply));
  }
}

std::map<MessageType, VerbLedger> TransportLedger::verbs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return verbs_;
}

std::vector<std::pair<std::string, std::string>> TransportLedger::samples()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

Status TracingTransport::Call(const std::string& endpoint, MessageType type,
                              std::string_view body, std::string* reply_body) {
  uint64_t parent = tracer_->current();
  uint64_t step = tracer_->current_step();
  int64_t t0 = NowNs();
  Status st = inner_->Call(endpoint, type, body, reply_body);
  int64_t t1 = NowNs();
  ledger_->Add(type, body.size(),
               st.ok() && reply_body != nullptr ? reply_body->size() : 0,
               static_cast<double>(t1 - t0) / 1e3);
  // Audit queries are the benchmark's checks, not a layer under test; a
  // span each would make up most of the trace file.
  if (type != MessageType::kQueryCount) {
    tracer_->Record("transport", rhino::net::MessageTypeName(type), step,
                    parent, t0, t1);
  }
  return st;
}

Status TracingTransport::CallAsync(const std::string& endpoint,
                                   MessageType type, std::string body,
                                   AsyncCallback cb) {
  uint64_t parent = tracer_->current();
  uint64_t step = tracer_->current_step();
  size_t req_size = body.size();
  std::string sample;
  if (type == MessageType::kProcessBatch && ledger_->capturing()) {
    sample = body;
  }
  int64_t t0 = NowNs();
  TransportLedger* ledger = ledger_;
  Tracer* tracer = tracer_;
  return inner_->CallAsync(
      endpoint, type, std::move(body),
      [=, cb = std::move(cb), sample = std::move(sample)](
          Status st, std::string reply) mutable {
        int64_t t1 = NowNs();
        ledger->Add(type, req_size, st.ok() ? reply.size() : 0,
                    static_cast<double>(t1 - t0) / 1e3);
        tracer->Record("transport", rhino::net::MessageTypeName(type), step,
                       parent, t0, t1);
        if (st.ok() && !sample.empty()) {
          ledger->AddSample(std::move(sample), reply);
        }
        cb(st, std::move(reply));
      });
}

}  // namespace rbench
