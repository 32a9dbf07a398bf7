#include "src/obs/trace.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace clara {
namespace obs {

namespace {

std::atomic<TraceSink*> g_sink{nullptr};

void AppendEventJson(std::ostringstream& os, const TraceEvent& e) {
  os << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\"" << JsonEscape(e.cat)
     << "\",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts_us << ",\"pid\":1,\"tid\":" << e.tid;
  if (e.ph == 'X') {
    os << ",\"dur\":" << e.dur_us;
    if (e.trace_id != 0) {
      os << ",\"args\":{\"trace_id\":" << e.trace_id << "}";
    }
  }
  if (e.ph == 'C') {
    os << ",\"args\":{\"value\":" << JsonNumber(e.value) << "}";
  }
  if (e.ph == 'i') {
    os << ",\"s\":\"g\"";
  }
  os << "}";
}

}  // namespace

TraceSink::TraceSink() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceSink::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t TraceSink::CurrentTid() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

void TraceSink::AddComplete(const std::string& name, const std::string& cat, int64_t ts_us,
                            int64_t dur_us) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = CurrentTid();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void TraceSink::AddCompleteForTrace(const std::string& name, const std::string& cat,
                                    int64_t ts_us, int64_t dur_us, uint64_t trace_id) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  // One track per traced request: nesting stays visually intact even though
  // queue wait and dispatch run on different threads.
  e.tid = static_cast<uint32_t>(trace_id % 100000);
  e.trace_id = trace_id;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void TraceSink::AddEvents(std::vector<TraceEvent>&& events) {
  if (events.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  // No reserve(): exact-fit reallocation on every batch would make repeated
  // appends quadratic; insert keeps the usual geometric growth.
  events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
}

void TraceSink::AddSpans(const SpanRecord* spans, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n > kMaxSpans - spans_.size()) {
    dropped_spans_ += n;
    return;
  }
  spans_.insert(spans_.end(), spans, spans + n);
}

void TraceSink::AddCounter(const std::string& name, double value) {
  TraceEvent e;
  e.name = name;
  e.cat = "counter";
  e.ph = 'C';
  e.ts_us = NowUs();
  e.tid = CurrentTid();
  e.value = value;
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void TraceSink::AddInstant(const std::string& name, const std::string& cat) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts_us = NowUs();
  e.tid = CurrentTid();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size() + spans_.size();
}

size_t TraceSink::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_spans_;
}

std::vector<TraceEvent> TraceSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(events_.size() + spans_.size());
  out.insert(out.end(), events_.begin(), events_.end());
  for (const SpanRecord& s : spans_) {
    TraceEvent& e = out.emplace_back();
    e.name = s.name;
    e.cat = s.cat;
    e.ts_us = s.ts_us;
    e.dur_us = s.dur_us;
    e.tid = s.tid;
    e.trace_id = s.trace_id;
  }
  return out;
}

std::string TraceSink::ToChromeJson() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : Events()) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    AppendEventJson(os, e);
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

std::string TraceSink::ToJsonl() const {
  std::ostringstream os;
  for (const TraceEvent& e : Events()) {
    std::ostringstream line;
    AppendEventJson(line, e);
    os << line.str() << "\n";
  }
  return os.str();
}

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  size_t n = std::fwrite(content.data(), 1, content.size(), f);
  bool ok = n == content.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace

bool TraceSink::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ToChromeJson());
}

bool TraceSink::WriteJsonl(const std::string& path) const {
  return WriteFile(path, ToJsonl());
}

StageTimer::StageTimer(const char* span_name, const char* metric_name, const char* cat)
    : span_(span_name, cat), metric_(metric_name), timing_(Enabled()) {
  if (timing_) {
    start_ = std::chrono::steady_clock::now();
  }
}

StageTimer::~StageTimer() {
  if (timing_) {
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    MetricsRegistry::Global()
        .GetHistogram(metric_, Histogram::ExponentialBuckets(0.001, 2, 40))
        .Observe(ms);
  }
}

TraceSink* GlobalTrace() { return g_sink.load(std::memory_order_acquire); }

void SetGlobalTrace(TraceSink* sink) { g_sink.store(sink, std::memory_order_release); }

void TraceCounter(const char* name, double value) {
  TraceSink* sink = GlobalTrace();
  if (sink != nullptr) {
    sink->AddCounter(name, value);
  }
}

}  // namespace obs
}  // namespace clara
