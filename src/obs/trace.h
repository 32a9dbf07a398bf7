// Structured trace sink: scoped spans collected into Chrome-trace-format
// JSON (loadable in chrome://tracing / Perfetto) and JSONL.
//
// A global sink pointer gates everything: with no sink registered, starting
// a span is a single pointer load — no clock read, no allocation. Front ends
// own the sink; library code only ever emits through the global.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace clara {
namespace obs {

struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';       // 'X' complete span, 'C' counter, 'i' instant
  int64_t ts_us = 0;   // microseconds since sink epoch
  int64_t dur_us = 0;  // span duration ('X' only)
  uint32_t tid = 0;
  double value = 0;    // counter value ('C' only)
  // Request correlation: spans belonging to one traced request share a
  // nonzero trace_id, emitted as args.trace_id in the Chrome JSON so
  // chrome://tracing / check_trace.py can group nested per-stage spans.
  uint64_t trace_id = 0;
};

// A complete span ('X') whose name and category are string literals (or
// otherwise outlive the sink). The serving hot path records each request's
// span tree as these, so tracing a request copies no string and allocates
// nothing; Events() renders each one as a TraceEvent.
struct SpanRecord {
  const char* name;
  const char* cat;
  int64_t ts_us;
  int64_t dur_us;
  uint32_t tid;
  uint64_t trace_id;
};

class TraceSink {
 public:
  // The most SpanRecords one sink keeps: 12 MiB of records, about 87,000
  // traced daemon requests at three spans each. A batch that does not fit
  // whole is counted in dropped_spans() instead, so a long traced run stays
  // bounded and every kept request keeps its whole span tree.
  static constexpr size_t kMaxSpans = size_t{1} << 18;

  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // Microseconds since this sink was created (monotonic).
  int64_t NowUs() const;
  // The instant NowUs() counts from.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  void AddComplete(const std::string& name, const std::string& cat, int64_t ts_us,
                   int64_t dur_us);
  // Complete span correlated to a request: trace_id lands in args.trace_id.
  // `tid` overrides the calling thread's id so every span of one request
  // renders on the same track regardless of which thread recorded it.
  void AddCompleteForTrace(const std::string& name, const std::string& cat,
                           int64_t ts_us, int64_t dur_us, uint64_t trace_id);
  // Append a pre-built batch under one lock.
  void AddEvents(std::vector<TraceEvent>&& events);
  // Appends spans under one lock, without copying their strings; drops the
  // whole batch once it would take the sink past kMaxSpans.
  void AddSpans(const SpanRecord* spans, size_t n);
  void AddCounter(const std::string& name, double value);
  void AddInstant(const std::string& name, const std::string& cat);

  size_t size() const;
  // Spans AddSpans dropped at the kMaxSpans limit.
  size_t dropped_spans() const;
  // Every event, TraceEvents in arrival order followed by SpanRecords in
  // arrival order.
  std::vector<TraceEvent> Events() const;

  // {"traceEvents":[...],"displayTimeUnit":"ms"} — chrome://tracing format.
  std::string ToChromeJson() const;
  // One JSON object per line.
  std::string ToJsonl() const;
  bool WriteChromeJson(const std::string& path) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  static uint32_t CurrentTid();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<SpanRecord> spans_;
  size_t dropped_spans_ = 0;
};

// Global sink registration. Not owned; caller keeps the sink alive for the
// duration. nullptr (the default) disables span collection entirely.
TraceSink* GlobalTrace();
void SetGlobalTrace(TraceSink* sink);

// RAII span against the global sink. `name` and `cat` must outlive the span
// only until the destructor runs (string literals in practice).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "clara")
      : sink_(GlobalTrace()), name_(name), cat_(cat),
        start_us_(sink_ != nullptr ? sink_->NowUs() : 0) {}

  ~ScopedSpan() {
    if (sink_ != nullptr) {
      sink_->AddComplete(name_, cat_, start_us_, sink_->NowUs() - start_us_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceSink* sink_;
  const char* name_;
  const char* cat_;
  int64_t start_us_;
};

// Emit a counter sample to the global sink, if any.
void TraceCounter(const char* name, double value);

// Pipeline-stage instrumentation in one RAII: a span against the global
// trace sink plus a wall-time histogram sample (milliseconds) under
// `metric_name` in the global registry. Costs one Enabled() check when
// telemetry is off.
class StageTimer {
 public:
  StageTimer(const char* span_name, const char* metric_name, const char* cat = "pipeline");
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  ScopedSpan span_;
  const char* metric_;
  bool timing_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace clara

// Span macro: a no-op pointer check when no sink is registered.
#define CLARA_OBS_CONCAT_INNER_(a, b) a##b
#define CLARA_OBS_CONCAT_(a, b) CLARA_OBS_CONCAT_INNER_(a, b)
#define CLARA_TRACE_SPAN(name, cat) \
  ::clara::obs::ScopedSpan CLARA_OBS_CONCAT_(clara_obs_span_, __LINE__)(name, cat)

#endif  // SRC_OBS_TRACE_H_
