// Tests for the telemetry subsystem (src/obs): registry concurrency,
// histogram quantile correctness against known distributions, trace JSON
// well-formedness, bottleneck ledger bookkeeping, and the disabled path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/bottleneck.h"
#include "src/obs/export.h"
#include "src/obs/flight.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace clara {
namespace obs {
namespace {

// ---- Registry ----

TEST(MetricsRegistry, CounterGaugeBasics) {
  MetricsRegistry reg;
  reg.GetCounter("a.b.c").Add(3);
  reg.GetCounter("a.b.c").Add(2);
  EXPECT_EQ(reg.GetCounter("a.b.c").value(), 5u);

  reg.GetGauge("a.b.g").Set(1.5);
  reg.GetGauge("a.b.g").Set(2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("a.b.g").value(), 2.5);
  EXPECT_EQ(reg.size(), 2u);

  reg.Reset();
  EXPECT_EQ(reg.GetCounter("a.b.c").value(), 0u);
  EXPECT_EQ(reg.size(), 2u);  // registrations survive Reset
  reg.Clear();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, HandlesAreStable) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("stable");
  // Force rebalancing of the underlying map with many registrations.
  for (int i = 0; i < 1000; ++i) {
    reg.GetCounter("churn." + std::to_string(i)).Add(1);
  }
  c.Add(7);
  EXPECT_EQ(reg.GetCounter("stable").value(), 7u);
  EXPECT_EQ(&c, &reg.GetCounter("stable"));
}

TEST(MetricsRegistry, ConcurrentCountersSumExactly) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads hammer a shared counter, all race registration.
      Counter& shared = reg.GetCounter("concurrent.shared");
      Counter& own = reg.GetCounter("concurrent.t" + std::to_string(t));
      for (int i = 0; i < kIncrements; ++i) {
        shared.Add(1);
        own.Add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(reg.GetCounter("concurrent.shared").value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("concurrent.t" + std::to_string(t)).value(),
              static_cast<uint64_t>(kIncrements));
  }
}

TEST(MetricsRegistry, ConcurrentHistogramObservations) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("concurrent.h", Histogram::LinearBuckets(1, 1, 100));
  constexpr int kThreads = 6;
  constexpr int kObs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObs; ++i) {
        h.Observe((i % 100) + 0.5);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kObs);
  uint64_t bucket_total = 0;
  for (uint64_t b : h.BucketCounts()) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_NEAR(h.sum(), kThreads * kObs * 50.0, kThreads * kObs * 0.01);
}

// ---- Histogram quantiles ----

TEST(Histogram, QuantilesOfUniformDistribution) {
  // 1..1000 against unit-width buckets: quantiles should be near-exact.
  Histogram h(Histogram::LinearBuckets(1, 1, 1000));
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(i);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 1000);
  EXPECT_NEAR(h.Quantile(0.50), 500, 2.0);
  EXPECT_NEAR(h.Quantile(0.95), 950, 2.0);
  EXPECT_NEAR(h.Quantile(0.99), 990, 2.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
}

TEST(Histogram, QuantilesInterpolateWithinBucket) {
  // One wide bucket [0, 100]: with 100 uniform samples the estimator must
  // interpolate, not snap to a bound.
  Histogram h({100.0});
  for (int i = 1; i <= 100; ++i) {
    h.Observe(i);
  }
  double p50 = h.Quantile(0.5);
  EXPECT_GT(p50, 25.0);
  EXPECT_LT(p50, 75.0);
}

TEST(Histogram, QuantilesNeverExceedObservedRange) {
  // Sparse samples deep inside exponential buckets: p95/p99 must stay
  // within [min, max] even when the containing bucket is much wider.
  Histogram h(Histogram::ExponentialBuckets(0.001, 2, 40));
  h.Observe(0.1);
  h.Observe(0.12);
  h.Observe(1.1);
  for (double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_GE(h.Quantile(q), h.min()) << "q=" << q;
    EXPECT_LE(h.Quantile(q), h.max()) << "q=" << q;
  }
}

TEST(Histogram, ExactBoundGoesToLowerBucket) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(2.0);  // v <= bounds[i] semantics: lands in the [1,2] bucket
  std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(Histogram, OverflowBucketAndEmpty) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.Quantile(0.5), 0);  // empty histogram
  h.Observe(50.0);
  std::vector<uint64_t> counts = h.BucketCounts();
  EXPECT_EQ(counts.back(), 1u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 50.0);  // min==max tightens overflow
}

TEST(Histogram, BucketGenerators) {
  std::vector<double> lin = Histogram::LinearBuckets(2, 3, 4);
  EXPECT_EQ(lin, (std::vector<double>{2, 5, 8, 11}));
  std::vector<double> exp = Histogram::ExponentialBuckets(1, 2, 4);
  EXPECT_EQ(exp, (std::vector<double>{1, 2, 4, 8}));
}

// ---- Trace sink ----

TEST(TraceSink, ChromeJsonIsWellFormed) {
  TraceSink sink;
  sink.AddComplete("stage.one", "pipeline", 10, 25);
  sink.AddCounter("loss", 0.125);
  sink.AddInstant("marker \"quoted\"", "cli");
  std::string json = sink.ToChromeJson();
  while (!json.empty() && json.back() == '\n') {
    json.pop_back();
  }

  // Structural checks a JSON parser would enforce.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":25"), std::string::npos);
  // Quotes inside names must be escaped.
  EXPECT_NE(json.find("marker \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(json.find("marker \"quoted\""), std::string::npos);
  // Balanced braces/brackets (no nesting beyond events, so counting works).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceSink, JsonlHasOneObjectPerLine) {
  TraceSink sink;
  sink.AddComplete("a", "c", 0, 1);
  sink.AddComplete("b", "c", 1, 2);
  std::string jsonl = sink.ToJsonl();
  size_t lines = static_cast<size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
  EXPECT_EQ(lines, 2u);
  for (size_t start = 0; start < jsonl.size();) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = jsonl.substr(start, end - start);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    start = end + 1;
  }
}

TEST(TraceSink, ScopedSpanRecordsDuration) {
  TraceSink sink;
  SetGlobalTrace(&sink);
  {
    ScopedSpan span("unit.span", "test");
  }
  SetGlobalTrace(nullptr);
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.span");
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_GE(events[0].dur_us, 0);
}

TEST(TraceSink, SpanRecordsRenderAsCompleteEvents) {
  TraceSink sink;
  sink.AddComplete("stage.one", "pipeline", 1, 2);
  const SpanRecord spans[] = {{"serve.request", "serve", 10, 5, 7, 42},
                              {"serve.queue_wait", "serve", 10, 0, 7, 42}};
  sink.AddSpans(spans, 2);
  EXPECT_EQ(sink.size(), 3u);
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "stage.one");
  EXPECT_EQ(events[1].name, "serve.request");
  EXPECT_EQ(events[1].cat, "serve");
  EXPECT_EQ(events[1].ph, 'X');
  EXPECT_EQ(events[1].ts_us, 10);
  EXPECT_EQ(events[1].dur_us, 5);
  EXPECT_EQ(events[1].tid, 7u);
  EXPECT_EQ(events[1].trace_id, 42u);
  EXPECT_EQ(events[2].name, "serve.queue_wait");
  EXPECT_NE(sink.ToChromeJson().find("{\"name\":\"serve.request\",\"cat\":\"serve\","
                                     "\"ph\":\"X\",\"ts\":10,\"pid\":1,\"tid\":7,"
                                     "\"dur\":5,\"args\":{\"trace_id\":42}}"),
            std::string::npos);
}

TEST(TraceSink, SpansPastTheLimitAreDroppedAndCounted) {
  TraceSink sink;
  constexpr size_t kBatch = 1024;
  static_assert(TraceSink::kMaxSpans % kBatch == 0);
  std::vector<SpanRecord> batch(kBatch, SpanRecord{"serve.request", "serve", 1, 2, 3, 4});
  for (size_t added = 0; added + kBatch < TraceSink::kMaxSpans; added += kBatch) {
    sink.AddSpans(batch.data(), kBatch);
  }
  // One slot short of the limit: a two-span tree does not fit and is dropped
  // whole; a one-span tree still fits.
  sink.AddSpans(batch.data(), kBatch - 1);
  EXPECT_EQ(sink.size(), TraceSink::kMaxSpans - 1);
  sink.AddSpans(batch.data(), 2);
  EXPECT_EQ(sink.size(), TraceSink::kMaxSpans - 1);
  EXPECT_EQ(sink.dropped_spans(), 2u);
  sink.AddSpans(batch.data(), 1);
  EXPECT_EQ(sink.size(), TraceSink::kMaxSpans);
  // Full: every further span is counted, none kept.
  sink.AddSpans(batch.data(), kBatch);
  sink.AddSpans(batch.data(), 1);
  EXPECT_EQ(sink.size(), TraceSink::kMaxSpans);
  EXPECT_EQ(sink.dropped_spans(), 2 + kBatch + 1);
  // Other events are not capped by the span limit.
  sink.AddComplete("stage.one", "pipeline", 1, 2);
  EXPECT_EQ(sink.size(), TraceSink::kMaxSpans + 1);
}

TEST(TraceSink, NoSinkMeansNoCollection) {
  SetGlobalTrace(nullptr);
  {
    ScopedSpan span("dropped", "test");
    TraceCounter("dropped.counter", 1.0);
    CLARA_TRACE_SPAN("dropped.macro", "test");
  }
  TraceSink sink;
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(GlobalTrace(), nullptr);
}

TEST(TraceSink, ConcurrentWritersKeepAllEvents) {
  TraceSink sink;
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink] {
      for (int i = 0; i < kEvents; ++i) {
        sink.AddComplete("span", "t", i, 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(sink.size(), static_cast<size_t>(kThreads) * kEvents);
}

// ---- JSON helpers ----

TEST(JsonUtil, EscapesControlAndSpecialChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(std::nan("")), "0");
}

// ---- Enabled flag ----

TEST(ObsEnabled, DefaultsOffAndScopes) {
  EXPECT_FALSE(Enabled());
  {
    EnabledScope scope(true);
    EXPECT_TRUE(Enabled());
  }
  EXPECT_FALSE(Enabled());
}

// ---- Bottleneck ledger ----

TEST(BottleneckLedger, KeepsLatestPerNf) {
  BottleneckLedger ledger;
  BottleneckRecord r;
  r.nf = "fw";
  r.bound_resource = "EMEM";
  r.bound_rho = 0.8;
  ledger.Record(r);
  r.bound_resource = "cores";
  r.bound_rho = 0.95;
  ledger.Record(r);

  BottleneckRecord latest;
  ASSERT_TRUE(ledger.LatestFor("fw", &latest));
  EXPECT_EQ(latest.bound_resource, "cores");
  EXPECT_EQ(ledger.total_records(), 2u);
  EXPECT_EQ(ledger.Latest().size(), 1u);
  EXPECT_FALSE(ledger.LatestFor("missing", &latest));
}

TEST(BottleneckLedger, EvictsOldestBeyondCapacity) {
  BottleneckLedger ledger;
  BottleneckRecord r;
  for (int i = 0; i < 600; ++i) {  // capacity is 512 distinct NFs
    r.nf = "nf" + std::to_string(i);
    ledger.Record(r);
  }
  EXPECT_LE(ledger.Latest().size(), 512u);
  BottleneckRecord out;
  EXPECT_FALSE(ledger.LatestFor("nf0", &out));   // evicted
  EXPECT_TRUE(ledger.LatestFor("nf599", &out));  // newest kept
}

TEST(BottleneckRecord, RenderMarksBindingResource) {
  BottleneckRecord r;
  r.nf = "nat";
  r.cores = 12;
  r.throughput_mpps = 30;
  r.latency_us = 2;
  r.bound_resource = "EMEM";
  r.bound_rho = 0.91;
  r.utils.push_back({"EMEM", 0.91, 600});
  r.utils.push_back({"cores", 0.4, 0});
  std::string text = r.ToString();
  EXPECT_NE(text.find("EMEM"), std::string::npos);
  EXPECT_NE(text.find("<-- binds"), std::string::npos);
  std::string json = r.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"bound_resource\":\"EMEM\""), std::string::npos);
}

// ---- Registry render/JSON ----

TEST(MetricsRegistry, RenderAndJsonContainAllMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("x.count").Add(4);
  reg.GetGauge("x.gauge").Set(2.25);
  reg.GetHistogram("x.hist", {1.0, 10.0}).Observe(3);
  std::string text = reg.Render();
  EXPECT_NE(text.find("x.count"), std::string::npos);
  EXPECT_NE(text.find("x.gauge"), std::string::npos);
  EXPECT_NE(text.find("x.hist"), std::string::npos);
  std::string json = reg.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x.hist\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// ---- Gauge atomic increments ----

TEST(Gauge, AddSubAreAtomicIncrements) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("depth");
  g.Add(3);
  g.Add();  // default +1
  g.Sub();  // default -1
  g.Sub(2);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Gauge, ConcurrentAddSubNetsToZero) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("queue.depth");
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kOps; ++i) {
        g.Add(1);
        g.Sub(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Read-modify-Set() would lose updates here; CAS-based Add/Sub must not.
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ---- SLO tracker ----

TEST(SloTracker, QuantilesAndRatesOverOneWindow) {
  SloTracker::Options opts;
  opts.window_us = 1000000;  // 1 s window, 10 slices
  opts.slices = 10;
  SloTracker slo(opts);
  for (int i = 1; i <= 100; ++i) {
    // Latencies 1..100us, every 10th an error, every 20th an overrun.
    slo.Record(i * 1000, static_cast<double>(i), i % 10 == 0, i % 20 == 0);
  }
  SloTracker::Window w = slo.Snapshot(100 * 1000);
  EXPECT_EQ(w.count, 100u);
  EXPECT_EQ(w.errors, 10u);
  EXPECT_EQ(w.overruns, 5u);
  EXPECT_DOUBLE_EQ(w.error_rate, 0.1);
  EXPECT_DOUBLE_EQ(w.overrun_rate, 0.05);
  EXPECT_DOUBLE_EQ(w.max_us, 100.0);
  // Exponential buckets: coarse but ordered and within the observed range.
  EXPECT_GT(w.p50_us, 0.0);
  EXPECT_LE(w.p50_us, w.p90_us);
  EXPECT_LE(w.p90_us, w.p99_us);
  EXPECT_LE(w.p99_us, w.max_us);
  EXPECT_FALSE(w.degraded);  // no threshold configured
}

TEST(SloTracker, OldSamplesAgeOutOfTheWindow) {
  SloTracker::Options opts;
  opts.window_us = 1000000;
  opts.slices = 10;
  SloTracker slo(opts);
  for (int i = 0; i < 50; ++i) {
    slo.Record(1000, 10.0, true, false);  // a burst of errors at t=1ms
  }
  SloTracker::Window during = slo.Snapshot(2000);
  EXPECT_EQ(during.count, 50u);
  EXPECT_DOUBLE_EQ(during.error_rate, 1.0);
  // Two full windows later the burst has aged out entirely.
  SloTracker::Window after = slo.Snapshot(3000000);
  EXPECT_EQ(after.count, 0u);
  EXPECT_DOUBLE_EQ(after.error_rate, 0.0);
  EXPECT_DOUBLE_EQ(after.p99_us, 0.0);
}

TEST(SloTracker, DegradedTracksTheP99Threshold) {
  SloTracker::Options opts;
  opts.window_us = 1000000;
  opts.slices = 4;
  opts.p99_threshold_us = 100;
  SloTracker slo(opts);
  slo.Record(1000, 10.0, false, false);
  EXPECT_FALSE(slo.Snapshot(2000).degraded);
  for (int i = 0; i < 100; ++i) {
    slo.Record(3000, 5000.0, false, false);  // sustained 5ms latencies
  }
  SloTracker::Window w = slo.Snapshot(4000);
  EXPECT_GT(w.p99_us, 100.0);
  EXPECT_TRUE(w.degraded);
  // An empty window is never degraded, whatever the threshold.
  EXPECT_FALSE(slo.Snapshot(5000000).degraded);
}

TEST(SloTracker, ExportGaugesPublishesServeSloMetrics) {
  SloTracker::Options opts;
  opts.p99_threshold_us = 1;
  SloTracker slo(opts);
  slo.Record(1000, 500.0, false, false);
  slo.ExportGauges(2000);
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(reg.GetGauge("serve.slo.window_requests").value(), 1.0);
  EXPECT_GT(reg.GetGauge("serve.slo.p99_us").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("serve.slo.degraded").value(), 1.0);
}

// ---- flight recorder ----

TEST(FlightRecorder, SnapshotIsOldestFirstAndBounded) {
  FlightRecorder flight(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    FlightRecord rec;
    rec.id = i;
    rec.label = "req" + std::to_string(i);
    flight.Record(std::move(rec));
  }
  EXPECT_EQ(flight.size(), 3u);
  EXPECT_EQ(flight.recorded(), 5u);
  std::vector<FlightRecord> recent = flight.Snapshot();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].id, 3u);  // 1 and 2 were overwritten
  EXPECT_EQ(recent[2].id, 5u);

  flight.Clear();
  EXPECT_EQ(flight.size(), 0u);
  EXPECT_TRUE(flight.Snapshot().empty());
}

TEST(FlightRecorder, ToJsonIsWellFormed) {
  FlightRecorder flight(4);
  FlightRecord rec;
  rec.id = 7;
  rec.trace_id = 99;
  rec.label = "agg\"counter";  // must be escaped
  rec.outcome = 4;
  rec.cache_hit = true;
  rec.total_us = 123;
  flight.Record(std::move(rec));
  std::string json = flight.ToJson();
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":99"), std::string::npos) << json;
  EXPECT_NE(json.find("agg\\\"counter"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_us\":123"), std::string::npos) << json;
}

// ---- periodic JSONL export ----

TEST(PeriodicJsonlExporter, WritesTimestampedSamples) {
  std::string path = ::testing::TempDir() + "/metrics_export_test.jsonl";
  std::remove(path.c_str());
  MetricsRegistry::Global().GetCounter("export.test.counter").Add(42);
  {
    PeriodicJsonlExporter exporter(path, std::chrono::milliseconds(20));
    ASSERT_TRUE(exporter.Start());
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
    exporter.Stop();
    EXPECT_GE(exporter.samples_written(), 2u);  // periodic + final
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  // Every line is one JSON object with the expected envelope fields.
  size_t lines = 0;
  size_t start = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string line = content.substr(start, end - start);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"seq\":" + std::to_string(lines)), std::string::npos);
    EXPECT_NE(line.find("\"metrics\":"), std::string::npos);
    start = end + 1;
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  EXPECT_NE(content.find("export.test.counter"), std::string::npos);
}

TEST(PeriodicJsonlExporter, StartFailsOnUnwritablePath) {
  PeriodicJsonlExporter exporter("/nonexistent-dir/metrics.jsonl",
                                 std::chrono::milliseconds(10));
  EXPECT_FALSE(exporter.Start());
}

}  // namespace
}  // namespace obs
}  // namespace clara
