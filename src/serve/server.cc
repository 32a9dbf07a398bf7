#include "src/serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "src/elements/elements.h"
#include "src/lang/check.h"
#include "src/lang/interp.h"
#include "src/lang/parse.h"
#include "src/lang/printer.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/ml/simd.h"
#include "src/obs/trace.h"
#include "src/serve/artifact.h"
#include "src/synth/algorithm_corpus.h"
#include "src/util/binio.h"
#include "src/util/fault.h"
#include "src/util/parallel.h"

namespace clara {
namespace serve {
namespace {

// The program half of the cache key. By-name requests take it from the
// table the engine builds with this function at construction.
uint64_t ProgramKey(const Program& program) { return Fnv1a64(ToSource(program)); }

obs::SloTracker::Options SloOptionsFrom(const ServeOptions& opts) {
  obs::SloTracker::Options slo;
  slo.window_us = std::max<int64_t>(opts.slo_window_ms, 1) * 1000;
  slo.p99_threshold_us = opts.slo_p99_us;
  return slo;
}

uint32_t ClampUs(int64_t us) {
  return static_cast<uint32_t>(std::clamp<int64_t>(us, 0, UINT32_MAX));
}

int64_t SpanUs(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}

// Registry handles are stable for the process lifetime (Reset() zeroes but
// keeps registrations), so look each one up once: the by-name map walk and
// the bucket-vector construction are too heavy for the per-request hot path.
obs::Histogram& LatencyHist() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.latency_us", obs::Histogram::ExponentialBuckets(1, 2, 32));
  return h;
}

obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("serve.requests");
  return c;
}

obs::Counter& CacheHitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("serve.cache.hits");
  return c;
}

obs::Counter& CacheMissesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("serve.cache.misses");
  return c;
}

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge("serve.queue.depth");
  return g;
}

InsightResponse ErrorResponse(uint64_t id, ErrorCode code, std::string message) {
  InsightResponse resp;
  resp.id = id;
  resp.error = code;
  resp.error_message = std::move(message);
  return resp;
}

AnalyzerOptions MakeAnalyzerOptions(const ServeOptions& opts) {
  AnalyzerOptions a;
  a.nic = opts.nic;
  a.profile_packets = opts.profile_packets;
  return a;
}

// Selecting the backend before the analyzer is built packs the f32 engine
// once, before the snapshot serves its first request.
TrainedBundle WithInferBackend(TrainedBundle bundle, InferBackend backend) {
  bundle.predictor.SetInferBackend(backend);
  return bundle;
}

BrownoutPolicy::Options BrownoutOptionsFrom(const ServeOptions& opts) {
  BrownoutPolicy::Options b;
  b.enter_threshold_us = opts.slo_p99_us;  // 0 keeps the policy disabled
  b.exit_margin = opts.brownout_exit_margin;
  b.exit_hold_us = opts.brownout_exit_hold_ms * 1000;
  b.retry_after_ms = opts.brownout_retry_after_ms;
  return b;
}

}  // namespace

ServeEngine::ModelSnapshot::ModelSnapshot(AnalyzerOptions opts, TrainedBundle bundle,
                                          InferBackend backend, uint64_t ver)
    : analyzer(std::move(opts), WithInferBackend(std::move(bundle), backend)),
      version(ver) {}

ServeEngine::ServeEngine(TrainedBundle bundle, ServeOptions opts)
    : opts_(opts),
      model_(std::make_shared<ModelSnapshot>(MakeAnalyzerOptions(opts), std::move(bundle),
                                             opts.infer_backend, /*ver=*/1)),
      brownout_(BrownoutOptionsFrom(opts)),
      slo_(SloOptionsFrom(opts)),
      flight_(opts.flight_capacity),
      cache_(opts.cache_capacity) {
  for (const ElementInfo& info : ElementRegistry()) {
    element_keys_.emplace(info.name, ProgramKey(info.make()));
  }
}

ServeEngine::~ServeEngine() { Stop(); }

void ServeEngine::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return;
  }
  stop_ = false;
  running_ = true;
  dispatcher_ = std::thread([this] { Loop(); });
}

void ServeEngine::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
    leftovers.swap(queue_);
  }
  if (obs::Enabled() && !leftovers.empty()) {
    QueueDepthGauge().Sub(static_cast<double>(leftovers.size()));
  }
  for (auto& p : leftovers) {
    p.done(ErrorResponse(p.req.id, ErrorCode::kShutdown, "engine stopped before dispatch"));
  }
}

ServeEngine::Pending ServeEngine::NewPending(InsightRequest req, uint32_t request_bytes,
                                            std::function<void(InsightResponse)> done) {
  Pending p;
  p.req = std::move(req);
  p.done = std::move(done);
  p.request_bytes = request_bytes;
  p.enqueued = Clock::now();
  if (p.req.deadline_ms > 0) {
    // Brownout shrinks the admitted deadline budget: work we cannot finish
    // in time should fail fast at dispatch instead of occupying the
    // dispatcher.
    uint32_t budget = p.req.deadline_ms;
    if (brownout_active_.load(std::memory_order_relaxed)) {
      budget = std::max<uint32_t>(1, budget / 2);
    }
    p.has_deadline = true;
    p.deadline = p.enqueued + std::chrono::milliseconds(budget);
  }
  return p;
}

bool ServeEngine::AnswerAtAdmission(Pending& p) {
  if (!p.req.source.empty()) {
    return false;
  }
  auto key = element_keys_.find(p.req.element);
  return key != element_keys_.end() &&
         ReplayCached(p, key->second, HashWorkload(p.req.workload));
}

void ServeEngine::Submit(InsightRequest req, uint32_t request_bytes,
                         std::function<void(InsightResponse)> done) {
  Pending p = NewPending(std::move(req), request_bytes, std::move(done));
  if (AnswerAtAdmission(p)) {
    return;
  }
  // Fault site queue.admit: admission rejects a healthy request exactly the
  // way a full queue would, with a retry hint so well-behaved clients recover.
  if (fault::Armed() && fault::ShouldFail(fault::Site::kQueueAdmit)) {
    InsightResponse resp =
        ErrorResponse(p.req.id, ErrorCode::kQueueFull, "injected fault (queue.admit)");
    resp.retry_after_ms = 10;
    p.done(std::move(resp));
    return;
  }
  bool brownout = brownout_active_.load(std::memory_order_relaxed);
  std::vector<Pending> evicted;
  std::optional<InsightResponse> rejected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // Shutdown has begun (or completed without a restart): answer instead
      // of racing the dispatcher teardown and stranding the request.
      rejected = ErrorResponse(p.req.id, ErrorCode::kShutdown, "engine is stopping");
    } else if (queue_.size() >= opts_.queue_capacity) {
      if (obs::Enabled()) {
        obs::MetricsRegistry::Global().GetCounter("serve.queue.rejected").Add(1);
      }
      rejected = ErrorResponse(
          p.req.id, ErrorCode::kQueueFull,
          "queue at capacity (" + std::to_string(opts_.queue_capacity) + ")");
      if (brownout) {
        rejected->retry_after_ms = brownout_.options().retry_after_ms;
      }
    } else if (brownout &&
               queue_.size() >= std::max<size_t>(1, opts_.queue_capacity / 2)) {
      // Above the brownout watermark admission is priority-competitive: the
      // newcomer displaces the lowest-priority queued request (newest among
      // ties) if it outranks one, otherwise it is shed itself.
      size_t victim = queue_.size();  // sentinel: none below p's priority
      for (size_t i = queue_.size(); i-- > 0;) {
        uint8_t bar =
            victim == queue_.size() ? p.req.priority : queue_[victim].req.priority;
        if (queue_[i].req.priority < bar) {
          victim = i;
        }
      }
      if (victim == queue_.size()) {
        rejected = SheddedResponse(p.req.id, "brownout: load shed above queue watermark");
      } else {
        evicted.push_back(std::move(queue_[victim]));
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(victim));
        if (obs::Enabled()) {
          QueueDepthGauge().Sub(1);
        }
      }
    }
    if (!rejected) {
      queue_.push_back(std::move(p));
      if (obs::Enabled()) {
        QueueDepthGauge().Add(1);
      }
    }
  }
  if (rejected) {
    p.done(std::move(*rejected));  // outside the lock: the callback is the caller's
    return;
  }
  for (auto& v : evicted) {
    Fulfill(v, SheddedResponse(v.req.id, "brownout: displaced by higher priority"));
  }
  cv_.notify_one();
}

std::future<InsightResponse> ServeEngine::Submit(InsightRequest req,
                                                 uint32_t request_bytes) {
  auto promise = std::make_shared<std::promise<InsightResponse>>();
  std::future<InsightResponse> fut = promise->get_future();
  Submit(std::move(req), request_bytes,
         [promise](InsightResponse resp) { promise->set_value(std::move(resp)); });
  return fut;
}

InsightResponse ServeEngine::Handle(InsightRequest req, uint32_t request_bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      // Inline single-request path (no dispatcher): the admission step, then
      // what the dispatcher would do.
      InsightResponse out;
      Pending p = NewPending(std::move(req), request_bytes,
                             [&out](InsightResponse resp) { out = std::move(resp); });
      if (!AnswerAtAdmission(p)) {
        Process(p);
      }
      return out;
    }
  }
  return Submit(std::move(req), request_bytes).get();
}

std::string ServeEngine::HandlePayload(std::string_view payload) {
  InsightRequest req;
  std::string err;
  if (!ParseRequest(payload, &req, &err)) {
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global().GetCounter("serve.requests.malformed").Add(1);
    }
    return EncodeResponse(ErrorResponse(0, ErrorCode::kBadRequest, err));
  }
  return EncodeResponse(Handle(std::move(req), static_cast<uint32_t>(payload.size())));
}

std::string ServeEngine::EncodeTransportError(ErrorCode code, const std::string& message) {
  return EncodeResponse(ErrorResponse(0, code, message));
}

void ServeEngine::Loop() {
  for (;;) {
    UpdateBrownout();
    Pending p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Bounded wait instead of an open-ended one so brownout exit can make
      // progress while the daemon idles (the policy needs periodic Updates).
      cv_.wait_for(lock, std::chrono::milliseconds(100),
                   [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        return;  // leftovers answered by Stop()
      }
      if (queue_.empty()) {
        continue;  // timed out: refresh brownout state and wait again
      }
      p = std::move(queue_.front());
      queue_.pop_front();
      if (obs::Enabled()) {
        QueueDepthGauge().Sub(1);
      }
    }
    Process(p);
  }
}

int64_t ServeEngine::NowUs() const { return SpanUs(started_, Clock::now()); }

void ServeEngine::Fulfill(Pending& p, InsightResponse resp) {
  Clock::time_point now = Clock::now();
  bool error = resp.error != ErrorCode::kOk;
  bool overrun = p.has_deadline && now > p.deadline && !error;
  double us = std::chrono::duration_cast<std::chrono::nanoseconds>(now - p.enqueued)
                  .count() /
              1e3;

  // Trace id: honor the client's, otherwise mint one while a sink is live so
  // the trace file is still fully correlated.
  uint64_t trace_id = p.req.trace_id;
  obs::TraceSink* sink = obs::GlobalTrace();
  if (trace_id == 0 && sink != nullptr) {
    trace_id = trace_id_gen_.fetch_add(1, std::memory_order_relaxed);
  }

  // Per-stage latency breakdown, echoed to the client in the response.
  LatencyBreakdown& bd = resp.breakdown;
  bd.valid = true;
  bd.trace_id = trace_id;
  bd.cache_hit = p.cache_hit;
  Clock::time_point drained =
      p.drained.time_since_epoch().count() != 0 ? p.drained : p.enqueued;
  bd.queue_us = ClampUs(SpanUs(p.enqueued, drained));
  for (const StageSpan& s : p.spans) {
    uint32_t stage_us = ClampUs(SpanUs(s.start, s.end));
    if (std::string_view(s.name) == "serve.parse") {
      bd.parse_us += stage_us;
    } else if (std::string_view(s.name) == "serve.infer") {
      bd.infer_us += stage_us;
    } else if (std::string_view(s.name) == "serve.analyze") {
      bd.analyze_us += stage_us;
    } else if (std::string_view(s.name) == "serve.encode") {
      bd.encode_us += stage_us;
    }
  }
  bd.total_us = ClampUs(SpanUs(p.enqueued, now));

  // Emit the request's span tree: one root covering submit->fulfill, a queue
  // wait child, then the recorded processing stages — all on one track, all
  // tagged with the trace id.
  if (sink != nullptr) {
    auto sink_us = [&](Clock::time_point tp) { return SpanUs(sink->epoch(), tp); };
    uint32_t track = static_cast<uint32_t>(trace_id % 100000);
    // Reused per thread, so recording the tree allocates nothing.
    thread_local std::vector<obs::SpanRecord> tree;
    tree.clear();
    tree.push_back({"serve.request", "serve", sink_us(p.enqueued), SpanUs(p.enqueued, now),
                    track, trace_id});
    tree.push_back({"serve.queue_wait", "serve", sink_us(p.enqueued),
                    SpanUs(p.enqueued, drained), track, trace_id});
    for (const StageSpan& s : p.spans) {
      tree.push_back(
          {s.name, "serve", sink_us(s.start), SpanUs(s.start, s.end), track, trace_id});
    }
    sink->AddSpans(tree.data(), tree.size());
  }

  // Rolling SLO window + flight recorder run regardless of the global obs
  // switch: Health/Dump must answer truthfully on an un-instrumented daemon.
  int64_t now_us = NowUs();
  slo_.Record(now_us, us, error, overrun);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (error) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }

  obs::FlightRecord rec;
  rec.id = p.req.id;
  rec.trace_id = trace_id;
  rec.label = !p.req.source.empty() ? std::string("<inline>") : p.req.element;
  rec.outcome = static_cast<uint8_t>(resp.error);
  rec.cache_hit = p.cache_hit;
  rec.done_us = now_us;
  rec.request_bytes = p.request_bytes;
  rec.queue_us = bd.queue_us;
  rec.parse_us = bd.parse_us;
  rec.infer_us = bd.infer_us;
  rec.analyze_us = bd.analyze_us;
  rec.encode_us = bd.encode_us;
  rec.total_us = bd.total_us;
  flight_.Record(std::move(rec));

  // First internal error: dump the flight recorder once, automatically — the
  // context that led up to it is exactly what the ring still holds.
  if (resp.error == ErrorCode::kInternal &&
      !flight_dumped_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr, "serve: first internal error (request %llu); flight recorder:\n%s\n",
                 static_cast<unsigned long long>(p.req.id), flight_.ToJson().c_str());
  }

  if (obs::Enabled()) {
    RequestsCounter().Add(1);
    if (error) {
      obs::MetricsRegistry::Global().GetCounter("serve.errors").Add(1);
    }
    LatencyHist().Observe(us);
    if (overrun) {
      obs::MetricsRegistry::Global().GetCounter("serve.deadline.overruns").Add(1);
    }
    // Refresh the serve.slo.* gauges at most every 100 ms: snapshotting the
    // window merges every slice, too heavy for the per-request hot path.
    int64_t last = last_slo_export_us_.load(std::memory_order_relaxed);
    if (now_us - last >= 100000 &&
        last_slo_export_us_.compare_exchange_strong(last, now_us,
                                                    std::memory_order_relaxed)) {
      slo_.ExportGauges(now_us);
    }
  }
  p.done(std::move(resp));
}

void ServeEngine::Process(Pending& p) {
  p.drained = Clock::now();
  if (p.has_deadline && p.drained > p.deadline) {
    Fulfill(p, ErrorResponse(p.req.id, ErrorCode::kDeadlineExceeded,
                             "deadline expired before dispatch"));
    return;
  }
  // Fault site dispatch: the worker path fails one request with a transient
  // internal error (retry hint attached) — the requests behind it must be
  // unaffected.
  if (fault::Armed() && fault::ShouldFail(fault::Site::kDispatch)) {
    InsightResponse resp =
        ErrorResponse(p.req.id, ErrorCode::kInternal, "injected fault (dispatch)");
    resp.retry_after_ms = 10;
    Fulfill(p, std::move(resp));
    return;
  }
  uint64_t workload_hash = HashWorkload(p.req.workload);
  uint64_t program_hash = 0;
  Program program;
  if (!p.req.source.empty()) {
    StageSpan parse_span{"serve.parse", Clock::now(), {}};
    ParseResult parsed = ParseProgram(p.req.source);
    if (!parsed.ok) {
      Fulfill(p, ErrorResponse(p.req.id, ErrorCode::kParseError, parsed.error));
      return;
    }
    CheckResult check = CheckProgram(parsed.program);
    if (!check.ok) {
      std::string msg = "program failed type check:";
      for (const auto& e : check.errors) {
        msg += " " + e + ";";
      }
      Fulfill(p, ErrorResponse(p.req.id, ErrorCode::kCheckFailed, msg));
      return;
    }
    parse_span.end = Clock::now();
    p.spans.push_back(parse_span);
    program = std::move(parsed.program);
    program_hash = ProgramKey(program);
    if (ReplayCached(p, program_hash, workload_hash)) {
      return;
    }
  } else {
    // A by-name request is keyed before its program is built, so a hit
    // (its key filled while the request waited) builds nothing.
    auto key = element_keys_.find(p.req.element);
    if (key == element_keys_.end()) {
      Fulfill(p, ErrorResponse(p.req.id, ErrorCode::kUnknownElement,
                               "element '" + p.req.element + "' not in registry"));
      return;
    }
    program_hash = key->second;
    if (ReplayCached(p, program_hash, workload_hash)) {
      return;
    }
    StageSpan make_span{"serve.parse", Clock::now(), {}};
    program = *FindElementByName(p.req.element);
    make_span.end = Clock::now();
    p.spans.push_back(make_span);
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) {
    CacheMissesCounter().Add(1);
  }
  // Brownout prefers cache hits: a miss from the lowest priority class is
  // shed instead of spending inference on it, keeping the dispatcher for
  // cached replays and prioritized traffic.
  if (brownout_active_.load(std::memory_order_relaxed) && p.req.priority == 0) {
    Fulfill(p, SheddedResponse(p.req.id, "brownout: cache miss shed (priority 0)"));
    return;
  }

  // Pin the model only now, after the cache probe. Hits never read it, and a
  // probe that found the cache cleared by a Reload() then pins the model that
  // Reload() published, so CachePut keeps the answer. A concurrent Reload()
  // cannot reclaim the snapshot while we hold it.
  std::shared_ptr<ModelSnapshot> model;
  std::shared_ptr<ModelSnapshot> retired;  // released when this miss is answered
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    model = model_;
    retired = std::move(retired_);
  }
  const ClaraAnalyzer& analyzer = model->analyzer;
  // Lowering finishes program resolution, so serve.parse times it too.
  StageSpan lower_span{"serve.parse", Clock::now(), {}};
  NfInstance nf(std::move(program));
  lower_span.end = Clock::now();
  p.spans.push_back(lower_span);
  if (!nf.ok()) {
    Fulfill(p, ErrorResponse(p.req.id, ErrorCode::kCheckFailed,
                             "lowering failed: " + nf.error()));
    return;
  }
  StageSpan analyze_span{"serve.analyze", lower_span.end, {}};
  StageWindow infer;
  OffloadingInsights insights = analyzer.Analyze(nf, p.req.workload, &infer);
  InsightResponse resp;
  resp.id = p.req.id;
  resp.nf_name = insights.nf_name;
  resp.accelerator = AccelClassName(insights.accelerator);
  resp.suggested_cores = insights.suggested_cores;
  resp.total_compute = insights.prediction.total_compute;
  resp.total_mem_state = insights.prediction.total_mem_state;
  resp.naive_mpps = insights.naive_perf.throughput_mpps;
  resp.naive_us = insights.naive_perf.latency_us;
  resp.tuned_mpps = insights.tuned_perf.throughput_mpps;
  resp.tuned_us = insights.tuned_perf.latency_us;
  resp.rendered = insights.ToString(opts_.nic);
  analyze_span.end = Clock::now();
  p.spans.push_back(analyze_span);
  // Inference is one task of the analysis and overlaps its profiling, so
  // serve.infer nests under serve.analyze.
  p.spans.push_back(StageSpan{"serve.infer", infer.start, infer.end});
  StageSpan encode_span{"serve.encode", analyze_span.end, {}};
  CachePut(program_hash, workload_hash, EncodeResponseBody(resp), model->version);
  encode_span.end = Clock::now();
  p.spans.push_back(encode_span);
  Fulfill(p, std::move(resp));
}

bool ServeEngine::ReplayCached(Pending& p, uint64_t program_hash, uint64_t workload_hash) {
  std::string cached = cache_.Get(program_hash, workload_hash);
  if (cached.empty()) {
    return false;
  }
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) {
    CacheHitsCounter().Add(1);
  }
  // Byte-identical replay of the cached body; only the id envelope differs
  // per request.
  p.cache_hit = true;
  StageSpan encode_span{"serve.encode", Clock::now(), {}};
  std::string payload = EncodeResponseWithBody(p.req.id, cached);
  InsightResponse resp;
  std::string err;
  bool ok = ParseResponse(payload, &resp, &err);
  encode_span.end = Clock::now();
  p.spans.push_back(encode_span);
  if (ok) {
    Fulfill(p, std::move(resp));
  } else {
    Fulfill(p, ErrorResponse(p.req.id, ErrorCode::kInternal, "cache decode: " + err));
  }
  return true;
}

void ServeEngine::CachePut(uint64_t program_hash, uint64_t workload_hash, std::string body,
                           uint64_t version) {
  // A miss that pinned the model before a reload finishes on the old model;
  // its answer must not repopulate the freshly cleared cache.
  if (version != artifact_version_.load(std::memory_order_acquire)) {
    return;
  }
  size_t entries = cache_.Put(program_hash, workload_hash, std::move(body));
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("serve.cache.entries")
        .Set(static_cast<double>(entries));
  }
}

void ServeEngine::CacheClear() {
  cache_.Clear();
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetGauge("serve.cache.entries").Set(0);
  }
}

std::string AnswerCache::Get(uint64_t program_hash, uint64_t workload_hash) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(Key{program_hash, workload_hash});
  if (it == map_.end()) {
    return std::string();
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
  return it->second->body;
}

size_t AnswerCache::Put(uint64_t program_hash, uint64_t workload_hash, std::string body) {
  if (capacity_ == 0) {
    return 0;
  }
  Key key{program_hash, workload_hash};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->body = std::move(body);
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.size();
  }
  lru_.push_front(Entry{key, std::move(body)});
  map_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return lru_.size();
}

void AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  map_.clear();
}

size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::shared_ptr<ServeEngine::ModelSnapshot> ServeEngine::Model() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

std::shared_ptr<ServeEngine::ModelSnapshot> ServeEngine::ValidateCandidate(
    TrainedBundle bundle, std::string* error) {
  if (!bundle.trained()) {
    *error = "candidate bundle is not fully trained";
    return nullptr;
  }
  auto cand = std::make_shared<ModelSnapshot>(MakeAnalyzerOptions(opts_), std::move(bundle),
                                              opts_.infer_backend, /*ver=*/0);
  // Canary inference: before the candidate may serve traffic it must analyze
  // a known registry element to a sane insight — a bundle that deserialized
  // cleanly but predicts garbage is rejected here, off the serving path. It
  // runs inline on the reloading thread, so a reload takes no pool threads
  // from the misses being served meanwhile.
  const auto& registry = ElementRegistry();
  if (!registry.empty()) {
    OffloadingInsights canary;
    RunInline([&] {
      canary = cand->analyzer.Analyze(registry.front().make(), WorkloadSpec::SmallFlows());
    });
    if (canary.suggested_cores < 1 ||
        !std::isfinite(canary.prediction.total_compute) ||
        canary.prediction.total_compute < 0) {
      *error = "canary inference produced implausible insights";
      return nullptr;
    }
  }
  return cand;
}

bool ServeEngine::Reload(TrainedBundle bundle, std::string* error) {
  std::shared_ptr<ModelSnapshot> cand = ValidateCandidate(std::move(bundle), error);
  if (cand == nullptr) {
    reload_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global().GetCounter("serve.reload.rejected").Add(1);
    }
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    cand->version = artifact_version_.load(std::memory_order_relaxed) + 1;
    retired_ = std::move(model_);
    model_ = cand;
    artifact_version_.store(cand->version, std::memory_order_release);
  }
  // The old model's answers are stale the instant the swap is visible.
  CacheClear();
  reload_ok_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter("serve.reload.ok").Add(1);
  }
  return true;
}

bool ServeEngine::ReloadFromFile(const std::string& path, std::string* error) {
  TrainedBundle bundle;
  if (!LoadBundleFile(path, &bundle, error)) {
    reload_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global().GetCounter("serve.reload.rejected").Add(1);
    }
    return false;
  }
  return Reload(std::move(bundle), error);
}

void ServeEngine::SetReloadPath(std::string path) {
  std::lock_guard<std::mutex> lock(model_mu_);
  reload_path_ = std::move(path);
}

InsightResponse ServeEngine::SheddedResponse(uint64_t id, const std::string& why) {
  InsightResponse resp = ErrorResponse(id, ErrorCode::kShedded, why);
  resp.retry_after_ms = brownout_.options().retry_after_ms;
  shedded_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter("serve.shedded").Add(1);
  }
  return resp;
}

std::vector<ServeEngine::Pending> ServeEngine::ShedLocked(size_t target_depth) {
  std::vector<Pending> victims;
  while (queue_.size() > target_depth) {
    size_t victim = queue_.size() - 1;
    for (size_t i = queue_.size() - 1; i-- > 0;) {
      if (queue_[i].req.priority < queue_[victim].req.priority) {
        victim = i;  // strictly lower only: newest among ties stays victim
      }
    }
    victims.push_back(std::move(queue_[victim]));
    queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(victim));
  }
  if (obs::Enabled() && !victims.empty()) {
    QueueDepthGauge().Sub(static_cast<double>(victims.size()));
  }
  return victims;
}

void ServeEngine::UpdateBrownout() {
  if (opts_.slo_p99_us <= 0) {
    return;
  }
  int64_t now_us = NowUs();
  if (now_us - last_brownout_us_ < 100000) {
    return;  // snapshotting the SLO window is too heavy to do per request
  }
  last_brownout_us_ = now_us;
  obs::SloTracker::Window w = slo_.Snapshot(now_us);
  bool was = brownout_.active();
  bool active = brownout_.Update(now_us, w.p99_us, w.count);
  if (active == was) {
    return;
  }
  brownout_active_.store(active, std::memory_order_relaxed);
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter(active ? "serve.brownout.entered" : "serve.brownout.exited")
        .Add(1);
  }
  if (!active) {
    return;
  }
  // Entry shed: cut the backlog to half capacity, lowest priority first.
  std::vector<Pending> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims = ShedLocked(std::max<size_t>(1, opts_.queue_capacity / 2));
  }
  for (auto& v : victims) {
    Fulfill(v, SheddedResponse(v.req.id, "brownout: entry shed"));
  }
}

obs::SloTracker::Window ServeEngine::SloWindow() const { return slo_.Snapshot(NowUs()); }

void ServeEngine::SetTransportStatsProvider(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(transport_mu_);
  transport_stats_ = std::move(provider);
}

std::string ServeEngine::StatsJson() const {
  // Envelope so load tests can verify which inference path they measured;
  // the metrics registry dump keeps its shape under "metrics". stats_version
  // marks the envelope schema: 1 was the bare registry dump, 2 nests it.
  std::string j = "{";
  j += "\"stats_version\":2,";
  j += "\"infer\":\"" + std::string(InferBackendName(opts_.infer_backend)) + "\",";
  j += "\"simd\":\"" + simd::FeatureString() + "\",";
  j += "\"artifact_version\":" + std::to_string(artifact_version()) + ",";
  j += "\"brownout\":" + std::string(brownout_active() ? "true" : "false") + ",";
  j += "\"fault\":" + fault::StatsJson() + ",";
  {
    // Additive key: v2 consumers that don't know "transport" skip it, so the
    // envelope schema version stays 2.
    std::lock_guard<std::mutex> lock(transport_mu_);
    if (transport_stats_) {
      j += "\"transport\":" + transport_stats_() + ",";
    }
  }
  j += "\"metrics\":" + obs::MetricsRegistry::Global().ToJson();
  j += "}";
  return j;
}

std::string ServeEngine::HealthJson() const {
  uint64_t requests = requests_.load(std::memory_order_relaxed);
  uint64_t errors = errors_.load(std::memory_order_relaxed);
  uint64_t hits = cache_hits_.load(std::memory_order_relaxed);
  uint64_t misses = cache_misses_.load(std::memory_order_relaxed);
  size_t depth = 0;
  bool running = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
    running = running_;
  }
  obs::SloTracker::Window slo = SloWindow();
  double hit_rate = hits + misses > 0
                        ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                        : 0.0;
  std::string j = "{";
  j += "\"status\":\"" + std::string(slo.degraded ? "degraded" : "ok") + "\",";
  j += "\"running\":" + std::string(running ? "true" : "false") + ",";
  j += "\"uptime_ms\":" + std::to_string(NowUs() / 1000) + ",";
  // Model generation (1 = boot-time bundle, +1 per successful hot reload).
  j += "\"artifact_version\":" + std::to_string(artifact_version()) + ",";
  j += "\"infer\":\"" + std::string(InferBackendName(opts_.infer_backend)) + "\",";
  j += "\"simd\":\"" + simd::FeatureString() + "\",";
  j += "\"queue_depth\":" + std::to_string(depth) + ",";
  j += "\"queue_capacity\":" + std::to_string(opts_.queue_capacity) + ",";
  j += "\"requests\":" + std::to_string(requests) + ",";
  j += "\"errors\":" + std::to_string(errors) + ",";
  j += "\"cache\":{\"entries\":" + std::to_string(cache_entries()) +
       ",\"capacity\":" + std::to_string(opts_.cache_capacity) +
       ",\"hits\":" + std::to_string(hits) + ",\"misses\":" + std::to_string(misses) +
       ",\"hit_rate\":" + obs::JsonNumber(hit_rate) + "},";
  j += "\"slo\":{\"window_requests\":" + std::to_string(slo.count) +
       ",\"p50_us\":" + obs::JsonNumber(slo.p50_us) +
       ",\"p90_us\":" + obs::JsonNumber(slo.p90_us) +
       ",\"p99_us\":" + obs::JsonNumber(slo.p99_us) +
       ",\"p99_threshold_us\":" + obs::JsonNumber(opts_.slo_p99_us) +
       ",\"error_rate\":" + obs::JsonNumber(slo.error_rate) +
       ",\"overrun_rate\":" + obs::JsonNumber(slo.overrun_rate) +
       ",\"degraded\":" + std::string(slo.degraded ? "true" : "false") + "},";
  j += "\"brownout\":" + std::string(brownout_active() ? "true" : "false") + ",";
  j += "\"shedded\":" + std::to_string(shedded()) + ",";
  j += "\"reload\":{\"ok\":" + std::to_string(reloads_ok()) +
       ",\"rejected\":" + std::to_string(reloads_rejected()) + "}";
  j += "}";
  return j;
}

std::string ServeEngine::DumpJson() const { return flight_.ToJson(); }

std::string ServeEngine::HandleControl(std::string_view payload) {
  ControlRequest req;
  std::string err;
  ControlResponse resp;
  if (!ParseControlRequest(payload, &req, &err)) {
    resp.ok = false;
    resp.error = err;
    return EncodeControlResponse(resp);
  }
  resp.op = req.op;
  resp.ok = true;
  switch (req.op) {
    case ControlOp::kStats:
      resp.json = StatsJson();
      break;
    case ControlOp::kHealth:
      resp.json = HealthJson();
      break;
    case ControlOp::kDump:
      resp.json = DumpJson();
      break;
    case ControlOp::kReload: {
      std::string path;
      {
        std::lock_guard<std::mutex> lock(model_mu_);
        path = reload_path_;
      }
      std::string why;
      if (path.empty()) {
        resp.ok = false;
        resp.error = "reload: no artifact path configured";
      } else if (!ReloadFromFile(path, &why)) {
        resp.ok = false;
        resp.error = "reload rejected: " + why;
      } else {
        resp.json = "{\"reloaded\":true,\"artifact_version\":" +
                    std::to_string(artifact_version()) + "}";
      }
      break;
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter("serve.control.requests").Add(1);
  }
  return EncodeControlResponse(resp);
}

}  // namespace serve
}  // namespace clara
