// The Clara insight-serving engine: a long-lived, in-process service that
// answers insight requests from a pre-trained bundle — the train-once /
// serve-many split.
//
// Architecture:
//   * Admission: Submit() answers a by-name request whose answer is cached
//     on the calling thread, at the cost of a table lookup, a cache probe
//     and a replay: the constructor keys every registry element once, so a
//     hit builds no Program and prints nothing. Everything else is queued
//     (inline source unparsed: its key needs a parse, a type check and a
//     print, which stay off the caller's thread).
//   * Bounded request queue with admission control: Submit() fails fast with
//     kQueueFull instead of queueing unboundedly, and answers kShutdown once
//     Stop() has begun so no request is ever abandoned. The queue, with its
//     admission control and queue.admit fault site, deadlines, the dispatch
//     fault site and brownout's shedding, applies only to queued work: a
//     by-name hit is answered even when the queue is full or the engine is
//     stopped.
//   * Per-request deadlines, checked when the dispatcher reaches the request:
//     one that expired while queued, the miss ahead of it included, is
//     answered with kDeadlineExceeded without being processed; one that
//     finishes late still succeeds but bumps the serve.deadline.overruns
//     counter.
//   * One request at a time: the dispatcher pops one queued request and
//     takes it from its deadline check to its answer (Process) before it pops
//     the next. It resolves the program and probes the cache again, so a
//     request whose key an earlier queued request just filled is a hit, not
//     a second analysis. A miss then goes through ClaraAnalyzer's pipeline:
//     one lowering into an NfInstance, then the analysis, which runs
//     PredictNf, classification and the NIC compile on the dispatcher while
//     two pool threads generate and interpret the profiling trace, and
//     reports PredictNf's window as the serve.infer stage. Requests are answered
//     in the order the dispatcher reaches them, errors and hits included;
//     per-connection order is the transport's job (the event loop's response
//     slots, the pipe loop's futures).
//   * LRU result cache (AnswerCache) keyed by (program content hash,
//     workload hash); a hit replays the cached encoded response body
//     byte-for-byte (only the echoed request id differs), skipping analysis
//     entirely. Admission and the dispatcher share one replay path.
//   * Hot artifact reload: the trained model lives in an immutable
//     ModelSnapshot behind a mutex-guarded shared_ptr. Reload() builds and
//     canary-validates a candidate entirely off the serving path, then
//     atomically swaps the pointer and clears the result cache. A miss pins
//     the snapshot after its cache probe, so a miss that found the cache
//     cleared is analyzed on the new model and its answer is cached; requests
//     in flight finish on the snapshot they pinned (they hold their own
//     shared_ptr), so no request ever sees a half-swapped model. The snapshot
//     a swap replaced is released on the dispatcher, by the next miss.
//     Rejected candidates (untrained, CRC-damaged, canary failure) leave the
//     old snapshot serving. Each successful swap bumps artifact_version().
//   * Brownout degradation: when the rolling SLO window flips degraded, a
//     hysteretic BrownoutPolicy puts the engine in brownout — admitted
//     deadline budgets are halved, the lowest-priority queued requests are
//     shed with kShedded + a retry_after_ms hint, cache misses from the
//     lowest priority class are shed instead of inferred (cache hits always
//     serve). Inference keeps the configured backend, so an answer computed
//     under brownout is the answer computed without it. Exit requires the
//     p99 to stay below the threshold for a hold period, preventing
//     enter/exit oscillation. The dispatcher feeds the policy before each
//     request it pops, at most once per 100 ms.
//   * Instrumented via src/obs: serve.queue.depth, serve.cache.{hits,misses}
//     (a hit where the answer is replayed, a miss where the probe fails; an
//     error before the probe is neither), serve.latency_us (p50/p99),
//     error/overrun counters, serve.reload.{ok,rejected},
//     serve.brownout.{entered,exited}, serve.shedded, plus the fault.*
//     injection counters.
//   * Telemetry plane: every request is traced end to end — per-stage spans
//     (queue wait, program resolution, inference, analysis, encode)
//     share the request's trace id in the global Chrome-trace sink, and the
//     response carries a per-stage latency breakdown. A rolling-window SLO
//     tracker (serve.slo.* gauges, --slo-p99-us gate) and a flight recorder
//     of recent requests feed the control-plane Stats/Health/Dump/Reload
//     frames, which HandleControl() answers immediately without queueing.
//
// Malformed requests, unknown elements, expired deadlines, engine shutdown,
// injected faults, and load shedding all degrade to structured error
// responses — the engine never crashes on bad input.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/analyzer.h"
#include "src/obs/flight.h"
#include "src/obs/slo.h"
#include "src/serve/brownout.h"
#include "src/serve/proto.h"

namespace clara {
namespace serve {

struct ServeOptions {
  NicConfig nic;
  size_t queue_capacity = 64;
  size_t cache_capacity = 128;
  // Packets interpreted per request for workload-specific profiling (smaller
  // than the offline default: serving favors latency).
  size_t profile_packets = 2000;
  // LSTM inference backend for prediction (src/ml/infer.h). kF64 is
  // the training-time double path; kF32 runs the packed SIMD engine.
  InferBackend infer_backend = InferBackend::kF64;
  // Rolling-window SLO: when slo_p99_us > 0 and the window p99 exceeds it,
  // Health reports status "degraded" (and serve.slo.degraded flips to 1).
  // The same threshold arms the brownout policy.
  double slo_p99_us = 0;
  int64_t slo_window_ms = 60000;
  // Flight recorder depth (most recent request records kept for Dump).
  size_t flight_capacity = 128;
  // Brownout knobs (active only when slo_p99_us > 0); see BrownoutPolicy.
  double brownout_exit_margin = 0.8;
  int64_t brownout_exit_hold_ms = 2000;
  uint32_t brownout_retry_after_ms = 50;
};

// The answer cache: an LRU map from a (program hash, workload hash) key to
// an encoded response body. Thread-safe. The map is keyed on the whole pair,
// so two keys whose Mix() collides still keep their own bodies.
class AnswerCache {
 public:
  // A capacity of 0 caches nothing.
  explicit AnswerCache(size_t capacity) : capacity_(capacity) {}

  // The cached body, or an empty string. A hit becomes the most recent entry.
  std::string Get(uint64_t program_hash, uint64_t workload_hash);
  // Stores or replaces the body for a key as the most recent entry, evicting
  // the least recent beyond capacity; returns the number of entries.
  size_t Put(uint64_t program_hash, uint64_t workload_hash, std::string body);
  void Clear();
  size_t size() const;

  // The hash that buckets a key (not its identity).
  static uint64_t Mix(uint64_t program_hash, uint64_t workload_hash) {
    return program_hash ^ (workload_hash * 0x9E3779B97F4A7C15ULL);
  }

 private:
  struct Key {
    uint64_t program;
    uint64_t workload;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const { return Mix(k.program, k.workload); }
  };
  struct Entry {
    Key key;
    std::string body;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
};

class ServeEngine {
 public:
  explicit ServeEngine(TrainedBundle bundle, ServeOptions opts = ServeOptions{});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Starts the dispatcher thread. Idempotent; re-arms submission after Stop().
  void Start();
  // Stops the dispatcher; queued-but-unprocessed requests are answered with
  // kShutdown, and so is every Submit() that would queue once shutdown has
  // begun — no request is ever left unanswered. Idempotent; also called by
  // the destructor.
  void Stop();

  // Asynchronous submission: `done` is called exactly once with the
  // response, errors included. It runs on the thread that answers: the
  // caller's, inside Submit(), for an admission answer (a by-name cache hit,
  // kQueueFull when the bounded queue is at capacity, kShedded when brownout
  // load-shedding rejects it, kShutdown when the engine is stopping, an
  // injected queue.admit fault), the dispatcher's otherwise. It must not
  // block. request_bytes is the wire payload size when the request arrived
  // over a transport (0 for in-process callers); it only feeds the flight
  // recorder.
  void Submit(InsightRequest req, uint32_t request_bytes,
              std::function<void(InsightResponse)> done);
  // The same, with the response delivered through a future.
  std::future<InsightResponse> Submit(InsightRequest req, uint32_t request_bytes = 0);

  // Synchronous convenience: Submit + wait. Works without Start(): runs the
  // admission step, then processes the request inline, as the dispatcher
  // would.
  InsightResponse Handle(InsightRequest req, uint32_t request_bytes = 0);

  // Decode a raw request payload, handle it, and encode the response —
  // transport front ends (pipe/socket) call this per frame.
  std::string HandlePayload(std::string_view payload);

  // Structured error response for transport-level failures (e.g. an
  // oversized frame that never yielded a payload).
  static std::string EncodeTransportError(ErrorCode code, const std::string& message);

  // ---- hot reload ----
  // Validates `bundle` (trained components + canary inference) and, on
  // success, atomically swaps it in as the serving model: the result cache
  // is cleared and artifact_version() is bumped. On failure returns false
  // with *error set and the previous model keeps serving untouched.
  // Thread-safe against concurrent request processing; misses in flight
  // finish on the snapshot they pinned after their cache probes.
  bool Reload(TrainedBundle bundle, std::string* error);
  // Reload from an artifact file (CRC-checked by the artifact store).
  bool ReloadFromFile(const std::string& path, std::string* error);
  // Path used by the control-plane kReload op (the daemon's --model-dir
  // bundle). Empty (default) makes control-plane reloads fail gracefully.
  void SetReloadPath(std::string path);

  // Monotonic model generation: 1 for the construction-time bundle, +1 per
  // successful Reload.
  uint64_t artifact_version() const {
    return artifact_version_.load(std::memory_order_acquire);
  }
  uint64_t reloads_ok() const { return reload_ok_.load(std::memory_order_relaxed); }
  uint64_t reloads_rejected() const {
    return reload_rejected_.load(std::memory_order_relaxed);
  }

  // ---- brownout ----
  bool brownout_active() const {
    return brownout_active_.load(std::memory_order_relaxed);
  }
  uint64_t shedded() const { return shedded_.load(std::memory_order_relaxed); }

  // ---- control plane (answered immediately, never queued) ----
  // A transport front end (the epoll event loop) can register a callback
  // rendering its connection gauges as one JSON object; StatsJson() embeds
  // the result under "transport". Unset (default) omits the key, keeping the
  // pipe envelope unchanged.
  void SetTransportStatsProvider(std::function<std::string()> provider);
  // Metrics registry snapshot as one JSON object.
  std::string StatsJson() const;
  // Queue depth, cache hit rate, artifact version, uptime, SLO window state.
  std::string HealthJson() const;
  // Flight-recorder contents (most recent requests, oldest first).
  std::string DumpJson() const;
  // Decode a control-request payload and encode the answer; undecodable
  // payloads come back as an ok=false control response.
  std::string HandleControl(std::string_view payload);

  bool running() const { return running_; }
  size_t cache_entries() const { return cache_.size(); }
  // Cache key program half of every registry element, by name: what a
  // by-name request is keyed on.
  const std::unordered_map<std::string, uint64_t>& element_keys() const {
    return element_keys_;
  }
  // The current snapshot's analyzer. In-process/test convenience: the
  // reference is only stable while no concurrent Reload() swaps the model.
  const ClaraAnalyzer& analyzer() const { return Model()->analyzer; }
  const obs::FlightRecorder& flight() const { return flight_; }
  // Rolling SLO window as of now (degraded flag included).
  obs::SloTracker::Window SloWindow() const;

 private:
  using Clock = std::chrono::steady_clock;

  // An immutable serving model: analyzer (with its inference backend, and
  // the packed engine built for it) + the generation it belongs to. Swapped
  // wholesale by Reload(); readers pin it with a shared_ptr copy.
  struct ModelSnapshot {
    ModelSnapshot(AnalyzerOptions opts, TrainedBundle bundle, InferBackend backend,
                  uint64_t ver);
    const ClaraAnalyzer analyzer;
    uint64_t version;  // Reload() stamps a candidate's before publishing it
  };

  // One named sub-interval of a request's lifetime, recorded while the
  // request is processed and emitted as a child trace span at fulfillment.
  struct StageSpan {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };

  struct Pending {
    InsightRequest req;
    std::function<void(InsightResponse)> done;
    Clock::time_point enqueued;
    Clock::time_point drained;   // when the dispatcher picked it up
    Clock::time_point deadline;  // only meaningful when has_deadline
    bool has_deadline = false;
    bool cache_hit = false;
    uint32_t request_bytes = 0;  // wire payload size (0 for in-process calls)
    std::vector<StageSpan> spans;
  };

  // A request as admitted now, its deadline budget halved under brownout.
  Pending NewPending(InsightRequest req, uint32_t request_bytes,
                     std::function<void(InsightResponse)> done);
  // Admission step: answers a by-name request whose answer is cached.
  // Returns false, touching nothing, when the request must be queued.
  bool AnswerAtAdmission(Pending& p);
  // Replays the cached answer for the key, if any, and fulfils p with it:
  // the one replay path of admission and dispatch, and where hits are
  // counted.
  bool ReplayCached(Pending& p, uint64_t program_hash, uint64_t workload_hash);

  void Loop();
  // Takes one queued request from its deadline check to its answer; the one
  // place a miss is counted.
  void Process(Pending& p);
  // Fulfills one pending slot: records latency/error/overrun metrics, the
  // SLO window sample and the flight record, attaches the latency breakdown
  // to the response, and emits the request's trace spans.
  void Fulfill(Pending& p, InsightResponse resp);

  // Pins the current model snapshot.
  std::shared_ptr<ModelSnapshot> Model() const;
  // Validates a candidate bundle off the serving path (trained() + canary
  // inference on a registry element); returns the ready snapshot or null.
  std::shared_ptr<ModelSnapshot> ValidateCandidate(TrainedBundle bundle,
                                                   std::string* error);

  // Dispatcher-only: feeds the SLO window into the brownout policy, sheds
  // the queue on entry, and mirrors the state into the atomic the other
  // threads read.
  void UpdateBrownout();
  // Removes the lowest-priority (newest among ties) entries from queue_
  // until its depth is <= target. Requires mu_; returns the victims for the
  // caller to fulfil with kShedded outside the lock.
  std::vector<Pending> ShedLocked(size_t target_depth);
  // Shed/rejection response carrying the brownout retry hint.
  InsightResponse SheddedResponse(uint64_t id, const std::string& why);

  // Microseconds since engine construction (the SLO/flight timeline).
  int64_t NowUs() const;

  // `version` is the model generation the body was computed with; stale
  // puts (an in-flight miss finishing after a reload) are dropped.
  void CachePut(uint64_t program_hash, uint64_t workload_hash, std::string body,
                uint64_t version);
  void CacheClear();

  ServeOptions opts_;
  // Built once by the constructor; read-only afterwards.
  std::unordered_map<std::string, uint64_t> element_keys_;

  // Serving model. model_mu_ guards only the pointer swap; the snapshot
  // itself never changes.
  mutable std::mutex model_mu_;
  std::shared_ptr<ModelSnapshot> model_;
  // The snapshot the last Reload() replaced. The next miss releases it on
  // the dispatcher: freed on the reloading thread, it ran concurrently with
  // cache hits and slowed enough of them to fail bench/serve_latency's
  // reload_during_load gate several times as often.
  std::shared_ptr<ModelSnapshot> retired_;  // guarded by model_mu_
  std::string reload_path_;  // guarded by model_mu_
  std::atomic<uint64_t> artifact_version_{1};
  std::atomic<uint64_t> reload_ok_{0};
  std::atomic<uint64_t> reload_rejected_{0};

  // Brownout plane. The policy object is dispatcher-owned; everyone else
  // reads the atomic mirrors.
  BrownoutPolicy brownout_;
  std::atomic<bool> brownout_active_{false};
  std::atomic<uint64_t> shedded_{0};
  int64_t last_brownout_us_ = 0;  // dispatcher-only throttle

  // Telemetry plane. Engine-local atomics shadow the obs counters, bumped at
  // the same points, so Health stays correct even when the global obs switch
  // is off and counts this engine alone (the registry is per process).
  Clock::time_point started_ = Clock::now();
  obs::SloTracker slo_;
  obs::FlightRecorder flight_;
  std::atomic<uint64_t> trace_id_gen_{1};
  std::atomic<int64_t> last_slo_export_us_{0};
  std::atomic<bool> flight_dumped_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};

  // Transport stats callback (see SetTransportStatsProvider).
  mutable std::mutex transport_mu_;
  std::function<std::string()> transport_stats_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool running_ = false;
  std::thread dispatcher_;

  AnswerCache cache_;
};

}  // namespace serve
}  // namespace clara

#endif  // SRC_SERVE_SERVER_H_
