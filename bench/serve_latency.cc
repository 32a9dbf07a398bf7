// Serving-path latency: cold in-process training vs warm artifact loading,
// and serve-cache hits vs misses.
//
// The train-once/serve-many split only earns its keep if (a) loading a
// bundle is much cheaper than retraining and (b) a cache hit is much cheaper
// than a full analysis. This bench measures both and *enforces* them: it
// exits nonzero if the warm path is not faster, so the tier-1 ctest run
// gates the speedup directly.
//
// JSON rows (BENCH_serve_latency.json) report the speedups capped at 5x:
// the raw ratios are enormous (seconds vs microseconds) and noisy, while
// "at least 5x" is stable across machines, which keeps tools/bench_diff.py
// meaningful as a regression gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/analyzer.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/serve/artifact.h"
#include "src/serve/proto.h"
#include "src/serve/server.h"

namespace clara {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

AnalyzerOptions SmallOptions() {
  AnalyzerOptions options;
  options.predictor.train_programs = 24;
  options.predictor.lstm.epochs = 2;
  options.scaleout.train_programs = 16;
  options.colocation.train_nfs = 8;
  options.colocation.train_groups = 16;
  options.algo_corpus_per_class = 6;
  return options;
}

serve::InsightRequest Request(uint64_t id, const char* element) {
  serve::InsightRequest req;
  req.id = id;
  req.element = element;
  req.workload = WorkloadSpec::SmallFlows();
  return req;
}

int Run() {
  // Cold path: full in-process training (the small corpus used by CI).
  Clock::time_point t0 = Clock::now();
  ClaraAnalyzer analyzer(SmallOptions());
  {
    std::vector<Program> corpus;
    for (const auto& info : ElementRegistry()) {
      corpus.push_back(info.make());
    }
    std::vector<const Program*> ptrs;
    for (const auto& p : corpus) {
      ptrs.push_back(&p);
    }
    analyzer.Train(ptrs);
  }
  double cold_train_ms = MsSince(t0);

  // Warm path: deserialize the artifact and build an analyzer around it.
  std::string artifact = serve::SerializeBundle(analyzer.ExportTrained());
  t0 = Clock::now();
  TrainedBundle bundle;
  std::string error;
  if (!serve::DeserializeBundle(artifact, &bundle, &error)) {
    std::fprintf(stderr, "serve_latency: %s\n", error.c_str());
    return 1;
  }
  serve::ServeOptions opts;
  opts.profile_packets = 400;
  serve::ServeEngine engine(std::move(bundle), opts);
  double warm_load_ms = MsSince(t0);

  // Cache miss vs hit: first request analyzes, repeats replay cached bytes.
  t0 = Clock::now();
  serve::InsightResponse miss = engine.Handle(Request(1, "aggcounter"));
  double miss_ms = MsSince(t0);
  if (miss.error != serve::ErrorCode::kOk) {
    std::fprintf(stderr, "serve_latency: miss failed: %s\n", miss.error_message.c_str());
    return 1;
  }
  // Cache hits are single-digit microseconds, so a single timed loop is
  // dominated by scheduler noise. Measure traced and untraced hits in
  // interleaved rounds (so machine-load drift hits both equally) and take
  // the per-mode minimum: the ratio of two best-of runs is far more stable
  // than the ratio of two single runs.
  constexpr int kHits = 200;
  constexpr int kRounds = 5;
  uint64_t next_id = 2;
  obs::TraceSink trace_sink;
  auto hit_round_ms = [&](bool traced) -> double {
    // Tracing on means the full telemetry plane: global trace sink attached,
    // per-request trace ids minted, per-stage spans and breakdowns recorded.
    obs::SetGlobalTrace(traced ? &trace_sink : nullptr);
    obs::SetEnabled(traced);
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kHits; ++i) {
      serve::InsightRequest req = Request(next_id, "aggcounter");
      if (traced) {
        req.trace_id = next_id;
      }
      ++next_id;
      serve::InsightResponse hit = engine.Handle(std::move(req));
      if (hit.error != serve::ErrorCode::kOk) {
        std::fprintf(stderr, "serve_latency: hit failed: %s\n",
                     hit.error_message.c_str());
        return -1;
      }
    }
    double ms = MsSince(start) / kHits;
    obs::SetEnabled(false);
    obs::SetGlobalTrace(nullptr);
    return ms;
  };
  double hit_ms = -1;
  double traced_hit_ms = -1;
  for (int round = 0; round < kRounds + 1; ++round) {
    double plain = hit_round_ms(/*traced=*/false);
    double traced = hit_round_ms(/*traced=*/true);
    if (plain < 0 || traced < 0) {
      return 1;
    }
    if (round == 0) {
      continue;  // warmup round: caches, allocator, branch predictors
    }
    if (hit_ms < 0 || plain < hit_ms) {
      hit_ms = plain;
    }
    if (traced_hit_ms < 0 || traced < traced_hit_ms) {
      traced_hit_ms = traced;
    }
  }

  // WMAPE parity of the f32 SIMD engine against the f64 path, on the
  // cold-trained predictor's own dataset (the loaded bundle does not
  // persist it). Gate: f32 must stay within 1% relative of f64.
  const SeqDataset& train_set = analyzer.predictor().dataset();
  auto wmape = [&](const LstmRegressor& model) {
    double abs_err = 0, abs_y = 0;
    for (const auto& ex : train_set.examples) {
      abs_err += std::abs(model.Predict(ex.tokens) - ex.target);
      abs_y += std::abs(ex.target);
    }
    return abs_y > 0 ? abs_err / abs_y : 0;
  };
  LstmRegressor lstm32 = analyzer.predictor().model();
  lstm32.SetInferBackend(InferBackend::kF32);
  double wmape64 = wmape(analyzer.predictor().model());
  double wmape32 = wmape(lstm32);

  // ---- hot reload under load ----
  //
  // Swapping the model snapshot mid-traffic must not disturb the serving hot
  // path: one Reload() fires from another thread halfway through a round of
  // cache-hit requests, and the round's p99 must stay within 5% of an
  // undisturbed round. 400 requests per round keeps the single post-reload
  // cache repopulation (a full analysis, by design — the new model must not
  // serve the old model's cached bytes) in the top 1%, outside p99; what the
  // gate sees is pure snapshot-pointer contention.
  constexpr int kReloadRoundHits = 400;
  auto reload_round = [&](bool with_reload, std::vector<double>* lat_us) -> bool {
    std::atomic<bool> go{false};
    std::thread reloader;
    TrainedBundle fresh;
    if (with_reload) {
      if (!serve::DeserializeBundle(artifact, &fresh, &error)) {
        std::fprintf(stderr, "serve_latency: %s\n", error.c_str());
        return false;
      }
      reloader = std::thread([&] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::string rerr;
        if (!engine.Reload(std::move(fresh), &rerr)) {
          std::fprintf(stderr, "serve_latency: reload under load failed: %s\n",
                       rerr.c_str());
        }
      });
    }
    bool ok = true;
    for (int i = 0; i < kReloadRoundHits; ++i) {
      if (i == kReloadRoundHits / 2) {
        go.store(true, std::memory_order_release);
      }
      Clock::time_point start = Clock::now();
      serve::InsightResponse hit = engine.Handle(Request(next_id++, "aggcounter"));
      double us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
      if (lat_us != nullptr) {
        lat_us->push_back(us);
      }
      if (hit.error != serve::ErrorCode::kOk) {
        std::fprintf(stderr, "serve_latency: hit during reload failed: %s\n",
                     hit.error_message.c_str());
        ok = false;
        break;
      }
    }
    go.store(true, std::memory_order_release);
    if (reloader.joinable()) {
      reloader.join();
    }
    return ok;
  };
  // Per-round p99 at the ~10us cache-hit scale is dominated by scheduler
  // jitter, so pool all samples per mode across interleaved rounds (drift
  // hits both modes equally) and compare pooled p99s. The comparison gets a
  // few attempts: the gate asserts reloads CAN run without disturbing the
  // hot path, and one descheduling storm must not fail the build.
  constexpr int kReloadRounds = 10;
  double plain_p99_us = -1, reload_p99_us = -1, reload_p99_ratio = 10.0;
  auto pooled_p99 = [](std::vector<double>* pool) -> double {
    std::sort(pool->begin(), pool->end());
    return (*pool)[static_cast<size_t>(static_cast<double>(pool->size()) * 0.99)];
  };
  for (int attempt = 0; attempt < 3 && reload_p99_ratio > 1.05; ++attempt) {
    std::vector<double> plain_pool, reload_pool;
    plain_pool.reserve(kReloadRounds * kReloadRoundHits);
    reload_pool.reserve(kReloadRounds * kReloadRoundHits);
    if (!reload_round(false, nullptr) || !reload_round(true, nullptr)) {  // warmup
      return 1;
    }
    for (int round = 0; round < kReloadRounds; ++round) {
      if (!reload_round(false, &plain_pool) || !reload_round(true, &reload_pool)) {
        return 1;
      }
    }
    plain_p99_us = pooled_p99(&plain_pool);
    reload_p99_us = pooled_p99(&reload_pool);
    reload_p99_ratio = plain_p99_us > 0 ? reload_p99_us / plain_p99_us : 1.0;
  }
  double reload_p99_ratio_clamped = std::min(std::max(reload_p99_ratio, 1.0), 1.05);

  double train_speedup = warm_load_ms > 0 ? cold_train_ms / warm_load_ms : 0;
  double cache_speedup = hit_ms > 0 ? miss_ms / hit_ms : 0;
  double tracing_ratio = hit_ms > 0 ? traced_hit_ms / hit_ms : 1.0;
  double tracing_ratio_clamped = std::min(std::max(tracing_ratio, 1.0), 1.5);
  std::printf("%-28s %12s %12s %10s\n", "phase", "cold/miss ms", "warm/hit ms", "speedup");
  std::printf("%-28s %12.2f %12.2f %9.1fx\n", "train vs artifact load", cold_train_ms,
              warm_load_ms, train_speedup);
  std::printf("%-28s %12.3f %12.3f %9.1fx\n", "analysis vs cache hit", miss_ms, hit_ms,
              cache_speedup);
  std::printf("%-28s %12.3f %12.3f %9.2fx\n", "cache hit with tracing on", hit_ms,
              traced_hit_ms, tracing_ratio);
  std::printf("%-28s %12.4f %12.4f\n", "train WMAPE f64 vs f32", wmape64, wmape32);
  std::printf("%-28s %12.3f %12.3f %9.2fx\n", "cache-hit p99 during reload",
              plain_p99_us / 1000.0, reload_p99_us / 1000.0, reload_p99_ratio);

  JsonRows json("serve_latency");
  json.Row()
      .Str("phase", "cold_train_vs_warm_load")
      .Num("speedup_capped", std::min(train_speedup, 5.0));
  json.Row()
      .Str("phase", "cache_hit_vs_miss")
      .Num("speedup_capped", std::min(cache_speedup, 5.0));
  json.Row()
      .Str("phase", "tracing_on_vs_off")
      .Num("tracing_overhead_latency_ratio", tracing_ratio_clamped);
  json.Row()
      .Str("phase", "reload_during_load")
      .Num("hot_reload_p99_latency_ratio", reload_p99_ratio_clamped);

  // The acceptance gate: warm serving must beat cold training, cache hits
  // must beat full analysis, and full tracing must not blow up the warm path.
  if (train_speedup <= 1.0 || cache_speedup <= 1.0) {
    std::fprintf(stderr, "serve_latency: warm path is not faster (train %.1fx, cache %.1fx)\n",
                 train_speedup, cache_speedup);
    return 1;
  }
  if (tracing_ratio > 1.5) {
    std::fprintf(stderr, "serve_latency: tracing overhead too high (%.2fx warm hit latency)\n",
                 tracing_ratio);
    return 1;
  }
  if (reload_p99_ratio > 1.05) {
    std::fprintf(stderr,
                 "serve_latency: hot reload disturbs the serving path "
                 "(p99 ratio %.3fx, gate 1.05x)\n",
                 reload_p99_ratio);
    return 1;
  }
  if (wmape32 > wmape64 * 1.01 + 1e-9) {
    std::fprintf(stderr,
                 "serve_latency: f32 WMAPE degraded more than 1%% relative "
                 "(f64 %.6f, f32 %.6f)\n",
                 wmape64, wmape32);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace clara

int main(int argc, char** argv) {
  clara::bench::InitBenchThreads(argc, argv);
  return clara::bench::Run();
}
