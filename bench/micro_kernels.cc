// google-benchmark microbenchmarks for the library's hot kernels: how fast
// is the tooling itself (lowering, compilation, interpretation, inference,
// solving)? Useful when extending Clara — none of the paper's figures depend
// on these numbers.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>

#include "bench/bench_util.h"
#include "src/core/predictor.h"
#include "src/elements/elements.h"
#include "src/ir/vocab.h"
#include "src/lang/interp.h"
#include "src/lang/lower.h"
#include "src/ml/automl.h"
#include "src/ml/kernels.h"
#include "src/ml/kernels_f32.h"
#include "src/ml/lstm.h"
#include "src/ml/simd.h"
#include "src/nic/backend.h"
#include "src/nic/perf_model.h"
#include "src/solver/assignment_ilp.h"
#include "src/util/parallel.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

void BM_LowerMazuNat(benchmark::State& state) {
  for (auto _ : state) {
    Program p = MakeMazuNat();
    LowerResult lr = LowerProgram(p);
    benchmark::DoNotOptimize(lr.module.functions[0].NumInstructions());
  }
}
BENCHMARK(BM_LowerMazuNat);

void BM_CompileToNicMazuNat(benchmark::State& state) {
  Program p = MakeMazuNat();
  LowerResult lr = LowerProgram(p);
  for (auto _ : state) {
    NicProgram nic = CompileToNic(lr.module);
    benchmark::DoNotOptimize(nic.Totals().compute);
  }
}
BENCHMARK(BM_CompileToNicMazuNat);

void BM_InterpretPacket(benchmark::State& state) {
  NfInstance nf(MakeMazuNat());
  Trace trace = GenerateTrace(WorkloadSpec::SmallFlows(), 4096);
  size_t i = 0;
  for (auto _ : state) {
    Packet pkt = trace.packets[i++ & 4095];
    pkt.in_port = 0;
    nf.Process(pkt);
    benchmark::DoNotOptimize(pkt.verdict);
  }
}
BENCHMARK(BM_InterpretPacket);

void BM_SimMapFind(benchmark::State& state) {
  StateDecl d;
  d.name = "m";
  d.kind = StateKind::kMap;
  d.key_fields = {Type::kI32, Type::kI32};
  d.value_fields = {{"v", Type::kI32}};
  d.capacity = 8192;
  d.impl = MapImpl::kNicFixedBucket;
  SimMap m(d);
  for (uint64_t k = 1; k <= 4096; ++k) {
    m.Insert({k, k + 1}, {k});
  }
  uint64_t k = 1;
  std::vector<uint64_t> out;
  for (auto _ : state) {
    auto r = m.Find({k, k + 1}, &out);
    benchmark::DoNotOptimize(r.found);
    k = k % 4096 + 1;
  }
}
BENCHMARK(BM_SimMapFind);

void BM_LstmInference(benchmark::State& state) {
  SeqDataset data;
  data.vocab = 64;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    SeqExample ex;
    for (int t = 0; t < 24; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(64)));
    }
    ex.target = static_cast<double>(rng.NextBounded(40));
    data.examples.push_back(std::move(ex));
  }
  LstmOptions opts;
  opts.epochs = 2;
  opts.hidden = 32;
  LstmRegressor lstm(opts);
  lstm.Fit(data);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Predict(data.examples[i++ % 100].tokens));
  }
}
BENCHMARK(BM_LstmInference);

// The LSTM-recurrence GEMV shape (4H x H rows at H=32), timed per backend
// and kernel table: the dominant kernel of the LSTM forward pass in training
// and in f64 serving.
constexpr int kGemvRows = 128, kGemvCols = 32;

struct GemvFixture {
  std::vector<double> m64, x64, bias64, y64;
  std::vector<float> m32, x32, bias32, y32;

  GemvFixture() {
    Rng rng(21);
    m64.resize(kGemvRows * kGemvCols);
    x64.resize(kGemvCols);
    bias64.resize(kGemvRows);
    y64.resize(kGemvRows);
    for (auto& v : m64) v = 2 * rng.NextDouble() - 1;
    for (auto& v : x64) v = 2 * rng.NextDouble() - 1;
    for (auto& v : bias64) v = rng.NextDouble();
    m32.assign(m64.begin(), m64.end());
    x32.assign(x64.begin(), x64.end());
    bias32.assign(bias64.begin(), bias64.end());
    y32.resize(kGemvRows);
  }

  void RunF64(const kernels::F64Kernels& k) {
    k.gemv_bias(y64.data(), m64.data(), x64.data(), bias64.data(), kGemvRows, kGemvCols);
    benchmark::DoNotOptimize(y64[0]);
  }
  void RunF32(const kernels::F32Kernels& k) {
    k.gemv_bias(y32.data(), m32.data(), kGemvCols, x32.data(), bias32.data(), kGemvRows,
                kGemvCols);
    benchmark::DoNotOptimize(y32[0]);
  }
};

// Scalar-vs-AVX2 pairs for the f64 training kernels: argument simd:0 times
// the scalar table, simd:1 the AVX2 table (skipped where it is unavailable).
const kernels::F64Kernels* F64Table(benchmark::State& state) {
  const kernels::F64Kernels* k =
      state.range(0) != 0 ? kernels::Avx2F64Kernels() : &kernels::ScalarF64Kernels();
  if (k == nullptr) {
    state.SkipWithError("AVX2 kernels unavailable");
  }
  return k;
}

void BM_GemvF64(benchmark::State& state) {
  const kernels::F64Kernels* k = F64Table(state);
  if (k == nullptr) {
    return;
  }
  GemvFixture fx;
  for (auto _ : state) {
    fx.RunF64(*k);
  }
}
BENCHMARK(BM_GemvF64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_GemvF32Scalar(benchmark::State& state) {
  GemvFixture fx;
  for (auto _ : state) {
    fx.RunF32(kernels::ScalarF32Kernels());
  }
}
BENCHMARK(BM_GemvF32Scalar);

void BM_GemvF32Simd(benchmark::State& state) {
  if (kernels::Avx2F32Kernels() == nullptr) {
    state.SkipWithError("AVX2 kernels unavailable");
    return;
  }
  GemvFixture fx;
  for (auto _ : state) {
    fx.RunF32(*kernels::Avx2F32Kernels());
  }
}
BENCHMARK(BM_GemvF32Simd);

void BM_LstmInferenceF32(benchmark::State& state) {
  SeqDataset data;
  data.vocab = 64;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    SeqExample ex;
    for (int t = 0; t < 24; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(64)));
    }
    ex.target = static_cast<double>(rng.NextBounded(40));
    data.examples.push_back(std::move(ex));
  }
  LstmOptions opts;
  opts.epochs = 2;
  opts.hidden = 32;
  LstmRegressor lstm(opts);
  lstm.Fit(data);
  lstm.SetInferBackend(InferBackend::kF32);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Predict(data.examples[i++ % 100].tokens));
  }
}
BENCHMARK(BM_LstmInferenceF32);

void BM_PerfModelEvaluate(benchmark::State& state) {
  PerfModel model;
  NfDemand d;
  d.compute_cycles = 300;
  d.pkt_accesses = 3;
  StateDemand s;
  s.accesses_per_pkt = 4;
  s.words_per_access = 3;
  s.region = MemRegion::kEmem;
  s.cache_hit_rate = 0.7;
  d.state.push_back(s);
  int cores = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(d, cores).throughput_mpps);
    cores = cores % 60 + 1;
  }
}
BENCHMARK(BM_PerfModelEvaluate);

void BM_IlpSolve(benchmark::State& state) {
  AssignmentProblem p;
  Rng rng(7);
  p.capacity = {1000, 4000, 16000, 1u << 30};
  for (int i = 0; i < 8; ++i) {
    p.size.push_back(100 + rng.NextBounded(3000));
    std::vector<double> row;
    for (int j = 0; j < 4; ++j) {
      row.push_back(1.0 + static_cast<double>(rng.NextBounded(500)));
    }
    p.cost.push_back(row);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(p).objective);
  }
}
BENCHMARK(BM_IlpSolve);

void BM_KernelDot(benchmark::State& state) {
  const kernels::F64Kernels* k = F64Table(state);
  if (k == nullptr) {
    return;
  }
  std::vector<double> a(1024), b(1024);
  Rng rng(3);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble();
    b[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->dot(a.data(), b.data(), static_cast<int>(a.size())));
  }
}
BENCHMARK(BM_KernelDot)->ArgName("simd")->Arg(0)->Arg(1);

// One BPTT row update at the LSTM's hidden width (H = 32).
void BM_KernelAxpyDual(benchmark::State& state) {
  const kernels::F64Kernels* k = F64Table(state);
  if (k == nullptr) {
    return;
  }
  constexpr int kN = 32;
  std::vector<double> g(kN), dh(kN), w(kN), h(kN);
  Rng rng(5);
  for (int i = 0; i < kN; ++i) {
    w[i] = rng.NextDouble();
    h[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    k->axpy_dual(g.data(), dh.data(), w.data(), h.data(), 0.25, kN);
    benchmark::DoNotOptimize(g.data());
    benchmark::DoNotOptimize(dh.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelAxpyDual)->ArgName("simd")->Arg(0)->Arg(1);

// One Adam step over the default predictor's 20,897 parameters, past the
// 356th step (c1 == 1.0), as in 97% of a default fit's steps.
void BM_KernelAdamStep(benchmark::State& state) {
  const kernels::F64Kernels* k = F64Table(state);
  if (k == nullptr) {
    return;
  }
  constexpr int kN = 20897;
  std::vector<double> w(kN), m(kN), v(kN), g(kN);
  Rng rng(6);
  for (int i = 0; i < kN; ++i) {
    w[i] = rng.NextGaussian(0.15);
    g[i] = rng.NextGaussian(0.01);
  }
  const double t = 1000;
  const double c1 = 1.0 - std::pow(kernels::kAdamBeta1, t);
  const double c2 = 1.0 - std::pow(kernels::kAdamBeta2, t);
  for (auto _ : state) {
    k->adam(w.data(), m.data(), v.data(), g.data(), kN, 0.004, c1, c2);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelAdamStep)->ArgName("simd")->Arg(0)->Arg(1);

void BM_VocabularyEncode(benchmark::State& state) {
  Program p = MakeMazuNat();
  LowerResult lr = LowerProgram(p);
  Vocabulary vocab;
  for (auto _ : state) {
    for (const auto& blk : lr.module.functions[0].blocks) {
      benchmark::DoNotOptimize(vocab.Encode(blk, lr.module).size());
    }
  }
}
BENCHMARK(BM_VocabularyEncode);

}  // namespace

// Serial-vs-parallel wall-time rows for the bench trajectory: the same
// training workloads at 1 thread and at the pool's configured width, written
// to BENCH_micro_kernels.json when CLARA_BENCH_JSON_DIR is set. On a
// single-core host the two columns coincide; tools/bench_diff.py compares
// rows across runs.
void EmitParallelComparison() {
  bench::JsonRows rows("micro_kernels");
  if (!rows.enabled()) {
    return;
  }
  auto time_ms = [](auto&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  SeqDataset seq;
  seq.vocab = 64;
  Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    SeqExample ex;
    for (int t = 0; t < 24; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(64)));
    }
    ex.target = static_cast<double>(rng.NextBounded(40));
    seq.examples.push_back(std::move(ex));
  }
  TabularDataset tab;
  for (int i = 0; i < 160; ++i) {
    FeatureVec x;
    for (int j = 0; j < 6; ++j) {
      x.push_back(rng.NextDouble());
    }
    tab.y.push_back(x[0] * 3 + x[1] - x[2] * x[3]);
    tab.x.push_back(std::move(x));
  }
  PredictorOptions popts;
  popts.train_programs = 40;  // reduced corpus: a trajectory row, not a figure
  popts.lstm.epochs = 2;
  popts.lstm.hidden = 16;
  popts.lstm.batch_size = 8;
  popts.synth.profile = bench::CorpusProfile(bench::ElementCorpus());
  int wide = NumThreads();
  for (int threads : {1, wide}) {
    SetNumThreads(threads);
    LstmOptions opts;
    opts.epochs = 4;
    opts.hidden = 24;
    opts.batch_size = 8;
    double lstm_ms = time_ms([&] {
      LstmRegressor lstm(opts);
      lstm.Fit(seq);
    });
    double automl_ms = time_ms([&] { AutoMlRegression(tab); });
    double predictor_ms = time_ms([&] {
      InstructionPredictor pred(popts);
      pred.Train();
    });
    rows.Row().Str("phase", "lstm_fit").Num("threads", threads).Num("ms", lstm_ms);
    rows.Row().Str("phase", "automl_fit").Num("threads", threads).Num("ms", automl_ms);
    rows.Row().Str("phase", "predictor_train").Num("threads", threads).Num("ms", predictor_ms);
  }
  SetNumThreads(wide);

  // GEMV backend comparison on the LSTM-recurrence shape: the dispatched
  // f32 table against the scalar f64 table by name (the dispatched f64 table
  // is AVX2 on the same hosts), as the row's variant says. The JSON rows
  // carry the speedup capped at 2.5 so bench_diff comparisons stay stable
  // across machines with different SIMD width / memory systems; the
  // uncapped measurement is printed for humans.
  GemvFixture fx;
  auto best_of = [&](auto&& run) {
    constexpr int kIters = 20000;
    double best = 1e300;
    for (int round = 0; round < 5; ++round) {
      auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        run();
      }
      double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      best = best < ms ? best : ms;
    }
    return best;
  };
  double f64_ms = best_of([&] { fx.RunF64(kernels::ScalarF64Kernels()); });
  double f32_ms = best_of([&] { fx.RunF32(kernels::ActiveF32Kernels()); });
  double f32_speedup = f32_ms > 0 ? f64_ms / f32_ms : 0;
  std::printf("gemv %dx%d (%s): f64 scalar %.3fms  f32 %.3fms (%.2fx)\n", kGemvRows, kGemvCols,
              kernels::ActiveF32Kernels().name, f64_ms, f32_ms, f32_speedup);
  auto cap = [](double v) { return v < 2.5 ? v : 2.5; };
  rows.Row()
      .Str("phase", "gemv_speedup")
      .Str("variant", "f32_simd_vs_f64_scalar")
      .Num("speedup_capped", cap(f32_speedup));
}

}  // namespace clara

int main(int argc, char** argv) {
  clara::bench::InitBenchThreads(argc, argv);
  // Drop --threads= before handing argv to google-benchmark: it rejects
  // flags it does not recognize.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) != 0) {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  clara::EmitParallelComparison();
  return 0;
}
