// Tests for the parallel substrate (src/util/parallel.h): pool correctness,
// exception propagation, nested-loop safety, and the determinism contract —
// training results and insights must be bit-identical at any thread count.
#include "src/util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/core/predictor.h"
#include "src/elements/elements.h"
#include "src/lang/lower.h"
#include "src/ml/automl.h"
#include "src/ml/lstm.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

// Restores the configured thread count on scope exit so tests cannot leak
// their thread setting into later tests in the same binary.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(NumThreads()) {}
  ~ThreadGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, GrainLargerThanRangeRunsSerially) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::vector<int> order;
  // A single chunk must run inline on the caller, in index order.
  ParallelForGrain(64, 1000, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, ZeroIterationsIsANoop) {
  ParallelFor(0, [&](size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForTest, PropagatesFirstException) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelForGrain(100, 1,
                       [&](size_t i) {
                         ran.fetch_add(1);
                         if (i == 37) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool must stay usable after a throwing loop.
  std::atomic<size_t> sum{0};
  ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100u * 99u / 2);
}

TEST(ParallelForTest, SerialPathPropagatesException) {
  ThreadGuard guard;
  SetNumThreads(1);
  EXPECT_THROW(ParallelFor(10,
                           [&](size_t i) {
                             if (i == 3) {
                               throw std::runtime_error("boom");
                             }
                           }),
               std::runtime_error);
  // The region flag must be restored even on the throwing path.
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForTest, NestedLoopsRunInlineWithoutDeadlock) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr size_t kOuter = 32, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> saw_region{0};
  ParallelForGrain(kOuter, 1, [&](size_t i) {
    if (InParallelRegion()) {
      saw_region.fetch_add(1);
    }
    ParallelFor(kInner, [&](size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  EXPECT_EQ(saw_region.load(), static_cast<int>(kOuter));
  for (size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "slot " << k;
  }
  EXPECT_FALSE(InParallelRegion());
}

// Analyze keeps its allocating stages in chunk 0 so they stay in the
// caller's malloc arena: a helper that wakes fast must never take chunk 0.
// Helpers that slept a while are the ones a wake-up lets run first, so each
// round starts after a short sleep.
TEST(ParallelForTest, CallerAlwaysRunsChunkZero) {
  ThreadGuard guard;
  SetNumThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  int elsewhere = 0;
  for (int round = 0; round < 300; ++round) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    std::thread::id ran_chunk0;
    ParallelForGrain(3, 1, [&](size_t i) {
      if (i == 0) {
        ran_chunk0 = std::this_thread::get_id();
      }
    });
    elsewhere += ran_chunk0 != caller;
  }
  EXPECT_EQ(elsewhere, 0);
}

TEST(ParallelForTest, RunInlineKeepsNestedLoopsOnTheCaller) {
  ThreadGuard guard;
  SetNumThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  RunInline([&] {
    EXPECT_TRUE(InParallelRegion());
    ParallelForGrain(64, 1, [&](size_t) {
      if (std::this_thread::get_id() != caller) {
        elsewhere.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(elsewhere.load(), 0);
  EXPECT_FALSE(InParallelRegion());
  // The region mark is restored on the throwing path too.
  EXPECT_THROW(RunInline([] { throw std::runtime_error("boom"); }), std::runtime_error);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadGuard guard;
  SetNumThreads(8);
  std::vector<int> out = ParallelMap<int>(1000, [](size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelConfigTest, SetNumThreadsRoundTrips) {
  ThreadGuard guard;
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(-5);  // clamped
  EXPECT_EQ(NumThreads(), 1);
  EXPECT_GE(HardwareThreads(), 1);
}

SeqDataset MakeSeqDataset() {
  SeqDataset data;
  data.vocab = 48;
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    SeqExample ex;
    int len = 4 + static_cast<int>(rng.NextBounded(20));
    for (int t = 0; t < len; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(48)));
    }
    ex.target = static_cast<double>(5 + rng.NextBounded(40));
    data.examples.push_back(std::move(ex));
  }
  return data;
}

TEST(DeterminismTest, LstmPredictionsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  SeqDataset data = MakeSeqDataset();
  LstmOptions opts;
  opts.epochs = 3;
  opts.hidden = 16;
  opts.batch_size = 8;  // minibatch path: parallel per-example gradients
  auto train_and_predict = [&](int threads) {
    SetNumThreads(threads);
    LstmRegressor lstm(opts);
    lstm.Fit(data);
    std::vector<double> preds;
    for (const auto& ex : data.examples) {
      preds.push_back(lstm.Predict(ex.tokens));
    }
    return preds;
  };
  std::vector<double> p1 = train_and_predict(1);
  std::vector<double> p2 = train_and_predict(2);
  std::vector<double> p8 = train_and_predict(8);
  ASSERT_EQ(p1.size(), p2.size());
  ASSERT_EQ(p1.size(), p8.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    // memcmp, not EXPECT_DOUBLE_EQ: the contract is bit-identical floats.
    ASSERT_EQ(std::memcmp(&p1[i], &p2[i], sizeof(double)), 0) << "example " << i;
    ASSERT_EQ(std::memcmp(&p1[i], &p8[i], sizeof(double)), 0) << "example " << i;
  }
}

TEST(DeterminismTest, AutoMlBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  TabularDataset data;
  Rng rng(13);
  for (int i = 0; i < 120; ++i) {
    FeatureVec x;
    for (int j = 0; j < 5; ++j) {
      x.push_back(rng.NextDouble() * 10);
    }
    data.y.push_back(2 * x[0] - x[1] + 0.5 * x[2] * x[3] + rng.NextGaussian(0.1));
    data.x.push_back(std::move(x));
  }
  FeatureVec probe{1.0, 2.0, 3.0, 4.0, 5.0};
  auto run = [&](int threads) {
    SetNumThreads(threads);
    AutoMlReport report;
    auto model = AutoMlRegression(data, &report);
    return std::make_pair(report, model->Predict(probe));
  };
  auto [r1, y1] = run(1);
  auto [r2, y2] = run(2);
  auto [r8, y8] = run(8);
  EXPECT_EQ(r1.chosen, r2.chosen);
  EXPECT_EQ(r1.chosen, r8.chosen);
  EXPECT_EQ(std::memcmp(&r1.cv_error, &r2.cv_error, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&r1.cv_error, &r8.cv_error, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&y1, &y2, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&y1, &y8, sizeof(double)), 0);
}

// PredictNf predicts an NF's blocks on the shared pool. Each thread count,
// on both inference backends, must give the serial per-block predictions
// and their block-order sums, bit for bit.
TEST(DeterminismTest, PredictNfBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  PredictorOptions opts;
  opts.train_programs = 24;
  opts.lstm.epochs = 2;
  opts.lstm.hidden = 16;
  opts.synth.profile = UniformProfile();
  InstructionPredictor predictor(opts);
  predictor.Train();
  std::vector<Module> modules;
  for (const char* name : {"aggcounter", "mazunat", "iplookup", "wepdecap"}) {
    Program p = MakeElementByName(name);
    LowerResult lr = LowerProgram(p);
    ASSERT_TRUE(lr.ok) << name << ": " << lr.error;
    modules.push_back(std::move(lr.module));
  }
  auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; };
  for (InferBackend backend : {InferBackend::kF64, InferBackend::kF32}) {
    predictor.SetInferBackend(backend);
    for (const Module& m : modules) {
      SetNumThreads(1);
      std::vector<BlockPrediction> serial;
      double total_compute = 0;
      uint32_t total_mem_state = 0;
      for (const BasicBlock& blk : m.functions[0].blocks) {
        serial.push_back(predictor.PredictBlock(m, blk));
        total_compute += serial.back().compute;
        total_mem_state += serial.back().mem_state;
      }
      for (int threads : {1, 2, 8}) {
        SetNumThreads(threads);
        NfPrediction got = predictor.PredictNf(m);
        ASSERT_EQ(got.blocks.size(), serial.size());
        for (size_t b = 0; b < serial.size(); ++b) {
          ASSERT_TRUE(same(got.blocks[b].compute, serial[b].compute))
              << m.name << " block " << b << ", " << threads << " threads";
          ASSERT_EQ(got.blocks[b].mem_state, serial[b].mem_state);
        }
        EXPECT_TRUE(same(got.total_compute, total_compute))
            << m.name << ", " << threads << " threads";
        EXPECT_EQ(got.total_mem_state, total_mem_state);
      }
    }
  }
}

// Every field GenerateTrace sets, packet by packet.
std::vector<uint64_t> TraceFields(const Trace& t) {
  std::vector<uint64_t> out;
  for (const Packet& p : t.packets) {
    out.insert(out.end(), {p.src_ip, p.dst_ip, p.sport, p.dport, p.ip_proto, p.ip_len,
                           p.payload_len, p.wire_len, p.tcp_flags, p.tcp_seq, p.ts_ns});
    out.insert(out.end(), p.payload.begin(), p.payload.end());
  }
  return out;
}

// GenerateTrace takes its Zipf table from a small process-wide table
// (src/workload/workload.cc). Ten distinct skewed specs, each requested
// twice, cycle through more entries than it keeps; every thread count must
// still produce the serial traces.
TEST(SharedZipfTableTest, ParallelTracesEqualSerialTraces) {
  ThreadGuard guard;
  std::vector<WorkloadSpec> specs;
  for (uint32_t flows : {64u, 1000u, 4096u, 65536u, 100000u}) {
    for (double s : {0.4, 1.1}) {
      WorkloadSpec spec;
      spec.num_flows = flows;
      spec.zipf_s = s;
      spec.seed = flows + specs.size();
      specs.push_back(spec);
    }
  }
  std::vector<std::vector<uint64_t>> serial;
  for (const WorkloadSpec& spec : specs) {
    serial.push_back(TraceFields(GenerateTrace(spec, 200)));
  }
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    std::vector<std::vector<uint64_t>> got =
        ParallelMap<std::vector<uint64_t>>(2 * specs.size(), [&](size_t i) {
          return TraceFields(GenerateTrace(specs[i % specs.size()], 200));
        });
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], serial[i % specs.size()])
          << "threads " << threads << ", spec " << i % specs.size();
    }
  }
}

// ---- ClaraAnalyzer::Analyze overlaps prediction with profiling ----

// A small trained analyzer, built once per process. 1000 profile packets
// make seven full 128-packet chunks and a partial eighth.
const ClaraAnalyzer& SmallAnalyzer() {
  static const ClaraAnalyzer* analyzer = [] {
    AnalyzerOptions options;
    options.predictor.train_programs = 24;
    options.predictor.lstm.epochs = 2;
    options.scaleout.train_programs = 16;
    options.colocation.train_nfs = 8;
    options.colocation.train_groups = 16;
    options.algo_corpus_per_class = 6;
    options.profile_packets = 1000;
    auto* a = new ClaraAnalyzer(options);
    std::vector<Program> corpus;
    for (const auto& info : ElementRegistry()) {
      corpus.push_back(info.make());
    }
    std::vector<const Program*> ptrs;
    for (const auto& p : corpus) {
      ptrs.push_back(&p);
    }
    a->Train(ptrs);
    return a;
  }();
  return *analyzer;
}

// Every field of `in`: numbers as their bit patterns, strings byte by byte.
// PlacementResult::solve_seconds is wall time and is left out.
std::vector<uint64_t> InsightBits(const OffloadingInsights& in) {
  std::vector<uint64_t> out;
  auto num = [&](double v) { out.push_back(std::bit_cast<uint64_t>(v)); };
  auto text = [&](std::string_view s) {
    out.push_back(s.size());
    out.insert(out.end(), s.begin(), s.end());
  };
  text(in.nf_name);
  out.push_back(in.prediction.blocks.size());
  for (const BlockPrediction& b : in.prediction.blocks) {
    num(b.compute);
    out.insert(out.end(), {b.mem_state, b.mem_stateless, b.api_calls});
  }
  num(in.prediction.total_compute);
  out.push_back(in.prediction.total_mem_state);
  out.push_back(static_cast<uint64_t>(in.accelerator));
  out.push_back(static_cast<uint64_t>(in.suggested_cores));
  out.push_back(in.placement.ok);
  for (const auto& [var, region] : in.placement.placement) {
    text(var);
    out.push_back(static_cast<uint64_t>(region));
  }
  num(in.placement.ilp_objective);
  out.push_back(in.placement.ilp_nodes);
  for (const VarPack& pack : in.coalescing.packs) {
    for (const std::string& var : pack.vars) {
      text(var);
    }
    out.push_back(static_cast<uint64_t>(pack.pack_bytes));
  }
  for (const auto& [var, effect] : in.coalescing.effects) {
    text(var);
    num(effect.access_scale);
    num(effect.words_scale);
  }
  out.push_back(static_cast<uint64_t>(in.coalescing.clusters_considered));
  for (const PerfPoint* perf : {&in.naive_perf, &in.tuned_perf}) {
    num(perf->throughput_mpps);
    num(perf->latency_us);
    out.push_back(static_cast<uint64_t>(perf->bottleneck));
    const PerfBreakdown& b = perf->breakdown;
    for (int r = 0; r < kNumMemRegions; ++r) {
      num(b.region_rho[r]);
      num(b.region_latency_cycles[r]);
      out.push_back(b.region_used[r]);
    }
    num(b.cache_rho);
    num(b.cache_latency_cycles);
    out.push_back(b.cache_used);
    num(b.pkt_rho);
    num(b.pkt_latency_cycles);
    out.push_back(b.pkt_used);
    num(b.core_rho);
    num(b.compute_cycles);
    num(b.mem_cycles);
    text(b.bound_resource);
    num(b.bound_rho);
  }
  return out;
}

struct Answer {
  std::string text;
  std::vector<uint64_t> bits;
};

Answer AnalyzeElement(const std::string& name, const WorkloadSpec& workload) {
  const ClaraAnalyzer& analyzer = SmallAnalyzer();
  OffloadingInsights in = analyzer.Analyze(MakeElementByName(name), workload);
  return Answer{in.ToString(analyzer.perf_model().config()), InsightBits(in)};
}

// Analyze runs prediction, classification and the compile beside a trace
// producer and an interpreting consumer. Every registry element, on both
// presets, must get the serial answer bit for bit at every thread count.
TEST(DeterminismTest, AnalyzeBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const WorkloadSpec presets[] = {WorkloadSpec::SmallFlows(), WorkloadSpec::LargeFlows()};
  SetNumThreads(1);
  std::vector<Answer> serial;
  for (const auto& info : ElementRegistry()) {
    for (const WorkloadSpec& workload : presets) {
      serial.push_back(AnalyzeElement(info.name, workload));
    }
  }
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    size_t i = 0;
    for (const auto& info : ElementRegistry()) {
      for (const WorkloadSpec& workload : presets) {
        Answer got = AnalyzeElement(info.name, workload);
        EXPECT_EQ(got.text, serial[i].text) << info.name << ", " << threads << " threads";
        EXPECT_EQ(got.bits, serial[i].bits) << info.name << ", " << workload.name << ", "
                                            << threads << " threads";
        ++i;
      }
    }
  }
}

// The serve engine's dispatcher and a reload's canary can analyze at the same
// time, and each call's three tasks then compete for one pool. Two threads
// analyzing at once on one analyzer must both get the serial answers.
TEST(DeterminismTest, ConcurrentAnalyzeCallsGetSerialAnswers) {
  ThreadGuard guard;
  const std::vector<std::string> names = {"aggcounter", "mazunat", "heavyhitter",
                                          "iplookup",   "dpi",     "cmsketch"};
  const WorkloadSpec presets[] = {WorkloadSpec::SmallFlows(), WorkloadSpec::LargeFlows()};
  SetNumThreads(1);
  std::vector<Answer> serial;
  for (const std::string& name : names) {
    for (const WorkloadSpec& workload : presets) {
      serial.push_back(AnalyzeElement(name, workload));
    }
  }
  SetNumThreads(4);
  // Each thread walks the cases from its own end, so the two calls in flight
  // analyze different NFs most of the time.
  std::vector<Answer> forward(serial.size());
  std::vector<Answer> backward(serial.size());
  auto run = [&](std::vector<Answer>* out, bool reverse) {
    for (size_t k = 0; k < serial.size(); ++k) {
      size_t i = reverse ? serial.size() - 1 - k : k;
      (*out)[i] = AnalyzeElement(names[i / 2], presets[i % 2]);
    }
  };
  std::thread other(run, &backward, true);
  run(&forward, false);
  other.join();
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(forward[i].text, serial[i].text) << names[i / 2];
    EXPECT_EQ(forward[i].bits, serial[i].bits) << names[i / 2] << " preset " << i % 2;
    EXPECT_EQ(backward[i].text, serial[i].text) << names[i / 2];
    EXPECT_EQ(backward[i].bits, serial[i].bits) << names[i / 2] << " preset " << i % 2;
  }
}

}  // namespace
}  // namespace clara
