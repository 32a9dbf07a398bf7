// Tests for the parallel substrate (src/util/parallel.h): pool correctness,
// exception propagation, nested-loop safety, and the determinism contract —
// training results must be bit-identical at any thread count.
#include "src/util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

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

}  // namespace
}  // namespace clara
