// The Clara facade: one object that owns all trained components and turns an
// unported NF program + workload into a full set of offloading insights
// (paper Figure 2c).
#ifndef SRC_CORE_ANALYZER_H_
#define SRC_CORE_ANALYZER_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/core/algo_id.h"
#include "src/core/coalescing.h"
#include "src/core/colocation.h"
#include "src/core/placement.h"
#include "src/core/predictor.h"
#include "src/core/scaleout.h"
#include "src/nic/perf_model.h"

namespace clara {

class NfInstance;

struct OffloadingInsights {
  std::string nf_name;
  // §3: predicted performance parameters.
  NfPrediction prediction;
  // §4.1: accelerator opportunity.
  AccelClass accelerator = AccelClass::kNone;
  // §4.2: suggested core count.
  int suggested_cores = 1;
  // §4.3: state placement.
  PlacementResult placement;
  // §4.4: variable packing / access coalescing.
  CoalescingPlan coalescing;
  // Simulator estimates of the naive port vs the Clara-tuned port, both at
  // the suggested core count.
  PerfPoint naive_perf;
  PerfPoint tuned_perf;

  std::string ToString(const NicConfig& cfg) const;
};

struct AnalyzerOptions {
  NicConfig nic;
  PredictorOptions predictor;
  AlgoIdOptions algo_id;
  ScaleOutOptions scaleout;
  ColocationOptions colocation;
  size_t algo_corpus_per_class = 40;
  size_t profile_packets = 4000;
  uint64_t seed = 2024;
};

// Everything ClaraAnalyzer::Analyze needs, detached from training: the
// trained components plus the measured synthesis profile. This is the unit
// the artifact store (src/serve/artifact.h) persists, enabling the
// train-once/serve-many split.
struct TrainedBundle {
  SynthProfile synth_profile;
  InstructionPredictor predictor;
  AlgorithmIdentifier algo_id;
  ScaleOutAdvisor scaleout;
  ColocationRanker colocation;

  bool trained() const {
    return predictor.trained() && algo_id.trained() && scaleout.trained() &&
           colocation.trained();
  }

  void SaveTo(BinWriter& w) const;
  bool LoadFrom(BinReader& r);
};

// When one stage of an Analyze call ran, on the steady clock.
struct StageWindow {
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
};

class ClaraAnalyzer {
 public:
  explicit ClaraAnalyzer(AnalyzerOptions opts = AnalyzerOptions{});

  // Constructs an analyzer from pre-trained components (loaded from the
  // artifact store) — no Train() call needed before Analyze().
  ClaraAnalyzer(AnalyzerOptions opts, TrainedBundle bundle);

  // Trains every learned component. `click_corpus` (real elements) guides
  // the data-synthesis engine's AST distribution (§3.2, Table 1).
  void Train(const std::vector<const Program*>& click_corpus);

  bool trained() const { return trained_; }

  // Copies the trained components out for persistence.
  TrainedBundle ExportTrained() const;

  // Full analysis of an unported NF under a workload: lowers the program
  // once into an NfInstance and runs the overload below on it. A program that
  // does not lower yields insights that carry only its name.
  OffloadingInsights Analyze(Program program, const WorkloadSpec& workload) const;

  // The pipeline for an NF already lowered; `nf` must be ok(). Three stages
  // overlap on the shared pool, because profiling needs only the lowered IR
  // and the other two never read the profile:
  //   - predicting the blocks' NIC cost (PredictNf), classifying the NF and
  //     compiling it, on the calling thread;
  //   - generating `workload`'s trace, published in chunks of packets;
  //   - interpreting those packets in order as they are published, which runs
  //     `nf`'s handler and so changes its state and profile.
  // Demand, scale-out, placement, coalescing and evaluation then run on the
  // calling thread. The insights are bit-identical at any thread count. When
  // `predict` is not null it receives when PredictNf started and ended; the
  // serve engine reports that window as its inference stage.
  OffloadingInsights Analyze(NfInstance& nf, const WorkloadSpec& workload,
                             StageWindow* predict = nullptr) const;

  // Selects the LSTM inference backend for all subsequent Analyze calls
  // (src/ml/infer.h); the serve engine applies ServeOptions.infer_backend
  // through this.
  void SetInferBackend(InferBackend backend) { predictor_.SetInferBackend(backend); }
  InferBackend infer_backend() const { return predictor_.infer_backend(); }

  const PerfModel& perf_model() const { return perf_model_; }
  const InstructionPredictor& predictor() const { return predictor_; }
  const AlgorithmIdentifier& algo_id() const { return algo_id_; }
  const ScaleOutAdvisor& scaleout() const { return scaleout_; }
  const ColocationRanker& colocation() const { return colocation_; }
  const SynthProfile& synth_profile() const { return synth_profile_; }

 private:
  AnalyzerOptions opts_;
  PerfModel perf_model_;
  SynthProfile synth_profile_;
  InstructionPredictor predictor_;
  AlgorithmIdentifier algo_id_;
  ScaleOutAdvisor scaleout_;
  ColocationRanker colocation_;
  bool trained_ = false;
};

}  // namespace clara

#endif  // SRC_CORE_ANALYZER_H_
