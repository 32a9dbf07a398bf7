// Cross-platform performance prediction (paper §3, Figure 3).
//
// The predictor is trained on synthesized (IR, NIC machine code) pairs
// produced by the data-synthesis engine and the (opaque-to-Clara) NIC
// backend. At inference time it takes an unported NF's IR and predicts, per
// basic block, the number of NIC compute instructions (LSTM+FC) while
// counting stateful memory accesses directly from IR load/stores (§3.2).
// Framework API calls are costed from their reverse-ported profiles (§3.3).
#ifndef SRC_CORE_PREDICTOR_H_
#define SRC_CORE_PREDICTOR_H_

#include <memory>
#include <vector>

#include "src/ir/classify.h"
#include "src/ir/vocab.h"
#include "src/ml/lstm.h"
#include "src/nic/backend.h"
#include "src/synth/synth.h"

namespace clara {

struct PredictorOptions {
  size_t train_programs = 300;
  uint64_t seed = 1234;
  LstmOptions lstm;
  AbstractionMode abstraction = AbstractionMode::kCompacted;  // kRaw = ablation
  NicBackendOptions backend;
  SynthOptions synth;  // synth.profile should come from MeasureCorpus
};

struct BlockPrediction {
  double compute = 0;       // predicted NIC compute instructions
  uint32_t mem_state = 0;   // counted stateful accesses (IR load/store state)
  uint32_t mem_stateless = 0;
  uint32_t api_calls = 0;
};

struct NfPrediction {
  std::vector<BlockPrediction> blocks;
  double total_compute = 0;
  uint32_t total_mem_state = 0;
};

class InstructionPredictor {
 public:
  explicit InstructionPredictor(PredictorOptions opts = PredictorOptions{}) : opts_(opts) {}

  // Synthesizes the training corpus, compiles it with the NIC backend for
  // ground-truth labels, and trains the LSTM+FC model.
  void Train();

  bool trained() const { return trained_; }

  // Thread-safe: neither call mutates the predictor.
  BlockPrediction PredictBlock(const Module& m, const BasicBlock& block) const;
  // Predicts the entry function's blocks in parallel on the shared pool, then
  // sums them in block order, so the result is bit-identical at any thread
  // count.
  NfPrediction PredictNf(const Module& m) const;

  // The frozen training artifacts, exposed so baseline models (DNN/CNN/
  // AutoML) can be trained on the identical dataset (Figure 8).
  const SeqDataset& dataset() const { return dataset_; }
  const Vocabulary& vocab() const { return vocab_; }
  const LstmRegressor& model() const { return lstm_; }
  const PredictorOptions& options() const { return opts_; }

  // Artifact serialization of the inference state (vocabulary, LSTM weights,
  // abstraction mode). The training dataset is deliberately not persisted, so
  // dataset() is empty on a loaded predictor.
  void SaveTo(BinWriter& w) const;
  bool LoadFrom(BinReader& r);

  // Inference backend selection (src/ml/infer.h); forwards to the LSTM.
  void SetInferBackend(InferBackend backend) { lstm_.SetInferBackend(backend); }
  InferBackend infer_backend() const { return lstm_.infer_backend(); }

 private:
  PredictorOptions opts_;
  Vocabulary vocab_;
  SeqDataset dataset_;
  LstmRegressor lstm_;
  bool trained_ = false;
};

// Ground-truth block labels from the NIC backend ("compiling the ported
// program with NFCC"). Used for evaluation only — Clara's analyses never
// look at these for unported NFs.
struct BlockTruth {
  uint32_t compute = 0;
  uint32_t mem_state = 0;
};

std::vector<BlockTruth> CompileGroundTruth(const Module& m,
                                           const NicBackendOptions& opts = NicBackendOptions{});

}  // namespace clara

#endif  // SRC_CORE_PREDICTOR_H_
