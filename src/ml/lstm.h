// LSTM + fully-connected regression head over one-hot token sequences — the
// core of Clara's instruction-count predictor (paper §3.2, Figure 6).
//
// The one-hot input (enabled by vocabulary compaction) is exploited directly:
// the input transform is a column gather from the input weight matrix, so
// cost is independent of vocabulary size. The forward/backward passes and the
// Adam update run on the dispatched f64 kernel table in src/ml/kernels.h
// (AVX2 or scalar, bit-identical) with preallocated BPTT trace buffers and
// Adam moments (no per-step allocation).
//
// Training is Adam over minibatches of `batch_size` sequences. Per-example
// gradients inside a batch are computed data-parallel on the shared thread
// pool and accumulated in fixed example order, so the fitted weights are
// bit-identical at any thread count. batch_size == 1 (the default) is the
// paper's per-sequence SGD regime.
#ifndef SRC_ML_LSTM_H_
#define SRC_ML_LSTM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ml/common.h"
#include "src/ml/infer.h"
#include "src/util/rng.h"

namespace clara {

struct LstmOptions {
  int hidden = 32;
  int fc_hidden = 16;
  int epochs = 30;
  int max_seq_len = 96;
  double learning_rate = 0.004;  // Adam alpha
  uint64_t seed = 31;
  // Sequences per Adam step. Gradients within a batch are averaged; values
  // > 1 enable data-parallel gradient computation (deterministic at any
  // thread count).
  int batch_size = 1;
};

class LstmRegressor : public SeqRegressor {
 public:
  explicit LstmRegressor(LstmOptions opts = LstmOptions{}) : opts_(opts) {}

  void Fit(const SeqDataset& data) override;
  double Predict(const std::vector<int>& tokens) const override;
  std::string Describe() const override { return "lstm-fc"; }

  // Training-set WMAPE after the last Fit (convergence diagnostic).
  double train_wmape() const { return train_wmape_; }

  void SaveTo(BinWriter& w) const;
  bool LoadFrom(BinReader& r);

  // Selects the inference backend for Predict(). kF64 (the default) is the
  // training-time double path; kF32 builds the packed inference engine on
  // first use (no-op while untrained). Copies share the immutable engine.
  void SetInferBackend(InferBackend backend);
  InferBackend infer_backend() const { return backend_; }

 private:
  struct Params {
    std::vector<double> wx;  // 4H x V (row-major)
    std::vector<double> wh;  // 4H x H
    std::vector<double> b;   // 4H
    std::vector<double> w1;  // F x H
    std::vector<double> b1;  // F
    std::vector<double> w2;  // F
    double b2 = 0;
  };

  struct Trace;      // preallocated forward activations (defined in .cc)
  struct Grads;      // one parameter-shaped gradient buffer (defined in .cc)
  struct Workspace;  // per-batch-slot trace + gradient scratch (defined in .cc)

  double Forward(const std::vector<int>& tokens, Trace* trace) const;
  // Backprop for one example into ws.grads (zeroed first); returns the loss.
  double ExampleGradient(const SeqExample& ex, Workspace& ws) const;

  LstmF64View View() const;
  void BuildEngine();

  LstmOptions opts_;
  int vocab_ = 0;
  double y_scale_ = 1;
  Params p_;
  double train_wmape_ = 0;
  InferBackend backend_ = InferBackend::kF64;
  std::shared_ptr<const LstmInferEngine> engine_;
};

}  // namespace clara

#endif  // SRC_ML_LSTM_H_
