#include "src/ml/lstm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/ml/kernels.h"
#include "src/ml/metrics.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/util/binio.h"
#include "src/util/parallel.h"

namespace clara {
namespace {

constexpr uint16_t kLstmTag = 0x4C53;  // "LS"

double Sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

}  // namespace

// Flat, preallocated forward activations: one contiguous buffer per kind,
// indexed by [t * dim + j]. Prepare() is called once per workspace and the
// buffers are reused for every sequence, so the BPTT hot loop never touches
// the allocator.
struct LstmRegressor::Trace {
  int len = 0;
  std::vector<int> x;            // len
  std::vector<double> gates;     // len x 4H (i, f, g, o)
  std::vector<double> c;         // len x H
  std::vector<double> h;         // len x H
  std::vector<double> fc_pre;    // F
  std::vector<double> fc_hidden; // F
  std::vector<double> h_cur;     // H scratch
  std::vector<double> c_cur;     // H scratch
  std::vector<double> pre;       // 4H scratch
  double y = 0;

  void Prepare(int max_len, int h_dim, int f_dim) {
    x.resize(max_len);
    gates.resize(static_cast<size_t>(max_len) * 4 * h_dim);
    c.resize(static_cast<size_t>(max_len) * h_dim);
    h.resize(static_cast<size_t>(max_len) * h_dim);
    fc_pre.resize(f_dim);
    fc_hidden.resize(f_dim);
    h_cur.resize(h_dim);
    c_cur.resize(h_dim);
    pre.resize(4 * h_dim);
  }
};

// One parameter-shaped gradient accumulator.
struct LstmRegressor::Grads {
  std::vector<double> wx, wh, b, w1, b1, w2;
  double b2 = 0;

  void Init(const Params& p) {
    wx.assign(p.wx.size(), 0.0);
    wh.assign(p.wh.size(), 0.0);
    b.assign(p.b.size(), 0.0);
    w1.assign(p.w1.size(), 0.0);
    b1.assign(p.b1.size(), 0.0);
    w2.assign(p.w2.size(), 0.0);
    b2 = 0;
  }

  void Zero() {
    std::fill(wx.begin(), wx.end(), 0.0);
    ZeroAllButWx();
  }

  // Zero() for a buffer that holds one example's gradient, whose BPTT wrote
  // only the wx columns of its tokens `x[0, len)`: every other wx column is
  // still zero, so only those columns are cleared.
  void ZeroExample(const int* x, int len, int vocab) {
    for (size_t row = 0; row < wx.size(); row += static_cast<size_t>(vocab)) {
      for (int t = 0; t < len; ++t) {
        wx[row + static_cast<size_t>(x[t])] = 0.0;
      }
    }
    ZeroAllButWx();
  }

  void ZeroAllButWx() {
    std::fill(wh.begin(), wh.end(), 0.0);
    std::fill(b.begin(), b.end(), 0.0);
    std::fill(w1.begin(), w1.end(), 0.0);
    std::fill(b1.begin(), b1.end(), 0.0);
    std::fill(w2.begin(), w2.end(), 0.0);
    b2 = 0;
  }

  // acc += other, in fixed order; used for the ordered batch reduction.
  void Accum(const Grads& o) {
    const kernels::F64Kernels& k = kernels::ActiveF64Kernels();
    k.axpy(wx.data(), 1.0, o.wx.data(), static_cast<int>(wx.size()));
    k.axpy(wh.data(), 1.0, o.wh.data(), static_cast<int>(wh.size()));
    k.axpy(b.data(), 1.0, o.b.data(), static_cast<int>(b.size()));
    k.axpy(w1.data(), 1.0, o.w1.data(), static_cast<int>(w1.size()));
    k.axpy(b1.data(), 1.0, o.b1.data(), static_cast<int>(b1.size()));
    k.axpy(w2.data(), 1.0, o.w2.data(), static_cast<int>(w2.size()));
    b2 += o.b2;
  }

  void Scale(double s) {
    for (auto* v : {&wx, &wh, &b, &w1, &b1, &w2}) {
      for (double& g : *v) {
        g *= s;
      }
    }
    b2 *= s;
  }
};

// Per-batch-slot scratch: trace, gradient buffer, and BPTT temporaries. One
// workspace per in-flight example, so the data-parallel gradient pass shares
// nothing but the (read-only) parameters.
struct LstmRegressor::Workspace {
  Trace tr;
  Grads grads;
  std::vector<double> dh, dc, dpre;
  double loss = 0;

  void Prepare(const Params& p, int max_len, int h_dim, int f_dim) {
    tr.Prepare(max_len, h_dim, f_dim);
    grads.Init(p);
    dh.resize(h_dim);
    dc.resize(h_dim);
    dpre.resize(4 * h_dim);
  }
};

double LstmRegressor::Forward(const std::vector<int>& tokens, Trace* trace) const {
  const int h_dim = opts_.hidden;
  const int f_dim = opts_.fc_hidden;
  const kernels::F64Kernels& k = kernels::ActiveF64Kernels();
  // Inference (trace == nullptr) uses small local buffers so Predict stays
  // const and safe to call concurrently from parallel loops.
  std::vector<double> local_h, local_c, local_pre, local_fc;
  double* h;
  double* c;
  double* pre;
  if (trace != nullptr) {
    h = trace->h_cur.data();
    c = trace->c_cur.data();
    pre = trace->pre.data();
  } else {
    local_h.resize(h_dim);
    local_c.resize(h_dim);
    local_pre.resize(4 * h_dim);
    local_fc.resize(2 * f_dim);
    h = local_h.data();
    c = local_c.data();
    pre = local_pre.data();
  }
  std::fill(h, h + h_dim, 0.0);
  std::fill(c, c + h_dim, 0.0);

  size_t len = std::min<size_t>(tokens.size(), opts_.max_seq_len);
  for (size_t t = 0; t < len; ++t) {
    int x = tokens[t];
    if (x < 0 || x >= vocab_) {
      x = 0;
    }
    // pre = Wh h + b + Wx[:, x]  (one-hot input == column gather).
    k.gemv_bias(pre, p_.wh.data(), h, nullptr, 4 * h_dim, h_dim);
    kernels::OneHotGatherAdd(pre, p_.wx.data(), p_.b.data(), x, 4 * h_dim, vocab_);
    double* gates = trace != nullptr ? &trace->gates[t * 4 * h_dim] : pre;
    for (int j = 0; j < h_dim; ++j) {
      double i_g = Sigmoid(pre[j]);                         // input gate
      double f_g = Sigmoid(pre[h_dim + j]);                 // forget gate
      double g_g = std::tanh(pre[2 * h_dim + j]);           // candidate
      double o_g = Sigmoid(pre[3 * h_dim + j]);             // output gate
      gates[j] = i_g;
      gates[h_dim + j] = f_g;
      gates[2 * h_dim + j] = g_g;
      gates[3 * h_dim + j] = o_g;
      c[j] = f_g * c[j] + i_g * g_g;
      h[j] = o_g * std::tanh(c[j]);
    }
    if (trace != nullptr) {
      trace->x[t] = x;
      std::memcpy(&trace->c[t * h_dim], c, sizeof(double) * h_dim);
      std::memcpy(&trace->h[t * h_dim], h, sizeof(double) * h_dim);
    }
  }

  // FC head: relu(W1 h + b1) -> linear.
  double* fc_pre = trace != nullptr ? trace->fc_pre.data() : local_fc.data();
  double* fc = trace != nullptr ? trace->fc_hidden.data() : local_fc.data() + f_dim;
  k.gemv_bias(fc_pre, p_.w1.data(), h, p_.b1.data(), f_dim, h_dim);
  for (int f = 0; f < f_dim; ++f) {
    fc[f] = fc_pre[f] > 0 ? fc_pre[f] : 0;
  }
  double y = p_.b2 + k.dot(p_.w2.data(), fc, f_dim);
  if (trace != nullptr) {
    trace->len = static_cast<int>(len);
    trace->y = y;
  }
  return y;
}

double LstmRegressor::ExampleGradient(const SeqExample& ex, Workspace& ws) const {
  const int h_dim = opts_.hidden;
  const int f_dim = opts_.fc_hidden;
  const kernels::F64Kernels& k = kernels::ActiveF64Kernels();
  Trace& tr = ws.tr;
  Grads& g = ws.grads;
  g.ZeroExample(tr.x.data(), tr.len, vocab_);  // the trace still holds the last example

  double y = Forward(ex.tokens, &tr);
  double target = ex.target / y_scale_;
  double dy = y - target;  // dLoss/dy for 0.5*(y-t)^2
  g.b2 = dy;

  const int len = tr.len;
  double* dh = ws.dh.data();
  double* dc = ws.dc.data();
  double* dpre = ws.dpre.data();
  std::fill(dh, dh + h_dim, 0.0);
  std::fill(dc, dc + h_dim, 0.0);

  // tr.h_cur holds the final hidden state (all zeros for empty sequences).
  const double* h_last = tr.h_cur.data();
  // FC head gradients.
  for (int f = 0; f < f_dim; ++f) {
    g.w2[f] = dy * tr.fc_hidden[f];
    double dfc = dy * p_.w2[f];
    if (tr.fc_pre[f] <= 0) {
      dfc = 0;
    }
    g.b1[f] = dfc;
    k.axpy_dual(&g.w1[static_cast<size_t>(f) * h_dim], dh,
                &p_.w1[static_cast<size_t>(f) * h_dim], h_last, dfc, h_dim);
  }
  // BPTT over the preallocated trace.
  for (int t = len - 1; t >= 0; --t) {
    const double* gates = &tr.gates[static_cast<size_t>(t) * 4 * h_dim];
    const double* c_t = &tr.c[static_cast<size_t>(t) * h_dim];
    const double* c_prev = t > 0 ? &tr.c[static_cast<size_t>(t - 1) * h_dim] : nullptr;
    const double* h_prev = t > 0 ? &tr.h[static_cast<size_t>(t - 1) * h_dim] : nullptr;
    for (int j = 0; j < h_dim; ++j) {
      double i_g = gates[j];
      double f_g = gates[h_dim + j];
      double g_g = gates[2 * h_dim + j];
      double o_g = gates[3 * h_dim + j];
      double tc = std::tanh(c_t[j]);
      double dc_total = dc[j] + dh[j] * o_g * (1 - tc * tc);
      double do_g = dh[j] * tc;
      double di = dc_total * g_g;
      double df = dc_total * (c_prev != nullptr ? c_prev[j] : 0.0);
      double dg = dc_total * i_g;
      dpre[j] = di * i_g * (1 - i_g);
      dpre[h_dim + j] = df * f_g * (1 - f_g);
      dpre[2 * h_dim + j] = dg * (1 - g_g * g_g);
      dpre[3 * h_dim + j] = do_g * o_g * (1 - o_g);
      dc[j] = dc_total * f_g;  // propagate to t-1
    }
    std::fill(dh, dh + h_dim, 0.0);
    int x = tr.x[t];
    for (int r = 0; r < 4 * h_dim; ++r) {
      double d = dpre[r];
      g.b[r] += d;
      g.wx[static_cast<size_t>(r) * vocab_ + x] += d;
      const double* wh_row = &p_.wh[static_cast<size_t>(r) * h_dim];
      if (h_prev != nullptr) {
        k.axpy_dual(&g.wh[static_cast<size_t>(r) * h_dim], dh, wh_row, h_prev, d, h_dim);
      } else {
        k.axpy(dh, d, wh_row, h_dim);
      }
    }
  }
  return 0.5 * dy * dy;
}

void LstmRegressor::Fit(const SeqDataset& data) {
  vocab_ = std::max(1, data.vocab);
  int h_dim = opts_.hidden;
  int f_dim = opts_.fc_hidden;
  Rng rng(opts_.seed);

  p_.wx.resize(static_cast<size_t>(4 * h_dim) * vocab_);
  p_.wh.resize(static_cast<size_t>(4 * h_dim) * h_dim);
  p_.b.assign(4 * h_dim, 0.0);
  p_.w1.resize(static_cast<size_t>(f_dim) * h_dim);
  p_.b1.assign(f_dim, 0.0);
  p_.w2.resize(f_dim);
  for (auto& w : p_.wx) {
    w = rng.NextGaussian(0.15);
  }
  for (auto& w : p_.wh) {
    w = rng.NextGaussian(0.15);
  }
  for (auto& w : p_.w1) {
    w = rng.NextGaussian(0.2);
  }
  for (auto& w : p_.w2) {
    w = rng.NextGaussian(0.2);
  }
  // Forget-gate bias init to 1: standard for gradient flow.
  for (int j = 0; j < h_dim; ++j) {
    p_.b[h_dim + j] = 1.0;
  }
  p_.b2 = 0;

  y_scale_ = 1e-9;
  for (const auto& ex : data.examples) {
    y_scale_ = std::max(y_scale_, std::abs(ex.target));
  }

  // Adam moments for every parameter, laid out wx, wh, b, w1, b1, w2, b2.
  const size_t n_params = p_.wx.size() + p_.wh.size() + p_.b.size() + p_.w1.size() +
                          p_.b1.size() + p_.w2.size() + 1;
  std::vector<double> adam_m(n_params, 0.0);
  std::vector<double> adam_v(n_params, 0.0);
  const kernels::F64Kernels& k = kernels::ActiveF64Kernels();

  const size_t batch = static_cast<size_t>(std::max(1, opts_.batch_size));
  std::vector<Workspace> ws(batch);
  for (auto& w : ws) {
    w.Prepare(p_, opts_.max_seq_len, h_dim, f_dim);
  }
  // Batch-level accumulator (slot gradients are folded in example order, so
  // the update is independent of how the pool schedules the slots).
  Grads acc;
  acc.Init(p_);

  double adam_t = 0;
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    double epoch_sse = 0;
    std::vector<size_t> perm = rng.Permutation(data.examples.size());
    for (size_t start = 0; start < perm.size(); start += batch) {
      size_t bn = std::min(batch, perm.size() - start);
      // Data-parallel gradient pass: one workspace per example slot.
      ParallelForGrain(bn, 1, [&](size_t s) {
        ws[s].loss = ExampleGradient(data.examples[perm[start + s]], ws[s]);
      });
      Grads* grad = &ws[0].grads;
      if (bn > 1) {
        acc.Zero();
        for (size_t s = 0; s < bn; ++s) {
          acc.Accum(ws[s].grads);
        }
        acc.Scale(1.0 / static_cast<double>(bn));
        grad = &acc;
      }
      for (size_t s = 0; s < bn; ++s) {
        epoch_sse += ws[s].loss;
      }

      ++adam_t;
      const double c1 = 1.0 - std::pow(kernels::kAdamBeta1, adam_t);
      const double c2 = 1.0 - std::pow(kernels::kAdamBeta2, adam_t);
      size_t off = 0;
      auto adam = [&](double* w, const double* g, size_t n) {
        k.adam(w, &adam_m[off], &adam_v[off], g, static_cast<int>(n), opts_.learning_rate,
               c1, c2);
        off += n;
      };
      adam(p_.wx.data(), grad->wx.data(), p_.wx.size());
      adam(p_.wh.data(), grad->wh.data(), p_.wh.size());
      adam(p_.b.data(), grad->b.data(), p_.b.size());
      adam(p_.w1.data(), grad->w1.data(), p_.w1.size());
      adam(p_.b1.data(), grad->b1.data(), p_.b1.size());
      adam(p_.w2.data(), grad->w2.data(), p_.w2.size());
      adam(&p_.b2, &grad->b2, 1);
    }
    if (obs::Enabled() && !data.examples.empty()) {
      double mean_loss = epoch_sse / static_cast<double>(data.examples.size());
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      reg.GetGauge("ml.lstm.epoch_loss").Set(mean_loss);
      reg.GetGauge("ml.lstm.epochs").Set(epoch + 1);
      reg.GetHistogram("ml.lstm.epoch_loss_hist",
                       obs::Histogram::ExponentialBuckets(1e-6, 2, 40))
          .Observe(mean_loss);
      obs::TraceCounter("ml.lstm.epoch_loss", mean_loss);
    }
  }

  // New weights invalidate the packed engine.
  engine_.reset();
  if (backend_ != InferBackend::kF64) {
    BuildEngine();
  }

  std::vector<double> truth(data.examples.size());
  std::vector<double> pred(data.examples.size());
  ParallelFor(data.examples.size(), [&](size_t i) {
    truth[i] = data.examples[i].target;
    pred[i] = Predict(data.examples[i].tokens);
  });
  train_wmape_ = Wmape(truth, pred);
}

void LstmRegressor::SaveTo(BinWriter& w) const {
  w.U16(kLstmTag);
  // Forward() needs the architecture dims and max_seq_len, not just weights.
  w.I32(opts_.hidden);
  w.I32(opts_.fc_hidden);
  w.I32(opts_.max_seq_len);
  w.I32(vocab_);
  w.F64(y_scale_);
  w.VecF64(p_.wx);
  w.VecF64(p_.wh);
  w.VecF64(p_.b);
  w.VecF64(p_.w1);
  w.VecF64(p_.b1);
  w.VecF64(p_.w2);
  w.F64(p_.b2);
}

bool LstmRegressor::LoadFrom(BinReader& r) {
  if (r.U16() != kLstmTag) {
    r.Fail("lstm: bad section tag");
    return false;
  }
  int hidden = r.I32();
  int fc_hidden = r.I32();
  int max_seq_len = r.I32();
  int vocab = r.I32();
  double y_scale = r.F64();
  Params p;
  r.VecF64(&p.wx);
  r.VecF64(&p.wh);
  r.VecF64(&p.b);
  r.VecF64(&p.w1);
  r.VecF64(&p.b1);
  r.VecF64(&p.w2);
  p.b2 = r.F64();
  if (!r.ok()) {
    return false;
  }
  if (hidden <= 0 || fc_hidden <= 0 || max_seq_len <= 0 || vocab < 0) {
    r.Fail("lstm: non-positive architecture dimensions");
    return false;
  }
  // Forward() indexes the weight buffers by these exact shapes. An untrained
  // model (vocab == 0, Predict short-circuits to 0) carries empty buffers.
  size_t h = static_cast<size_t>(hidden);
  size_t f = static_cast<size_t>(fc_hidden);
  size_t v = static_cast<size_t>(vocab);
  bool shapes_ok =
      vocab == 0
          ? p.wx.empty() && p.wh.empty() && p.b.empty() && p.w1.empty() &&
                p.b1.empty() && p.w2.empty()
          : p.wx.size() == 4 * h * v && p.wh.size() == 4 * h * h &&
                p.b.size() == 4 * h && p.w1.size() == f * h &&
                p.b1.size() == f && p.w2.size() == f;
  if (!shapes_ok) {
    r.Fail("lstm: weight shapes inconsistent with architecture dims");
    return false;
  }
  opts_.hidden = hidden;
  opts_.fc_hidden = fc_hidden;
  opts_.max_seq_len = max_seq_len;
  vocab_ = vocab;
  y_scale_ = y_scale;
  p_ = std::move(p);
  engine_.reset();
  if (backend_ != InferBackend::kF64) {
    BuildEngine();
  }
  return true;
}

double LstmRegressor::Predict(const std::vector<int>& tokens) const {
  if (vocab_ == 0) {
    return 0;
  }
  double y;
  if (backend_ == InferBackend::kF32 && engine_ != nullptr) {
    y = engine_->PredictF32(tokens);
  } else {
    y = Forward(tokens, nullptr);
  }
  return std::max(0.0, y * y_scale_);
}

LstmF64View LstmRegressor::View() const {
  LstmF64View v;
  v.hidden = opts_.hidden;
  v.fc_hidden = opts_.fc_hidden;
  v.max_seq_len = opts_.max_seq_len;
  v.vocab = vocab_;
  v.y_scale = y_scale_;
  v.wx = &p_.wx;
  v.wh = &p_.wh;
  v.b = &p_.b;
  v.w1 = &p_.w1;
  v.b1 = &p_.b1;
  v.w2 = &p_.w2;
  v.b2 = p_.b2;
  return v;
}

void LstmRegressor::BuildEngine() {
  if (vocab_ == 0) {
    engine_.reset();
    return;
  }
  engine_ = std::make_shared<const LstmInferEngine>(View());
}

void LstmRegressor::SetInferBackend(InferBackend backend) {
  backend_ = backend;
  if (backend_ == InferBackend::kF64) {
    engine_.reset();
  } else if (engine_ == nullptr) {
    BuildEngine();
  }
}

}  // namespace clara
