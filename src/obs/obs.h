// Master switch for Clara's cross-layer telemetry.
//
// Every instrumentation hook in the codebase is written as
// `if (obs::Enabled())`, and Enabled() is a single relaxed atomic load, false
// by default. Nothing allocates, locks, or reads a clock until a front end
// (clara_cli --trace / report, clara_serve) opts in.
//
// The convention for metric names is `layer.component.name`, e.g.
// `nic.backend.rule.mul_expansion` or `ml.lstm.epoch_loss`.
#ifndef SRC_OBS_OBS_H_
#define SRC_OBS_OBS_H_

#include <atomic>

namespace clara {
namespace obs {

inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}

inline bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }
inline void SetEnabled(bool on) { EnabledFlag().store(on, std::memory_order_relaxed); }

// RAII scoped enable, for front ends and tests.
class EnabledScope {
 public:
  explicit EnabledScope(bool on = true) : prev_(Enabled()) { SetEnabled(on); }
  ~EnabledScope() { SetEnabled(prev_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool prev_;
};

}  // namespace obs
}  // namespace clara

#endif  // SRC_OBS_OBS_H_
