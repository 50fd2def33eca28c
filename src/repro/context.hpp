// RunContext — the shared execution environment every experiment runs in.
//
// This replaces the per-binary env parsing and hand-rolled timing loops the
// old bench/ mains carried: one place decides the workload scale, thread
// count, repetition strategy and warmup, and hands experiments a lazily
// constructed ThreadPool and calibrated MachineCoeffs.
//
// Environment compatibility (kept from the old bench_util.hpp):
//   SAPP_FULL=1      — force scale 1.0 (paper-size workloads)
//   SAPP_SCALE=<0..1>— explicit scale override
//   SAPP_THREADS=<n> — software-scheme thread count
// CLI flags (--scale/--threads/--reps/--warmup/--tiny) take precedence.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/cost_model.hpp"
#include "core/runtime.hpp"

namespace sapp::repro {

/// Seconds per call of `body`, repeated until ~2 ms of work accumulates —
/// for microsecond-scale bodies a single call is below timer resolution.
template <typename F>
[[nodiscard]] double seconds_per_call(F&& body) {
  Timer t;
  std::size_t calls = 0;
  do {
    body();
    ++calls;
  } while (t.seconds() < 2e-3);
  return t.seconds() / static_cast<double>(calls);
}

/// User-selected knobs (0 = "use the default for this experiment/host").
struct RunOptions {
  double scale = 0.0;    ///< workload scale; 0 = experiment default
  unsigned threads = 0;  ///< software threads; 0 = hardware_concurrency()
  int reps = 0;          ///< timing repetitions; 0 = experiment default (3)
  int warmup = -1;       ///< warmup runs before timing; -1 = default (1)
  bool tiny = false;     ///< smoke sizes: ~1/10 scale, 1 rep, no warmup

  /// Defaults honouring the SAPP_* environment variables.
  [[nodiscard]] static RunOptions from_env();
};

/// Execution context passed to every experiment's run function.
class RunContext {
 public:
  explicit RunContext(RunOptions opt = RunOptions::from_env());

  /// Effective workload scale given the experiment's registered default.
  /// Tiny mode clamps to one tenth of the default, within [0.01, 0.05].
  [[nodiscard]] double scale(double experiment_default) const;

  /// Software-scheme thread count; defaults to one per hardware context
  /// (the paper's 8-processor setup is an explicit override).
  [[nodiscard]] unsigned threads() const { return threads_; }
  /// Timing repetitions (median-of-reps is the reported statistic).
  [[nodiscard]] int reps() const { return opt_.tiny ? 1 : reps_; }
  /// Untimed warmup runs before the measured repetitions.
  [[nodiscard]] int warmup() const { return opt_.tiny ? 0 : warmup_; }
  [[nodiscard]] bool tiny() const { return opt_.tiny; }

  /// Shared pool sized to threads(), created on first use.
  [[nodiscard]] ThreadPool& pool();
  /// Host-calibrated cost-model coefficients, measured on first use.
  [[nodiscard]] const MachineCoeffs& coeffs();
  /// Base options of every Runtime an experiment builds: threads() workers
  /// and coeffs(), so Runtime instances skip calibration and share one
  /// decider. Experiments set only their own fields on top.
  [[nodiscard]] RuntimeOptions runtime_options();

  /// Shared timing policy: run `fn` warmup() times untimed, then reps()
  /// times, and return the median of the values `fn` reports (seconds, or
  /// any other statistic the experiment measures per repetition).
  [[nodiscard]] double measure(const std::function<double()>& fn) {
    for (int i = 0; i < warmup(); ++i) (void)fn();
    std::vector<double> xs;
    xs.reserve(static_cast<std::size_t>(std::max(1, reps())));
    for (int i = 0; i < std::max(1, reps()); ++i) xs.push_back(fn());
    return median(xs);
  }

  [[nodiscard]] const RunOptions& options() const { return opt_; }

 private:
  RunOptions opt_;
  unsigned threads_;
  int reps_;
  int warmup_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<MachineCoeffs> coeffs_;
};

}  // namespace sapp::repro
