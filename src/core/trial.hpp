// The measured half of the adaptive loop (Fig. 1, "monitor performance
// and adapt"): one rule that a busy host cannot fool.
//
// After every decision the site runs its pick for `kTrialRuns`
// invocations and keeps the minimum. It then trials at most
// `kMaxAlternatives` runner-ups, in the model's rank order, for
// `kTrialRuns` invocations each — but only while the next one is
// predicted below the best minimum so far divided by `kMispredictRatio`
// (the model's error is mostly shared by the schemes of one site, so a
// runner-up that cannot beat the measured time even at that tolerance is
// not worth a plan). The first candidate that fails the filter ends the
// trial. The site keeps the scheme with the lowest minimum, and that
// minimum becomes its baseline.
//
// Once settled, the kept scheme's minimum over its last `kSettledRuns`
// invocations is compared with the baseline. When it leaves
// [baseline / kDriftRatio, kDriftRatio × baseline] by more than
// `kNoiseFloorS`, the input has moved into a phase the decision was not
// made for, and the site re-decides. Contention only ever adds time, so a
// window minimum rises only when every invocation in the window ran slow:
// one preempted invocation never demotes, and a burst of outside load
// must cover six invocations of the site to.
//
// `SchemeTrial` is fed `(scheme, seconds)` pairs and owns no clock, pool
// or plan, so tests drive it with exact times. `AdaptiveReducer` owns one
// per site; docs/adaptivity.md walks the rule end to end.
#pragma once

#include <array>
#include <limits>
#include <vector>

#include "core/cost_model.hpp"

namespace sapp {

class SchemeTrial {
 public:
  /// Invocations per trial window.
  static constexpr int kTrialRuns = 3;
  /// Width of the settled window: twice a trial window. With a 3-wide one,
  /// sites whose input never changed demoted on a loaded 4-vCPU VM often
  /// enough to fail the runtime suites (docs/adaptivity.md).
  static constexpr int kSettledRuns = 2 * kTrialRuns;
  /// Runner-ups trialled after the pick, at most.
  static constexpr int kMaxAlternatives = 2;
  /// A runner-up is trialled only while predicted below the best measured
  /// minimum divided by this: the model is trusted to within 2x.
  static constexpr double kMispredictRatio = 2.0;
  /// Window-minimum-to-baseline ratio, either direction, that demotes.
  static constexpr double kDriftRatio = 2.0;
  /// How far outside the band a window minimum must land to demote: the
  /// dispatch of a ~100 µs region moves with the pool's state (helpers
  /// spinning or parked) and with the timer, and pattern drift still
  /// covers such sites.
  static constexpr double kNoiseFloorS = 100e-6;

  /// What the site does after an observation.
  enum class Verdict {
    kKeep,    ///< run scheme() again
    kSwitch,  ///< adopt scheme(), which just changed
    kDemote,  ///< the kept scheme drifted: re-characterize and re-decide
  };

  /// Start the trial of a fresh decision: `pick` runs first, and the
  /// runner-ups come from `ranked` (best first; the rule decider ranks
  /// none, so its pick settles after one window).
  void begin(SchemeKind pick, std::vector<CostPrediction> ranked);
  /// Keep `scheme` without a trial (a warm start), judged against
  /// `baseline_s` from its first settled window on — the first
  /// kSettledRuns invocations. A baseline of 0 (unknown) is set by that
  /// window instead.
  void settle(SchemeKind scheme, double baseline_s);

  /// Feed the measured time of one invocation of `scheme`. Samples of
  /// another scheme, and zero, negative or non-finite ones, are ignored.
  Verdict observe(SchemeKind scheme, double seconds);

  /// The scheme the site should run.
  [[nodiscard]] SchemeKind scheme() const { return running_; }
  /// The scheme the trial keeps: the lowest minimum so far while it runs
  /// (the pick until its first window completes), the settled one after.
  /// What a snapshot should persist — scheme() may be a runner-up still
  /// being timed.
  [[nodiscard]] SchemeKind best() const { return best_; }
  /// True once the trial has kept a scheme.
  [[nodiscard]] bool settled() const { return settled_; }
  /// The kept scheme's trial minimum (0 while trialling, or until the
  /// first window of a warm start without one).
  [[nodiscard]] double baseline_s() const { return baseline_s_; }

 private:
  void clear_window() { filled_ = pos_ = 0; }

  std::vector<CostPrediction> ranked_;
  std::size_t next_ = 0;  ///< next runner-up position in ranked_
  int alternatives_ = 0;
  SchemeKind pick_{};
  SchemeKind running_{};
  SchemeKind best_{};
  double best_min_s_ = std::numeric_limits<double>::infinity();
  bool settled_ = false;
  double baseline_s_ = 0.0;
  /// The current trial window, or the last kSettledRuns samples of the
  /// kept scheme (a ring).
  std::array<double, kSettledRuns> window_{};
  int filled_ = 0;
  int pos_ = 0;
};

}  // namespace sapp
