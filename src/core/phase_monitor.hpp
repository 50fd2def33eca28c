// Drift detection for dynamic applications (§4).
//
// "If the program is dynamic then changes in the access pattern will be
//  collected, as much as possible, in an incremental manner. When the
//  changes are significant enough (a threshold that is tested at run-time)
//  then a re-characterization of the reference pattern is needed."
//
// `PhaseMonitor` watches one loop site across program phases through two
// independent detectors, either of which demands re-characterization:
//
//   * **pattern drift** — a cheap `PatternSignature` of each invocation's
//     access pattern is compared against the previous one; relative change
//     accumulates, so slow continuous drift adds up while transient jitter
//     does not (`pattern_threshold`);
//   * **time drift** — an EWMA of the measured per-invocation execution
//     time is compared against the baseline established when the current
//     scheme was adopted; a sustained ratio breach in either direction
//     (`kTimeDriftRatio` for `time_drift_patience` consecutive
//     invocations) means the input has moved into a phase the current
//     decision was not made for, even when the fingerprint looks stable
//     (e.g. a connectivity reshuffle that only destroys locality).
//
// The time baseline can also be **seeded from persisted phase history**
// (`seed_time_baseline`), so a warm-started site arrives with the detector
// already armed and re-decides within the first monitored window when the
// cached history contradicts fresh measurements. See docs/adaptivity.md
// for the full decision lifecycle.
#pragma once

#include <cstdint>

#include "reductions/access_pattern.hpp"

namespace sapp {

/// O(sampled refs) signature of a pattern: sizes plus a sampled index sum,
/// robust to small perturbations but sensitive to structural change.
struct PatternSignature {
  std::size_t dim = 0;
  std::size_t iterations = 0;
  std::size_t refs = 0;
  std::uint64_t sampled_index_sum = 0;
  std::uint64_t sampled_index_xor = 0;

  static PatternSignature of(const AccessPattern& p,
                             std::size_t sample_stride = 64);
};

/// Tunables of the two drift detectors.
struct PhaseMonitorOptions {
  /// Accumulated relative pattern change (0..1 scale per component) that
  /// triggers re-characterization.
  double pattern_threshold = 0.25;
  /// Consecutive drifting observations before the time detector fires.
  int time_drift_patience = 3;
};

/// Accumulates drift between the state at the last (re)characterization
/// and the current invocation, in both pattern and time.
class PhaseMonitor {
 public:
  /// EWMA smoothing factor for per-invocation execution times (weight of
  /// the newest sample).
  static constexpr double kTimeAlpha = 0.4;
  /// EWMA-vs-baseline ratio (either direction) counted as a drifting
  /// observation.
  static constexpr double kTimeDriftRatio = 2.0;
  /// Observations discarded after a rebase before the warmup starts: the
  /// first invocation of a freshly adopted decision pays first-touch and
  /// pool wake-up costs that say nothing about its steady state.
  static constexpr int kTimeColdSamples = 1;
  /// Observations whose minimum becomes the baseline after the cold ones
  /// (none of either when the baseline is seeded from cached phase
  /// history). Host noise only ever adds time, so the fastest warmup
  /// sample is the estimate a busy machine cannot inflate. A freshly
  /// (re)based site therefore needs kTimeColdSamples + kTimeWarmup +
  /// time_drift_patience invocations before the detector can fire — "the
  /// first monitored window".
  static constexpr int kTimeWarmup = 3;
  /// Absolute |EWMA - baseline| floor below which observations never count
  /// as drifting: sub-floor regions are dominated by dispatch and timer
  /// noise, and pattern drift still covers them.
  static constexpr double kTimeNoiseFloorS = 100e-6;

  explicit PhaseMonitor(PhaseMonitorOptions opt = {}) : opt_(opt) {}

  /// Rebase on a freshly characterized pattern; resets both detectors.
  void rebase(const PatternSignature& sig) {
    base_ = sig;
    last_ = sig;
    have_base_ = true;
    accumulated_ = 0.0;
    reset_time();
  }

  /// Reset only the time detector (used on a scheme switch: the old
  /// scheme's baseline says nothing about the new scheme's times).
  void reset_time() {
    time_baseline_ = 0.0;
    time_ewma_ = 0.0;
    time_samples_ = 0;
    time_streak_ = 0;
    time_seeded_ = false;
  }

  /// Arm the time detector with a baseline from persisted phase history
  /// (median of the cached per-invocation times). No warmup is taken:
  /// fresh measurements are judged against the history immediately, so a
  /// contradicted warm start re-characterizes within the first window.
  void seed_time_baseline(double seconds) {
    reset_time();
    if (seconds <= 0.0) return;
    time_baseline_ = seconds;
    time_ewma_ = seconds;
    time_seeded_ = true;
  }

  /// Observe the pattern of the next invocation; returns true when the
  /// accumulated drift demands re-characterization.
  bool observe(const PatternSignature& sig);

  /// Observe the measured execution time of the invocation that just ran;
  /// returns true when the EWMA has drifted from the baseline by more than
  /// `kTimeDriftRatio` (and `kTimeNoiseFloorS`) for
  /// `time_drift_patience` consecutive observations.
  bool observe_time(double seconds);

  [[nodiscard]] double accumulated() const { return accumulated_; }
  [[nodiscard]] double threshold() const { return opt_.pattern_threshold; }
  [[nodiscard]] bool has_base() const { return have_base_; }
  /// Signature at the last rebase (the characterized pattern).
  [[nodiscard]] const PatternSignature& base() const { return base_; }
  /// Signature of the most recently observed invocation.
  [[nodiscard]] const PatternSignature& last() const { return last_; }

  /// Per-invocation time baseline the EWMA is judged against (0 until the
  /// warmup completes or a seed arrives).
  [[nodiscard]] double time_baseline() const { return time_baseline_; }
  [[nodiscard]] double time_ewma() const { return time_ewma_; }
  /// Consecutive drifting observations so far.
  [[nodiscard]] int time_streak() const { return time_streak_; }
  /// True when the baseline came from persisted phase history.
  [[nodiscard]] bool time_seeded() const { return time_seeded_; }
  [[nodiscard]] const PhaseMonitorOptions& options() const { return opt_; }

 private:
  PhaseMonitorOptions opt_;
  double accumulated_ = 0.0;
  PatternSignature base_{};
  PatternSignature last_{};
  bool have_base_ = false;

  double time_baseline_ = 0.0;
  double time_ewma_ = 0.0;
  int time_samples_ = 0;
  int time_streak_ = 0;
  bool time_seeded_ = false;
};

}  // namespace sapp
