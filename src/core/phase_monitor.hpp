// Drift detection for dynamic applications (§4).
//
// "If the program is dynamic then changes in the access pattern will be
//  collected, as much as possible, in an incremental manner. When the
//  changes are significant enough (a threshold that is tested at run-time)
//  then a re-characterization of the reference pattern is needed."
//
// `PhaseMonitor` watches one loop site's access pattern: the cheap
// `PatternSignature` of each new pattern (new `Csr::id()`) is compared
// with the previous one, and relative change accumulates, so slow drift
// adds up while transient jitter does not (`kPatternThreshold`). Drift
// in the *measured time* of the kept scheme is SchemeTrial's
// (core/trial.hpp); docs/adaptivity.md walks the decision lifecycle.
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

  static PatternSignature of(const AccessPattern& p,
                             std::size_t sample_stride = 64);
};

/// Accumulates pattern drift between the state at the last
/// (re)characterization and the current invocation.
class PhaseMonitor {
 public:
  /// Accumulated relative pattern change (0..1 scale per component) that
  /// triggers re-characterization.
  static constexpr double kPatternThreshold = 0.25;

  /// Rebase on a freshly characterized pattern.
  void rebase(const PatternSignature& sig) {
    base_ = sig;
    last_ = sig;
    have_base_ = true;
    accumulated_ = 0.0;
  }

  /// Observe the pattern of the next invocation; returns true when the
  /// accumulated drift demands re-characterization.
  bool observe(const PatternSignature& sig);

  [[nodiscard]] double accumulated() const { return accumulated_; }
  /// Signature of the most recently observed pattern.
  [[nodiscard]] const PatternSignature& last() const { return last_; }

 private:
  double accumulated_ = 0.0;
  PatternSignature base_{};
  PatternSignature last_{};
  bool have_base_ = false;
};

}  // namespace sapp
