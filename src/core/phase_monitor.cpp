#include "core/phase_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace sapp {

PatternSignature PatternSignature::of(const AccessPattern& p,
                                      std::size_t sample_stride) {
  PatternSignature s;
  s.dim = p.dim;
  s.iterations = p.refs.rows();
  s.refs = p.refs.nnz();
  const auto& idx = p.refs.indices();
  if (sample_stride == 0) sample_stride = 1;
  for (std::size_t j = 0; j < idx.size(); j += sample_stride) {
    s.sampled_index_sum += idx[j];
    s.sampled_index_xor ^= (static_cast<std::uint64_t>(idx[j]) * 0x9E3779B9u)
                           << (j % 17);
  }
  return s;
}

namespace {
double rel_change(double a, double b) {
  const double mx = a > b ? a : b;
  if (mx <= 0.0) return 0.0;
  return std::abs(a - b) / mx;
}
}  // namespace

bool PhaseMonitor::observe(const PatternSignature& sig) {
  if (!have_base_) {
    base_ = sig;
    last_ = sig;
    have_base_ = true;
    return false;
  }
  // Structural change (different loop extent/array) always triggers.
  if (sig.dim != base_.dim) {
    accumulated_ = opt_.pattern_threshold;
    return true;
  }
  // Incremental accumulation of the change vs. the previous invocation —
  // slow continuous drift adds up, transient jitter does not reach the
  // threshold.
  const double step =
      0.5 * rel_change(static_cast<double>(sig.refs),
                       static_cast<double>(last_.refs)) +
      0.25 * rel_change(static_cast<double>(sig.iterations),
                        static_cast<double>(last_.iterations)) +
      0.25 * rel_change(static_cast<double>(sig.sampled_index_sum),
                        static_cast<double>(last_.sampled_index_sum));
  accumulated_ += step;
  last_ = sig;
  return accumulated_ >= opt_.pattern_threshold;
}

bool PhaseMonitor::observe_time(double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) return false;
  // Establish the baseline as the minimum of the `kTimeWarmup`
  // observations that follow the `kTimeColdSamples` discarded ones after a
  // rebase (a seeded baseline skips this: history is the baseline).
  if (!time_seeded_ && time_samples_ < kTimeColdSamples + kTimeWarmup) {
    if (++time_samples_ > kTimeColdSamples) {
      time_baseline_ = time_baseline_ > 0.0
                           ? std::min(time_baseline_, seconds)
                           : seconds;
      time_ewma_ = time_baseline_;
    }
    return false;
  }
  if (time_baseline_ <= 0.0) return false;
  time_ewma_ = kTimeAlpha * seconds + (1.0 - kTimeAlpha) * time_ewma_;
  const bool ewma_breach =
      time_ewma_ > kTimeDriftRatio * time_baseline_ ||
      time_baseline_ > kTimeDriftRatio * time_ewma_;
  // The raw sample must breach too: a single huge spike (preemption, page
  // fault storm) poisons the EWMA for several invocations, and without
  // this check the decaying average alone would stretch the streak past
  // the patience and fire on what was one bad invocation.
  const bool sample_breach = seconds > kTimeDriftRatio * time_baseline_ ||
                             time_baseline_ > kTimeDriftRatio * seconds;
  const bool above_noise =
      std::abs(time_ewma_ - time_baseline_) > kTimeNoiseFloorS;
  if (ewma_breach && sample_breach && above_noise) {
    ++time_streak_;
  } else {
    time_streak_ = 0;
  }
  return time_streak_ >= opt_.time_drift_patience;
}

}  // namespace sapp
