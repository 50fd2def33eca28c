#include "core/phase_monitor.hpp"

#include <cmath>

namespace sapp {

PatternSignature PatternSignature::of(const AccessPattern& p,
                                      std::size_t sample_stride) {
  PatternSignature s;
  s.dim = p.dim;
  s.iterations = p.refs.rows();
  s.refs = p.refs.nnz();
  const auto& idx = p.refs.indices();
  if (sample_stride == 0) sample_stride = 1;
  for (std::size_t j = 0; j < idx.size(); j += sample_stride)
    s.sampled_index_sum += idx[j];
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
    accumulated_ = kPatternThreshold;
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
  return accumulated_ >= kPatternThreshold;
}

}  // namespace sapp
