#include "core/trial.hpp"

#include <algorithm>
#include <cmath>

namespace sapp {

void SchemeTrial::begin(SchemeKind pick, std::vector<CostPrediction> ranked) {
  ranked_ = std::move(ranked);
  next_ = 0;
  alternatives_ = 0;
  pick_ = running_ = best_ = pick;
  best_min_s_ = std::numeric_limits<double>::infinity();
  settled_ = false;
  baseline_s_ = 0.0;
  clear_window();
}

void SchemeTrial::settle(SchemeKind scheme, double baseline_s) {
  begin(scheme, {});
  settled_ = true;
  if (baseline_s > 0.0 && std::isfinite(baseline_s)) baseline_s_ = baseline_s;
}

SchemeTrial::Verdict SchemeTrial::observe(SchemeKind scheme, double seconds) {
  if (scheme != running_ || !(seconds > 0.0) || !std::isfinite(seconds))
    return Verdict::kKeep;
  const int width = settled_ ? kSettledRuns : kTrialRuns;
  window_[static_cast<std::size_t>(pos_)] = seconds;
  pos_ = (pos_ + 1) % width;
  if (filled_ < width) ++filled_;
  if (filled_ < width) return Verdict::kKeep;
  const double min_s =
      *std::min_element(window_.begin(), window_.begin() + width);

  if (settled_) {
    if (baseline_s_ == 0.0) {  // a warm start that carried no minimum
      baseline_s_ = min_s;
      return Verdict::kKeep;
    }
    const bool outside = min_s > kDriftRatio * baseline_s_ + kNoiseFloorS ||
                         min_s < baseline_s_ / kDriftRatio - kNoiseFloorS;
    return outside ? Verdict::kDemote : Verdict::kKeep;
  }

  // One trial window is complete.
  if (min_s < best_min_s_) {
    best_min_s_ = min_s;
    best_ = running_;
  }
  clear_window();
  while (next_ < ranked_.size() && ranked_[next_].scheme == pick_) ++next_;
  if (alternatives_ < kMaxAlternatives && next_ < ranked_.size() &&
      ranked_[next_].applicable &&
      ranked_[next_].total() < best_min_s_ / kMispredictRatio) {
    running_ = ranked_[next_++].scheme;
    ++alternatives_;
    return Verdict::kSwitch;
  }
  settled_ = true;
  baseline_s_ = best_min_s_;
  if (best_ == running_) return Verdict::kKeep;
  running_ = best_;
  return Verdict::kSwitch;
}

}  // namespace sapp
