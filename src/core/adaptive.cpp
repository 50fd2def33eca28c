#include "core/adaptive.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "common/timer.hpp"

namespace sapp {

namespace {
double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}
}  // namespace

AdaptiveReducer::AdaptiveReducer(ThreadPool& pool, MachineCoeffs coeffs,
                                 AdaptiveOptions opt)
    : pool_(pool),
      coeffs_(coeffs),
      opt_(opt),
      monitor_(opt.monitor) {}

AdaptiveReducer::~AdaptiveReducer() = default;

SchemeKind AdaptiveReducer::current() const {
  SAPP_REQUIRE(scheme_ != nullptr, "no invocation yet");
  return scheme_->kind();
}

void AdaptiveReducer::warm_start(CachedDecision cached) {
  SAPP_REQUIRE(scheme_ == nullptr, "warm_start after the first invocation");
  warm_ = std::move(cached);
}

/// Shared post-(re)decision epilogue of the cold and warm adoption paths.
void AdaptiveReducer::reset_feedback(const PatternSignature& sig, bool warm) {
  monitor_.rebase(sig);
  overruns_ = 0;
  abandoned_.clear();
  fastest_measured_s_ = std::numeric_limits<double>::infinity();
  fastest_scheme_ = scheme_->kind();
  warm_started_ = warm;
  phase_history_.clear();  // the history describes the previous decision
  if (!warm) invocations_base_ = 0;  // fresh evidence supersedes the cache
}

void AdaptiveReducer::record_phase_time(double seconds) {
  if (!(seconds > 0.0)) return;
  if (phase_history_.size() >= DecisionCache::kMaxPhaseHistory)
    phase_history_.erase(phase_history_.begin());
  phase_history_.push_back(seconds);
}

void AdaptiveReducer::characterize_and_decide(const AccessPattern& p) {
  stats_ = characterize(p, pool_.size());
  if (opt_.use_rule_decider) {
    decision_ = decide_rules(stats_);
  } else {
    decision_ = decide_model(stats_, p.body_flops, coeffs_);
    add_sequential_venue(decision_, stats_, p.body_flops, coeffs_);
  }
  // The rule decider can pick an inapplicable scheme only through a bug;
  // guard against selecting lw for an illegal loop either way.
  if (decision_.recommended == SchemeKind::kLocalWrite &&
      !p.iteration_replication_legal)
    decision_.recommended = SchemeKind::kSelective;
  adopt(decision_.recommended, p);
  ++recharacterizations_;
  reset_feedback(PatternSignature::of(p), /*warm=*/false);
}

void AdaptiveReducer::adopt(SchemeKind kind, const AccessPattern& p) {
  // Free the old plan first: a rep plan holds a private copy of the
  // output per thread, and two live at once would set the peak RSS.
  plan_.reset();
  scheme_ = make_scheme(kind);
  plan_ = scheme_->plan(p, pool_.size());
}

SchemeResult AdaptiveReducer::execute_arbitrated(const ReductionInput& in,
                                                 std::span<double> out) {
  if (pool_mu_ == nullptr || !on_pool()) return execute_current(in, out);
  std::scoped_lock lk(*pool_mu_);
  return execute_current(in, out);
}

/// One scheme execution, checked when AdaptiveOptions::check asks for it.
/// On a failed check the output is rolled back to its pre-invocation
/// snapshot and recomputed on the trusted sequential path, so a detected
/// wrong combine is never shipped; the demotion happens in invoke().
SchemeResult AdaptiveReducer::execute_current(const ReductionInput& in,
                                              std::span<double> out) {
  if (!opt_.check.enabled)
    return scheme_->execute(plan_.get(), in, pool_, out);
  // Rollback snapshot of the whole output (a fault can hit any element,
  // not only sampled ones). Per thread, not per site: only the submitting
  // thread reads it, within this call, and a per-site copy would hold a
  // dim-sized buffer for every live site.
  static thread_local std::vector<double> before;
  before.assign(out.begin(), out.end());
  // A warm-started invocation is running an evicted-then-restored cached
  // decision — corruption there is the injector's third class.
  const FaultSite site = warm_started_ ? FaultSite::kRestoredDecision
                                       : FaultSite::kSchemeCombine;
  SchemeResult r = scheme_->execute_checked(
      plan_.get(), in, pool_, out, opt_.check, &last_check_,
      opt_.fault_injector, site, CheckOp::kSum, &check_positions_);
  ++checks_run_;
  if (!last_check_.passed) {
    ++check_failures_;
    last_check_failed_ = true;
    std::copy(before.begin(), before.end(), out.begin());
    Timer t;
    make_scheme(SchemeKind::kSeq)->execute(nullptr, in, pool_, out);
    r.check_s += t.seconds();
  }
  return r;
}

SchemeResult AdaptiveReducer::invoke(const ReductionInput& in,
                                     std::span<double> out) {
  SAPP_REQUIRE(in.consistent(), "values/pattern size mismatch");
  SAPP_REQUIRE(out.size() == in.pattern.dim, "output size mismatch");
  ++invocations_;

  Timer inspect_timer;
  if (scheme_ == nullptr) {
    // Warm start: adopt the cached scheme when the first observed pattern
    // still matches the signature it was learned for; characterization and
    // the cost-model decision are skipped entirely. The cached prediction
    // (when recorded) keeps the mispredict feedback loop armed, and the
    // cached evidence/rationale carry forward into the next snapshot.
    const PatternSignature sig = PatternSignature::of(in.pattern);
    if (warm_.has_value() &&
        DecisionCache::matches(*warm_, sig, pool_.size(),
                               DecisionCache::kWarmMatchTolerance) &&
        (warm_->scheme != SchemeKind::kLocalWrite ||
         in.pattern.iteration_replication_legal)) {
      adopt(warm_->scheme, in.pattern);
      decision_ = Decision{};
      decision_.recommended = warm_->scheme;
      decision_.rationale =
          warm_->rationale.empty()
              ? "warm start: adopted '" +
                    std::string(to_string(warm_->scheme)) +
                    "' from the decision cache"
              : warm_->rationale;
      if (warm_->predicted_total_s > 0.0) {
        CostPrediction cp;
        cp.scheme = warm_->scheme;
        cp.loop_s = warm_->predicted_total_s;  // total() == cached value
        decision_.predictions.push_back(cp);
      }
      invocations_base_ = warm_->invocations;
      reset_feedback(sig, /*warm=*/true);
      // Arm the time-drift detector from the persisted phase history: the
      // baseline is measured evidence, not a model prediction, and no
      // warmup is taken — a cache whose history contradicts what this
      // host/input actually measures is demoted within the first
      // monitored window instead of being trusted until it overruns the
      // (possibly absent) prediction.
      if (!warm_->phase_times_s.empty()) {
        monitor_.seed_time_baseline(median_of(warm_->phase_times_s));
        phase_history_ = warm_->phase_times_s;  // carry forward on re-save
      }
    } else {
      characterize_and_decide(in.pattern);
    }
    warm_.reset();
  } else if (monitor_.observe(PatternSignature::of(in.pattern))) {
    characterize_and_decide(in.pattern);
  }
  const double adapt_s = inspect_timer.seconds();

  SchemeResult r = execute_arbitrated(in, out);
  r.inspect_s += adapt_s;

  if (last_check_failed_) {
    // The scheme's combine was provably wrong (output already rolled back
    // and recomputed serially in execute_current). Correctness evidence
    // outranks every timing signal: demote the decision and re-characterize
    // now, and keep the bogus measurement out of the phase history and the
    // mispredict/time feedback.
    last_check_failed_ = false;
    characterize_and_decide(in.pattern);
    return r;
  }

  record_phase_time(r.total_s());
  if (r.total_s() < fastest_measured_s_) {
    fastest_measured_s_ = r.total_s();
    fastest_scheme_ = scheme_->kind();
  }

  // Time-drift demotion: the EWMA of measured times has moved away from
  // the baseline this decision was adopted under (or from the persisted
  // history on a warm start) for a sustained stretch — the input is in a
  // new phase, so the decision is demoted and the site re-characterizes.
  // Takes effect from the next invocation, like a mispredict switch.
  if (monitor_.observe_time(r.total_s())) {
    ++time_demotions_;
    characterize_and_decide(in.pattern);
    return r;
  }

  // Feedback: compare measured against the model's prediction for the
  // selected scheme; persistent overruns promote the runner-up.
  double predicted = 0.0;
  for (const auto& cp : decision_.predictions)
    if (cp.scheme == scheme_->kind()) predicted = cp.total();
  if (predicted > 0.0 && r.total_s() > kMispredictRatio * predicted) {
    if (++overruns_ >= opt_.mispredict_patience) {
      // The model was wrong about this scheme here: blacklist it and move
      // to the best not-yet-tried alternative (no ping-pong). The loop
      // trusts a prediction only to within kMispredictRatio, so the
      // alternative must beat the fastest time measured here even if it
      // overran its own prediction that much. With none, settle on the
      // fastest scheme measured since the site decided.
      const SchemeKind cur = scheme_->kind();
      const auto next =
          next_runner_up(decision_.predictions, abandoned_, cur,
                         fastest_measured_s_ / kMispredictRatio);
      const SchemeKind to = next && *next != cur ? *next : fastest_scheme_;
      if (!next && warm_started_) {
        // A warm start's cache carried only the one prediction, so no
        // alternative was ever ranked. Fresh evidence beats a stale
        // decision: re-characterize and re-decide (mispredict_patience
        // throttles how often this fires).
        characterize_and_decide(in.pattern);
      } else if (to != cur) {
        abandoned_.push_back(cur);
        adopt(to, in.pattern);
        ++switches_;
        // The old scheme's time baseline (and history) say nothing
        // about the new scheme.
        monitor_.reset_time();
        phase_history_.clear();
      }
      overruns_ = 0;
    }
  } else {
    overruns_ = 0;
  }
  return r;
}

}  // namespace sapp
