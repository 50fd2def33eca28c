#include "core/adaptive.hpp"

#include <algorithm>

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
  decision_ = opt_.use_rule_decider
                  ? decide_rules(stats_)
                  : decide_model(stats_, p.body_flops, coeffs_);
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
  scheme_ = make_scheme(kind);
  plan_ = scheme_->plan(p, pool_.size());
}

SchemeResult AdaptiveReducer::execute_arbitrated(const ReductionInput& in,
                                                 std::span<double> out) {
  if (pool_mu_ == nullptr) return execute_current(in, out);
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
  check_before_.assign(out.begin(), out.end());
  // A warm-started invocation is running an evicted-then-restored cached
  // decision — corruption there is the injector's third class.
  const FaultSite site = warm_started_ ? FaultSite::kRestoredDecision
                                       : FaultSite::kSchemeCombine;
  SchemeResult r =
      scheme_->execute_checked(plan_.get(), in, pool_, out, opt_.check,
                               &last_check_, opt_.fault_injector, site);
  ++checks_run_;
  if (!last_check_.passed) {
    ++check_failures_;
    last_check_failed_ = true;
    std::copy(check_before_.begin(), check_before_.end(), out.begin());
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
      // to the best not-yet-tried alternative (no ping-pong).
      abandoned_.push_back(scheme_->kind());
      bool switched = false;
      for (const auto& cp : decision_.predictions) {
        const bool tried =
            std::find(abandoned_.begin(), abandoned_.end(), cp.scheme) !=
            abandoned_.end();
        if (!tried && cp.applicable) {
          adopt(cp.scheme, in.pattern);
          ++switches_;
          switched = true;
          // The old scheme's time baseline (and history) say nothing
          // about the new scheme.
          monitor_.reset_time();
          phase_history_.clear();
          break;
        }
      }
      // No runner-up left — every alternative was abandoned, or this was
      // a warm start whose cache carried only the one prediction. Fresh
      // evidence beats a stale decision: re-characterize and re-decide
      // (mispredict_patience throttles how often this can fire).
      if (!switched) characterize_and_decide(in.pattern);
      overruns_ = 0;
    }
  } else {
    overruns_ = 0;
  }
  return r;
}

}  // namespace sapp
