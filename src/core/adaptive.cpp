#include "core/adaptive.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/timer.hpp"

namespace sapp {

AdaptiveReducer::AdaptiveReducer(ThreadPool& pool, MachineCoeffs coeffs,
                                 AdaptiveOptions opt)
    : pool_(pool), coeffs_(coeffs), opt_(opt) {}

AdaptiveReducer::~AdaptiveReducer() = default;

SchemeKind AdaptiveReducer::current() const {
  SAPP_REQUIRE(scheme_ != nullptr, "no invocation yet");
  return scheme_->kind();
}

void AdaptiveReducer::warm_start(CachedDecision cached) {
  SAPP_REQUIRE(scheme_ == nullptr, "warm_start after the first invocation");
  // The site served these submits whether or not the entry is adopted, so
  // its lifetime count (what the next snapshot records) only ever grows.
  invocations_base_ = cached.invocations;
  warm_ = std::move(cached);
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
  monitor_.rebase(PatternSignature::of(p));
  trial_.begin(decision_.recommended, decision_.predictions);
  warm_started_ = false;
}

void AdaptiveReducer::adopt(SchemeKind kind, const AccessPattern& p) {
  scheme_ = make_scheme(kind);
  replan(p);
}

void AdaptiveReducer::replan(const AccessPattern& p) {
  // Free the old plan first: a rep plan holds a private copy of the
  // output per thread, and two live at once would set the peak RSS.
  plan_.reset();
  plan_ = scheme_->plan(p, pool_.size());
  plan_refs_id_ = p.refs.id();
  plan_dim_ = p.dim;
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
    // still matches the signature it was learned for; characterization,
    // the cost-model decision and the trial are skipped entirely. The
    // cached minimum arms the timing demotion from the first window, so a
    // cache that this host or input contradicts is demoted within it.
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
      monitor_.rebase(sig);
      trial_.settle(warm_->scheme, warm_->min_time_s);
      warm_started_ = true;
    } else {
      characterize_and_decide(in.pattern);
    }
    warm_.reset();
  } else if (in.pattern.refs.id() != plan_refs_id_ ||
             in.pattern.dim != plan_dim_) {
    // Never run a plan on a foreign pattern: significant drift (or a
    // scheme that cannot run it) re-decides, anything smaller re-plans.
    if (monitor_.observe(PatternSignature::of(in.pattern)) ||
        !scheme_->applicable(in.pattern))
      characterize_and_decide(in.pattern);
    else
      replan(in.pattern);
  }
  const double adapt_s = inspect_timer.seconds();

  SchemeResult r = execute_arbitrated(in, out);
  r.inspect_s += adapt_s;

  if (last_check_failed_) {
    // The scheme's combine was provably wrong (output already rolled back
    // and recomputed serially in execute_current). Correctness evidence
    // outranks every timing signal: demote the decision and re-characterize
    // now, and keep the bogus measurement out of the trial.
    last_check_failed_ = false;
    characterize_and_decide(in.pattern);
    return r;
  }

  // The measured feedback, applied from the next invocation: a trial move
  // (or the settle move back to the fastest scheme timed), or a timing
  // demotion of the kept scheme.
  switch (trial_.observe(scheme_->kind(), r.total_s())) {
    case SchemeTrial::Verdict::kKeep:
      break;
    case SchemeTrial::Verdict::kSwitch:
      if (!trial_.settled()) ++switches_;
      adopt(trial_.scheme(), in.pattern);
      break;
    case SchemeTrial::Verdict::kDemote:
      ++time_demotions_;
      characterize_and_decide(in.pattern);
      break;
  }
  return r;
}

}  // namespace sapp
