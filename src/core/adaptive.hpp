// AdaptiveReducer — the multi-version executor at the heart of SmartApps'
// software reduction support (§4).
//
// One AdaptiveReducer manages one reduction loop site across its
// invocations:
//   * first invocation: characterize the pattern, decide a scheme (cost
//     model or rule taxonomy) — on the model path the sequential venue
//     competes too, so a site too small to amortize a parallel region
//     runs `seq` on the caller thread — build its inspector plan, execute;
//   * after every decision, a bounded measured trial (SchemeTrial): the
//     pick and at most two of the model's near runner-ups run a few
//     invocations each, and the site keeps the one with the lowest
//     minimum — the Fig. 1 "monitor performance and adapt" loop realized
//     as library code;
//   * later invocations: reuse scheme + plan while `refs.id()` and dim
//     match the plan's; another pattern re-plans, or re-decides on drift;
//   * demotion — pattern-signature drift (PhaseMonitor), the kept
//     scheme's windowed minimum leaving its settled band (SchemeTrial), or
//     a failed in-flight check — re-characterizes and re-decides.
//
// `sapp::Runtime` persists the settled minimum in the decision cache, so a
// warm start adopts the trial winner with its baseline armed and never
// re-trials (docs/adaptivity.md walks the full lifecycle).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "check/checker.hpp"
#include "check/fault_injector.hpp"
#include "core/decision.hpp"
#include "core/decision_cache.hpp"
#include "core/phase_monitor.hpp"
#include "core/trial.hpp"
#include "reductions/registry.hpp"

namespace sapp {

/// Tunables of the adaptive loop. Characterization and the rule decider
/// run with their defaults (CharacterizeOptions, RuleThresholds); the
/// drift and trial rules are the constants of PhaseMonitor and
/// SchemeTrial, and the warm-start match tolerance is
/// DecisionCache::kWarmMatchTolerance.
struct AdaptiveOptions {
  /// Use the rule taxonomy instead of the cost model (ablation). It ranks
  /// no predictions, so its pick is never trialled against a runner-up.
  bool use_rule_decider = false;
  /// In-flight probabilistic result checking (src/check, docs/checking.md):
  /// when enabled every invocation validates the scheme's combine against
  /// an independent input-stream checksum. A failed check rolls the output
  /// back to its pre-invocation state, re-executes serially (trusted
  /// path), and demotes the decision that produced the wrong result — the
  /// same re-characterization a phase change triggers, but on *correctness*
  /// evidence instead of timing evidence.
  CheckerOptions check{};
  /// Test hook (never set in production): corrupts one combine / commit /
  /// warm-started combine so tests and `sapp_repro checking` can prove the
  /// detection bound empirically.
  FaultInjector* fault_injector = nullptr;
};

/// Adaptive multi-version reduction executor for one loop site.
class AdaptiveReducer {
 public:
  AdaptiveReducer(ThreadPool& pool, MachineCoeffs coeffs,
                  AdaptiveOptions opt = {});
  ~AdaptiveReducer();

  AdaptiveReducer(const AdaptiveReducer&) = delete;
  AdaptiveReducer& operator=(const AdaptiveReducer&) = delete;

  /// Execute one invocation of the loop, accumulating into `out`.
  SchemeResult invoke(const ReductionInput& in, std::span<double> out);

  /// Offer a cached decision for adoption on the first invocation. If the
  /// first observed pattern matches the cached signature (within
  /// `DecisionCache::kWarmMatchTolerance`) the reducer adopts the
  /// cached scheme directly, settled at the cached minimum, and skips
  /// characterization, the cost-model decision and the trial; otherwise
  /// it falls back to the cold path. Must be called before the first
  /// invoke.
  void warm_start(CachedDecision cached);

  /// Serialize the shared-pool phases (Scheme::execute) on `mu` so
  /// reducers owned by one multi-site runtime can run their sequential
  /// phases (characterize, plan, monitor) concurrently while arbitrating
  /// the one pool. nullptr (the default) means no arbitration. A site
  /// running `seq` never takes `mu`: it executes on the caller thread.
  void set_pool_arbiter(std::mutex* mu) { pool_mu_ = mu; }

  /// Scheme currently selected (valid after the first invoke).
  [[nodiscard]] SchemeKind current() const;
  /// Last decision with predictions and rationale.
  [[nodiscard]] const Decision& decision() const { return decision_; }
  /// Stats of the last characterization.
  [[nodiscard]] const PatternStats& stats() const { return stats_; }
  /// Drift monitor (exposes the last observed signature and the drift).
  [[nodiscard]] const PhaseMonitor& monitor() const { return monitor_; }
  /// Measured trial and timing demotion (exposes the settled baseline).
  [[nodiscard]] const SchemeTrial& trial() const { return trial_; }

  [[nodiscard]] unsigned invocations() const { return invocations_; }
  /// Invocations including those the decision cache recorded for this
  /// site before — what the next snapshot should record, so repeated warm
  /// restarts (and later re-decisions) accumulate provenance instead of
  /// resetting it. It only ever grows, so of two snapshots of one site
  /// the one with more lifetime invocations is the newer.
  [[nodiscard]] std::uint64_t lifetime_invocations() const {
    return invocations_base_ + invocations_;
  }
  [[nodiscard]] unsigned recharacterizations() const {
    return recharacterizations_;
  }
  /// Runner-ups trialled (at most SchemeTrial::kMaxAlternatives per
  /// decision; settling back on a scheme already timed is part of the
  /// trial, not another switch).
  [[nodiscard]] unsigned scheme_switches() const { return switches_; }
  /// Re-characterizations forced by the timing demotion specifically (a
  /// subset of recharacterizations()).
  [[nodiscard]] unsigned time_drift_demotions() const {
    return time_demotions_;
  }
  /// True when the current scheme was adopted from a decision cache
  /// without characterizing (reset by the next re-characterization).
  [[nodiscard]] bool warm_started() const { return warm_started_; }

  /// In-flight check counters (only move when `opt.check.enabled`).
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t check_failures() const {
    return check_failures_;
  }
  /// Verdict of the most recent checked invocation.
  [[nodiscard]] const CheckReport& last_check() const { return last_check_; }

 private:
  void characterize_and_decide(const AccessPattern& p);
  void adopt(SchemeKind kind, const AccessPattern& p);
  /// Rebuild the current scheme's plan for `p` and record its identity.
  void replan(const AccessPattern& p);
  /// False for a `seq` site: it runs on the caller thread and takes no
  /// pool arbiter.
  [[nodiscard]] bool on_pool() const {
    return scheme_->kind() != SchemeKind::kSeq;
  }
  SchemeResult execute_arbitrated(const ReductionInput& in,
                                  std::span<double> out);
  SchemeResult execute_current(const ReductionInput& in,
                               std::span<double> out);

  ThreadPool& pool_;
  MachineCoeffs coeffs_;
  AdaptiveOptions opt_;
  PhaseMonitor monitor_;
  SchemeTrial trial_;
  std::mutex* pool_mu_ = nullptr;
  std::optional<CachedDecision> warm_;

  std::unique_ptr<Scheme> scheme_;
  std::unique_ptr<SchemePlan> plan_;
  /// Identity of the pattern plan_ was built for.
  std::uint64_t plan_refs_id_ = 0;
  std::size_t plan_dim_ = 0;
  Decision decision_{};
  PatternStats stats_{};

  unsigned invocations_ = 0;
  unsigned recharacterizations_ = 0;
  unsigned switches_ = 0;
  unsigned time_demotions_ = 0;
  bool warm_started_ = false;
  std::uint64_t checks_run_ = 0;
  std::uint64_t check_failures_ = 0;
  bool last_check_failed_ = false;
  CheckReport last_check_{};
  /// This site's checker sampling state (block selection and sampled
  /// positions): the per-thread checker is shared by every site a thread
  /// submits to, so its own cache would thrash.
  SampledPositions check_positions_;
  /// Invocations the cache entry offered to this site recorded.
  std::uint64_t invocations_base_ = 0;
};

}  // namespace sapp
