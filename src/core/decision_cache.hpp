// Decision cache — learned scheme choices that survive restarts.
//
// The paper's Fig. 2 ToolBox keeps "application and system specific
// databases"; this is the application half: per loop site, the scheme the
// adaptive runtime settled on together with the PatternSignature it was
// learned for, the thread count it is valid under, and a bounded history
// of measured per-invocation phase times. On a warm start `sapp::Runtime`
// adopts the remembered scheme directly and skips the first-invocation
// characterization + decision (the expensive O(refs + dim) inspector
// sweep), and the phase history arms the PhaseMonitor's time-drift
// detector immediately — a warm-started site whose cached history
// contradicts fresh measurements re-characterizes within the first
// monitored window instead of trusting the stale scheme.
// A cached entry is only adopted when the first observed pattern still
// matches its recorded signature — otherwise the site falls back to the
// normal characterize-and-decide path.
//
// A DecisionCache is the in-memory document of one shard of the
// ShardedDecisionStore (decision_store.hpp), which owns all file I/O:
// `<decision_cache_dir>/shard-<k>.json`, each rendered by `to_json` via
// src/repro/json (schema documented in docs/adaptivity.md, "The on-disk
// decision cache"; schema_version 2 — version-1 documents without phase
// history are treated as absent, a graceful cold start). Caches are
// host- and thread-count-specific, like the rest of docs/results/.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/phase_monitor.hpp"
#include "reductions/scheme.hpp"

namespace sapp {

/// One learned decision: what a loop site should run on a warm start.
struct CachedDecision {
  std::string site;            ///< loop-site id (Runtime::submit key)
  SchemeKind scheme{};         ///< scheme the site had settled on
  unsigned threads = 0;        ///< pool size the decision was learned under
  PatternSignature signature;  ///< pattern the decision is valid for
  /// Cost-model prediction (seconds/invocation) for `scheme` when it was
  /// decided. Carried so a warm-started site keeps the mispredict
  /// feedback loop: sustained overruns against this value trigger
  /// re-characterization instead of trusting a stale cache forever.
  /// 0 = unknown (feedback resumes after the next re-characterization).
  double predicted_total_s = 0.0;
  /// Bounded history of *measured* per-invocation phase times (seconds,
  /// oldest first, at most `DecisionCache::kMaxPhaseHistory` entries) under
  /// `scheme`. A warm-started site seeds its PhaseMonitor time baseline
  /// from the median of this history, so the feedback loop arrives armed
  /// with evidence instead of a model prediction — and re-decides within
  /// the first monitored window when fresh measurements contradict it
  /// (stale host, copied file, input moved to a new phase).
  std::vector<double> phase_times_s;
  std::uint64_t invocations = 0;  ///< cumulative evidence behind the decision
  std::string rationale;          ///< human-readable provenance
};

/// Site-id keyed collection of cached decisions with a JSON round trip.
class DecisionCache {
 public:
  /// Cap on the persisted phase-time history per site: enough to smooth a
  /// median over, small enough that cache files stay diff-sized.
  /// `to_json` keeps the most recent entries when given more.
  static constexpr std::size_t kMaxPhaseHistory = 16;
  /// Relative signature drift a cached decision may show and still be
  /// adopted on a warm start (the `tolerance` the runtime passes to
  /// `matches`).
  static constexpr double kWarmMatchTolerance = 0.1;

  /// Insert or replace the entry for `d.site`.
  void put(CachedDecision d);

  /// Entry for `site`, or nullptr.
  [[nodiscard]] const CachedDecision* find(std::string_view site) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<CachedDecision>& entries() const {
    return entries_;
  }

  /// Does a cached decision still apply to the pattern `sig` under
  /// `threads` workers? Dimension and thread count must match exactly;
  /// iteration, reference and sampled-index-sum counts may each drift by
  /// at most `tolerance` (relative). The xor fingerprint is deliberately
  /// not compared — any reordering flips it, and the cache must tolerate
  /// benign run-to-run perturbation.
  [[nodiscard]] static bool matches(const CachedDecision& d,
                                    const PatternSignature& sig,
                                    unsigned threads, double tolerance);

  /// JSON round trip (entries in insertion order; stable diffs).
  /// `from_json` returns nullopt (with an error message) on a malformed
  /// document — including out-of-range or non-integral counts — so the
  /// shard it came from loads cold, never a crash.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<DecisionCache> from_json(
      std::string_view text, std::string* error = nullptr);

 private:
  std::vector<CachedDecision> entries_;
};

}  // namespace sapp
