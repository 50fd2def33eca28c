// Decision cache — learned scheme choices that survive restarts.
//
// The paper's Fig. 2 ToolBox keeps "application and system specific
// databases"; this is the application half: per loop site, the scheme the
// adaptive runtime settled on together with the PatternSignature it was
// learned for, the thread count it is valid under, and the minimum time
// its measured trial settled at. On a warm start `sapp::Runtime` adopts
// the remembered scheme directly and skips the first-invocation
// characterization, decision and trial (the expensive O(refs + dim)
// inspector sweep), and the minimum arms the timing demotion immediately —
// a warm-started site that this host or input contradicts
// re-characterizes within its first window instead of trusting the stale
// scheme.
// A cached entry is only adopted when the first observed pattern still
// matches its recorded signature — otherwise the site falls back to the
// normal characterize-and-decide path.
//
// A DecisionCache is the in-memory document of one shard of the
// ShardedDecisionStore (decision_store.hpp), which owns all file I/O:
// `<decision_cache_dir>/shard-<k>.json`, each rendered by `to_json` via
// src/repro/json (schema documented in docs/adaptivity.md, "The on-disk
// decision cache"; schema_version 3 — documents of any other version are
// treated as absent, a graceful cold start). Caches are host- and
// thread-count-specific, like the rest of docs/results/.
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
  /// The settled minimum (seconds/invocation) of `scheme`'s measured
  /// trial: a warm-started site judges its first window against it. 0 =
  /// unknown (the site was snapshotted mid-trial; the warm start's first
  /// window sets the baseline).
  double min_time_s = 0.0;
  std::uint64_t invocations = 0;  ///< submits served, across warm restarts
  std::string rationale;          ///< human-readable provenance
};

/// Site-id keyed collection of cached decisions with a JSON round trip.
class DecisionCache {
 public:
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
  /// at most `tolerance` (relative), so benign run-to-run perturbation
  /// still warm-starts.
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
