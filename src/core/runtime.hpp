// sapp::Runtime — the process-wide multi-site adaptive runtime (Fig. 1 at
// scale), the one entry point through which loop sites are driven.
//
// One Runtime serves every reduction loop site of an application:
//
//     sapp::Runtime rt({.threads = 8, .decision_cache_dir = "sapp.cache.d"});
//     // any application thread, concurrently:
//     rt.submit("Moldyn/ComputeForces", input, forces);
//     rt.submit(input_with_loop_id, out);   // site id from pattern.loop_id
//
// Concurrency model:
//   * the site table is lock-striped: submissions to distinct sites never
//     contend on one global lock, and a site is created exactly once no
//     matter how many threads race to its first submission;
//   * submissions to the same site serialize in arrival order (an
//     AdaptiveReducer is stateful: monitor, plan, feedback counters);
//   * the sequential per-site phases — characterization, planning, drift
//     monitoring — run concurrently across sites; only Scheme::execute
//     regions are arbitrated onto the one shared ThreadPool (a pool region
//     must be dispatched by one thread at a time).
//
// Serving-scale bounds (see docs/serving.md):
//   * `max_sites` caps the live site table with approximate-LRU eviction
//     (per-site last-used timestamps; a creation past the cap evicts the
//     coldest sites first). An evicted site's learned decision is
//     snapshotted into the decision store, so a returning site
//     re-registers and warm-starts instead of re-characterizing — eviction
//     bounds memory, not knowledge.
//   * persistence is asynchronous: submissions only mark their site dirty
//     in the sharded decision store (decision_store.hpp); a maintenance
//     thread snapshots dirty sites and flushes changed shards atomically
//     (temp file + rename) on an interval, and the destructor drains
//     cleanly. No file I/O ever runs on the submit path. A restart is a
//     fresh Runtime on the same `decision_cache_dir`.
//
// `sapp_bench` (workloads serving_hot and serving_churn) measures the
// whole arrangement under sustained multi-threaded churn, and CI gates
// its throughput and p99.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/adaptive.hpp"
#include "core/decision_cache.hpp"
#include "core/decision_store.hpp"

namespace sapp {

/// Construction knobs of the multi-site runtime.
struct RuntimeOptions {
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// Cost-model coefficients for every site's decider. Empty (the default)
  /// micro-calibrates MachineCoeffs at startup; tests and experiments set
  /// fixed coefficients for deterministic construction or identical
  /// deciders across Runtime instances.
  std::optional<MachineCoeffs> coeffs;
  AdaptiveOptions adaptive{};
  /// Directory of the sharded, asynchronously persisted decision store.
  /// When non-empty, the constructor loads every shard for warm starts
  /// (a missing or corrupt shard is a cold start), a maintenance thread
  /// flushes learned decisions back every 50 ms, and the destructor
  /// drains whatever is still dirty.
  std::string decision_cache_dir;
  /// Cap on live sites (0 = unbounded). A creation past the cap evicts
  /// the least-recently-used sites after persisting their decisions.
  std::size_t max_sites = 0;
};

/// Process-wide registry of adaptive reduction sites sharing one pool.
class Runtime {
 public:
  Runtime() : Runtime(RuntimeOptions{}) {}
  explicit Runtime(RuntimeOptions opt);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] ThreadPool& pool() { return *pool_; }
  [[nodiscard]] const MachineCoeffs& coeffs() const { return coeffs_; }
  [[nodiscard]] unsigned threads() const;

  /// Execute one invocation of loop site `site_id`, accumulating into
  /// `out`. The site is created (or revived from the decision store) on
  /// first use. Safe to call from any number of application threads
  /// concurrently, including concurrently with eviction.
  SchemeResult submit(std::string_view site_id, const ReductionInput& in,
                      std::span<double> out);

  /// As above with the site id taken from `in.pattern.loop_id`. Patterns
  /// carrying no loop_id share a dimension-keyed anonymous site
  /// ("<anonymous dim=N>") — good enough to keep structurally different
  /// untagged loops apart, but tag loop_id for stable identity.
  SchemeResult submit(const ReductionInput& in, std::span<double> out);

  /// The site's reducer, created on first use. Reading reducer state is
  /// NOT synchronized against concurrent submit() or eviction — use from
  /// single-threaded phases (startup, reporting, tests).
  [[nodiscard]] AdaptiveReducer& site(std::string_view site_id);

  /// Whether `site_id` is currently live (not evicted / never created).
  [[nodiscard]] bool has_live_site(std::string_view site_id) const;

  [[nodiscard]] std::size_t site_count() const;
  /// All live site ids, sorted (stable report/serialization order).
  [[nodiscard]] std::vector<std::string> site_ids() const;
  /// Per-site summary: decisions, re-characterizations, switches.
  [[nodiscard]] std::string report() const;

  // ---- eviction -----------------------------------------------------
  /// Sites evicted so far by the LRU capacity bound.
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.load(); }
  /// Site creations that found a cached decision to offer (initial warm
  /// loads plus evicted sites re-registering; approximate under racing
  /// duplicate creations).
  [[nodiscard]] std::uint64_t warm_offers() const {
    return warm_offers_.load();
  }
  /// Trim the table down to `max_sites` now (also runs on every
  /// maintenance tick). Returns the number of sites evicted.
  std::size_t sweep();

  // ---- in-flight checking (AdaptiveOptions::check) -------------------
  /// Checked invocations across every site, including evicted ones.
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_.load(); }
  /// Detected wrong combines (each rolled back, recomputed serially, and
  /// demoted; see docs/checking.md).
  [[nodiscard]] std::uint64_t check_failures() const {
    return check_failures_.load();
  }

  // ---- persistent decision cache ------------------------------------
  /// Snapshot of every live site that has settled on a scheme (keyed by
  /// site id; signature = the most recently observed pattern).
  [[nodiscard]] DecisionCache snapshot_decisions() const;
  /// Everything the decision store knows: loaded shards, evicted sites,
  /// flushed snapshots. Live sites may have advanced past this.
  [[nodiscard]] DecisionCache persisted_decisions() const;
  /// Synchronously flush dirty decisions to the store's shard files (the
  /// maintenance thread does this on an interval; this forces it now).
  /// Returns the number of shard files written.
  std::size_t flush_decisions(std::string* error = nullptr);
  /// The sharded store (testing/metrics: flush counters, failure hook;
  /// `put` before a site's first submission offers it that decision).
  [[nodiscard]] ShardedDecisionStore& decision_store() { return *store_; }

 private:
  struct Site {
    std::mutex mu;  // serializes submissions to this site
    /// Set under `mu` by eviction after the site left the table; a
    /// submitter that raced the eviction re-resolves the site id.
    bool evicted = false;
    /// steady_clock nanos of the last submission — read lock-free by the
    /// LRU sweeps.
    std::atomic<std::uint64_t> last_used_ns{0};
    std::unique_ptr<AdaptiveReducer> reducer;
  };
  struct Stripe {
    mutable std::mutex mu;
    /// shared_ptr so eviction can drop a site from the table while a
    /// racing submitter still holds a reference (it detects `evicted`
    /// under the site mutex and retries).
    std::map<std::string, std::shared_ptr<Site>, std::less<>> sites;
  };
  /// Stripe count: a small power of two; striping only needs to keep
  /// unrelated sites off one cache-hot mutex, not scale to thousands.
  static constexpr std::size_t kStripes = 16;

  [[nodiscard]] static std::size_t stripe_of(std::string_view id);
  std::shared_ptr<Site> find_live(std::string_view id) const;
  std::shared_ptr<Site> site_slot(std::string_view id);
  /// Build the persistable snapshot of one live site (caller holds its
  /// mutex and guarantees at least one invocation).
  [[nodiscard]] CachedDecision snapshot_site(const std::string& id,
                                             const AdaptiveReducer& r) const;
  /// Evict up to `want` least-recently-used live sites, persisting their
  /// decisions into the store. Caller holds evict_mu_.
  std::size_t evict_locked(std::size_t want);
  /// Snapshot-and-erase one site; false when it is gone or mid-submit.
  bool evict_site(const std::string& id);
  /// Make room for one more site when `max_sites` is set.
  void ensure_capacity();
  void maintenance_loop();
  void stop_maintenance();
  /// Visit every live site in sorted id order, holding the site's own
  /// mutex — safe against concurrent submit().
  template <typename Fn>  // Fn(const std::string&, const AdaptiveReducer&)
  void for_each_site(Fn&& fn) const;

  RuntimeOptions opt_;
  std::unique_ptr<ThreadPool> pool_;
  MachineCoeffs coeffs_;
  /// Arbitrates Scheme::execute regions on the shared pool across sites.
  std::mutex pool_mu_;
  std::array<Stripe, kStripes> stripes_;
  /// Live-site count maintained next to the stripe maps (an atomic so
  /// capacity checks never take every stripe lock).
  std::atomic<std::size_t> live_sites_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> warm_offers_{0};
  std::atomic<std::uint64_t> checks_run_{0};
  std::atomic<std::uint64_t> check_failures_{0};
  /// Serializes evictors (capacity sweeps scan the whole table).
  std::mutex evict_mu_;
  /// Warm-start + persistence engine (always constructed; file-backed
  /// only when decision_cache_dir is set).
  std::unique_ptr<ShardedDecisionStore> store_;
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
  std::thread maintenance_;
};

}  // namespace sapp
