#include "core/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

namespace sapp {

namespace {

/// Maintenance-thread period: async flush of dirty decisions plus the
/// capacity sweep.
constexpr std::chrono::milliseconds kFlushInterval{50};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Runtime::Runtime(RuntimeOptions opt) : opt_(std::move(opt)) {
  unsigned n = opt_.threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 2;
  }
  pool_ = std::make_unique<ThreadPool>(n);
  coeffs_ = opt_.coeffs ? *opt_.coeffs : MachineCoeffs::calibrate(*pool_);
  store_ = std::make_unique<ShardedDecisionStore>(
      DecisionStoreOptions{.dir = opt_.decision_cache_dir});
  if (store_->persistent()) {
    // Missing or torn shards are cold shards, never an error.
    (void)store_->load();
    maintenance_ = std::thread([this] { maintenance_loop(); });
  }
}

Runtime::~Runtime() {
  stop_maintenance();
  // Clean shutdown drain: everything learned since the last tick reaches
  // the shard files before the site table is torn down.
  (void)flush_decisions();
}

void Runtime::stop_maintenance() {
  if (!maintenance_.joinable()) return;
  {
    std::scoped_lock lk(maint_mu_);
    maint_stop_ = true;
  }
  maint_cv_.notify_all();
  maintenance_.join();
}

void Runtime::maintenance_loop() {
  std::unique_lock lk(maint_mu_);
  while (!maint_stop_) {
    maint_cv_.wait_for(lk, kFlushInterval);
    if (maint_stop_) break;
    lk.unlock();
    if (opt_.max_sites > 0) (void)sweep();
    (void)flush_decisions();
    lk.lock();
  }
}

unsigned Runtime::threads() const { return pool_->size(); }

std::size_t Runtime::stripe_of(std::string_view id) {
  return std::hash<std::string_view>{}(id) % kStripes;
}

std::shared_ptr<Runtime::Site> Runtime::find_live(std::string_view id) const {
  const Stripe& stripe = stripes_[stripe_of(id)];
  std::scoped_lock lk(stripe.mu);
  const auto it = stripe.sites.find(id);
  return it != stripe.sites.end() ? it->second : nullptr;
}

std::shared_ptr<Runtime::Site> Runtime::site_slot(std::string_view id) {
  Stripe& stripe = stripes_[stripe_of(id)];
  {
    std::scoped_lock lk(stripe.mu);
    if (const auto it = stripe.sites.find(id); it != stripe.sites.end())
      return it->second;
  }
  // Creation path. Make room first (outside the stripe lock — eviction
  // takes stripe locks itself), so the table never grows past the cap by
  // more than the creations in flight.
  if (opt_.max_sites > 0) ensure_capacity();
  auto site = std::make_shared<Site>();
  site->reducer =
      std::make_unique<AdaptiveReducer>(*pool_, coeffs_, opt_.adaptive);
  site->reducer->set_pool_arbiter(&pool_mu_);
  site->last_used_ns.store(now_ns(), std::memory_order_relaxed);
  std::scoped_lock lk(stripe.mu);
  const auto [it, inserted] =
      stripe.sites.try_emplace(std::string(id), std::move(site));
  if (inserted) {
    // Warm-start from the store only under the stripe lock, after losing
    // any creation race: eviction needs this same lock to erase a site,
    // so the entry read here cannot be stale. (Reading it before the
    // lock would race a whole create→invoke→evict cycle of this site on
    // another thread and resurrect the pre-cycle snapshot, losing the
    // cycle's invocations from the lifetime counters.)
    if (auto cached = store_->get(id); cached.has_value()) {
      it->second->reducer->warm_start(*std::move(cached));
      warm_offers_.fetch_add(1, std::memory_order_relaxed);
    }
    live_sites_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

SchemeResult Runtime::submit(std::string_view site_id,
                             const ReductionInput& in,
                             std::span<double> out) {
  for (;;) {
    std::shared_ptr<Site> s = site_slot(site_id);
    std::scoped_lock lk(s->mu);
    // The site may have been evicted between the table lookup and the
    // lock: it still exists (we hold a reference) but no longer receives
    // persistence or warm-start offers — re-resolve so the invocation
    // lands in a live site and is counted exactly once.
    if (s->evicted) continue;
    s->last_used_ns.store(now_ns(), std::memory_order_relaxed);
    // In-flight check counters survive eviction: accumulate the per-site
    // deltas into the runtime-wide tally while the site mutex is held.
    const bool checking = opt_.adaptive.check.enabled;
    const std::uint64_t cr0 = checking ? s->reducer->checks_run() : 0;
    const std::uint64_t cf0 = checking ? s->reducer->check_failures() : 0;
    SchemeResult r = s->reducer->invoke(in, out);
    if (checking) {
      checks_run_.fetch_add(s->reducer->checks_run() - cr0,
                            std::memory_order_relaxed);
      check_failures_.fetch_add(s->reducer->check_failures() - cf0,
                                std::memory_order_relaxed);
    }
    // Asynchronous persistence: only note that this site moved on; the
    // maintenance thread snapshots and flushes off the submit path.
    store_->mark_dirty(site_id);
    return r;
  }
}

SchemeResult Runtime::submit(const ReductionInput& in,
                             std::span<double> out) {
  if (!in.pattern.loop_id.empty()) return submit(in.pattern.loop_id, in, out);
  // Untagged patterns fall back to a dimension-keyed anonymous site, so
  // two structurally different untagged loops alternating through here do
  // not share one drift monitor and re-characterize on every invocation.
  // Same-dimension loops still collide — tag loop_id for stable identity.
  return submit("<anonymous dim=" + std::to_string(in.pattern.dim) + ">", in,
                out);
}

AdaptiveReducer& Runtime::site(std::string_view site_id) {
  return *site_slot(site_id)->reducer;
}

bool Runtime::has_live_site(std::string_view site_id) const {
  return find_live(site_id) != nullptr;
}

std::size_t Runtime::site_count() const {
  std::size_t n = 0;
  for (const auto& stripe : stripes_) {
    std::scoped_lock lk(stripe.mu);
    n += stripe.sites.size();
  }
  return n;
}

std::vector<std::string> Runtime::site_ids() const {
  std::vector<std::string> ids;
  for (const auto& stripe : stripes_) {
    std::scoped_lock lk(stripe.mu);
    for (const auto& [id, site] : stripe.sites) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

template <typename Fn>
void Runtime::for_each_site(Fn&& fn) const {
  for (const auto& id : site_ids()) {
    // Resolve the site under the stripe lock, then release it before
    // waiting on the site mutex — otherwise a long in-flight reduction
    // would stall every submission hashing into the same stripe for its
    // whole duration. The shared_ptr keeps a concurrently evicted site
    // alive; the `evicted` flag (read under the site mutex) tells us to
    // skip it.
    const std::shared_ptr<Site> site = find_live(id);
    if (site == nullptr) continue;
    std::scoped_lock site_lk(site->mu);
    if (site->evicted) continue;
    fn(id, static_cast<const AdaptiveReducer&>(*site->reducer));
  }
}

CachedDecision Runtime::snapshot_site(const std::string& id,
                                      const AdaptiveReducer& r) const {
  CachedDecision d;
  d.site = id;
  // The trial's best, not the scheme running: mid-trial that may be a
  // runner-up still being timed, which a warm start would keep untried.
  d.scheme = r.trial().best();
  d.threads = pool_->size();
  // The most recently observed signature: what the next run's first
  // invocation is expected to look like.
  d.signature = r.monitor().last();
  // The minimum its measured trial settled at: the warm-started next run
  // judges its first window against it (0 while the trial is still on).
  d.min_time_s = r.trial().baseline_s();
  // Cumulative across warm restarts — a warm-started run inherits the
  // cache's evidence instead of resetting it to this run's count, and
  // the rationale stays the original decider justification.
  d.invocations = r.lifetime_invocations();
  d.rationale = r.decision().rationale;
  return d;
}

// ---- eviction --------------------------------------------------------

void Runtime::ensure_capacity() {
  std::scoped_lock lk(evict_mu_);
  const std::size_t cap = opt_.max_sites;
  const std::size_t live = live_sites_.load(std::memory_order_relaxed);
  if (live < cap) return;
  // Evict the overflow plus a little slack (1/16th of the cap) so a
  // churning burst of creations amortizes the table scan instead of
  // rescanning per creation. Small caps get exact-overflow eviction.
  (void)evict_locked(live - cap + 1 + cap / 16);
}

std::size_t Runtime::sweep() {
  std::scoped_lock lk(evict_mu_);
  const std::size_t live = live_sites_.load(std::memory_order_relaxed);
  if (opt_.max_sites == 0 || live <= opt_.max_sites) return 0;
  return evict_locked(live - opt_.max_sites);
}

std::size_t Runtime::evict_locked(std::size_t want) {
  // One pass over the table: the `want` least-recently-used sites go.
  // Timestamps are read lock-free — approximate LRU is all a cap needs.
  std::vector<std::pair<std::uint64_t, std::string>> by_age;
  std::size_t evicted = 0;
  for (const auto& stripe : stripes_) {
    std::scoped_lock lk(stripe.mu);
    for (const auto& [id, site] : stripe.sites)
      by_age.emplace_back(site->last_used_ns.load(std::memory_order_relaxed),
                          id);
  }
  std::sort(by_age.begin(), by_age.end());
  for (const auto& entry : by_age) {
    if (evicted >= want) break;
    if (evict_site(entry.second)) ++evicted;
  }
  return evicted;
}

bool Runtime::evict_site(const std::string& id) {
  Stripe& stripe = stripes_[stripe_of(id)];
  std::scoped_lock lk(stripe.mu);
  const auto it = stripe.sites.find(id);
  if (it == stripe.sites.end()) return false;
  Site& s = *it->second;
  // A site whose mutex is held is mid-submission — by definition not LRU;
  // skip it rather than stall the evictor behind a running reduction.
  std::unique_lock site_lk(s.mu, std::try_to_lock);
  if (!site_lk.owns_lock()) return false;
  // Persist what the site learned so a return warm-starts instead of
  // re-characterizing: eviction bounds memory, not knowledge.
  if (s.reducer->invocations() > 0) store_->put(snapshot_site(id, *s.reducer));
  s.evicted = true;
  site_lk.unlock();
  stripe.sites.erase(it);
  live_sites_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---- reporting and persistence ---------------------------------------

std::string Runtime::report() const {
  std::ostringstream os;
  os << "sapp::Runtime: " << pool_->size() << " threads, " << site_count()
     << " loop site(s)";
  if (const std::uint64_t ev = evictions_.load(); ev > 0)
    os << ", " << ev << " eviction(s)";
  if (const std::size_t cached = store_->size(); cached > 0)
    os << ", " << cached << " cached decision(s)";
  if (const std::uint64_t cr = checks_run_.load(); cr > 0)
    os << ", " << cr << " check(s) run / " << check_failures_.load()
       << " failed";
  os << "\n";
  for_each_site([&](const std::string& id, const AdaptiveReducer& r) {
    os << "  site '" << id << "': ";
    if (r.invocations() == 0) {
      os << "never invoked\n";
      return;
    }
    os << to_string(r.current()) << " after " << r.invocations()
       << " invocation(s), " << r.recharacterizations()
       << " characterization(s), " << r.scheme_switches() << " switch(es)";
    if (r.time_drift_demotions() > 0)
      os << ", " << r.time_drift_demotions() << " timing demotion(s)";
    os << (r.warm_started() ? ", warm-started" : "") << "\n    "
       << r.decision().rationale << "\n";
  });
  return os.str();
}

DecisionCache Runtime::snapshot_decisions() const {
  DecisionCache cache;
  for_each_site([&](const std::string& id, const AdaptiveReducer& r) {
    if (r.invocations() == 0) return;  // nothing learned yet
    cache.put(snapshot_site(id, r));
  });
  return cache;
}

DecisionCache Runtime::persisted_decisions() const { return store_->merged(); }

std::size_t Runtime::flush_decisions(std::string* error) {
  if (!store_->persistent()) return 0;
  const auto snapshotter = [this](const std::string& id,
                                  CachedDecision& out) {
    const std::shared_ptr<Site> s = find_live(id);
    if (s == nullptr) return false;  // evicted: the store copy is final
    std::scoped_lock lk(s->mu);
    if (s->evicted || s->reducer->invocations() == 0) return false;
    out = snapshot_site(id, *s->reducer);
    return true;
  };
  return store_->drain(snapshotter, error);
}

}  // namespace sapp
