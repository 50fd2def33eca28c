// LRU eviction contract of the bounded runtime site table.
//
// `max_sites` caps the live table: a creation past the cap evicts the
// least-recently-used sites (their decisions persisted into the store),
// and sweep() trims a table that is over the cap. The end-to-end property —
// the reason eviction is safe at all — is that an evicted site which
// returns warm-starts from its persisted decision: correct results, no
// re-characterization, knowledge bounded only by the store, not the
// table.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "workloads/workload.hpp"

namespace sapp {
namespace {

RuntimeOptions quiet_options() {
  RuntimeOptions o;
  o.threads = 2;
  o.coeffs = MachineCoeffs::defaults();
  // Pin eviction semantics, not adaptation: the rule taxonomy ranks no
  // predictions, so its pick is never trialled against a runner-up and
  // the scheme a site learns does not depend on measured times.
  o.adaptive.use_rule_decider = true;
  return o;
}

ReductionInput site_input(int variant) {
  workloads::SynthParams p;
  p.dim = 300 + 40 * static_cast<std::size_t>(variant);
  p.distinct = p.dim / 2;
  p.iterations = 500;
  p.refs_per_iter = 2;
  p.seed = 7100 + static_cast<std::uint64_t>(variant);
  auto in = workloads::make_synthetic(p);
  in.pattern.loop_id = "evict/site" + std::to_string(variant);
  return in;
}

TEST(RuntimeEviction, LeastRecentlyUsedSiteGoesFirst) {
  RuntimeOptions o = quiet_options();
  o.max_sites = 3;
  Runtime rt(o);
  std::vector<ReductionInput> in;
  std::vector<std::vector<double>> out;
  for (int v = 0; v < 4; ++v) {
    in.push_back(site_input(v));
    out.emplace_back(in.back().pattern.dim, 0.0);
  }
  // Recency order oldest-first after this: site0, site1, site2.
  for (int v = 0; v < 3; ++v) (void)rt.submit(in[v], out[v]);
  // Touch site0 so site1 becomes the LRU victim.
  (void)rt.submit(in[0], out[0]);
  EXPECT_EQ(rt.site_count(), 3u);
  EXPECT_EQ(rt.evictions(), 0u);

  // Creating site3 must evict — and evict site1 specifically.
  (void)rt.submit(in[3], out[3]);
  EXPECT_LE(rt.site_count(), 3u);
  EXPECT_GE(rt.evictions(), 1u);
  EXPECT_FALSE(rt.has_live_site("evict/site1"));
  EXPECT_TRUE(rt.has_live_site("evict/site0"));
  EXPECT_TRUE(rt.has_live_site("evict/site3"));
  // The victim's decision moved into the store, not into the void.
  EXPECT_TRUE(rt.persisted_decisions().find("evict/site1") != nullptr);
}

TEST(RuntimeEviction, EvictedSiteReturnsWarmWithCorrectResults) {
  RuntimeOptions o = quiet_options();
  o.max_sites = 2;
  Runtime rt(o);
  std::vector<ReductionInput> in;
  std::vector<std::vector<double>> ref;
  for (int v = 0; v < 3; ++v) {
    in.push_back(site_input(v));
    ref.emplace_back(in.back().pattern.dim, 0.0);
    run_sequential(in.back(), ref.back());
  }
  std::vector<double> out(in[0].pattern.dim, 0.0);
  // Learn site0 over a few invocations, then push it out of the table.
  for (int k = 0; k < 3; ++k) {
    std::fill(out.begin(), out.end(), 0.0);
    (void)rt.submit(in[0], out);
  }
  const SchemeKind learned = rt.site("evict/site0").current();
  const std::uint64_t learned_invocations =
      rt.site("evict/site0").lifetime_invocations();
  std::vector<double> out1(in[1].pattern.dim, 0.0);
  std::vector<double> out2(in[2].pattern.dim, 0.0);
  (void)rt.submit(in[1], out1);
  (void)rt.submit(in[2], out2);
  ASSERT_FALSE(rt.has_live_site("evict/site0")) << "site0 was the LRU victim";
  const std::uint64_t warm_before = rt.warm_offers();

  // The return: same input, fresh registration. It must warm-start from
  // the persisted decision (no characterization run), keep the learned
  // scheme, resume the lifetime invocation count, and stay correct.
  std::fill(out.begin(), out.end(), 0.0);
  (void)rt.submit(in[0], out);
  ASSERT_TRUE(rt.has_live_site("evict/site0"));
  EXPECT_EQ(rt.warm_offers(), warm_before + 1);
  EXPECT_TRUE(rt.site("evict/site0").warm_started());
  EXPECT_EQ(rt.site("evict/site0").recharacterizations(), 0u);
  EXPECT_EQ(rt.site("evict/site0").current(), learned);
  EXPECT_EQ(rt.site("evict/site0").lifetime_invocations(),
            learned_invocations + 1);
  for (std::size_t e = 0; e < ref[0].size(); ++e)
    ASSERT_NEAR(out[e], ref[0][e], 1e-9 + 1e-9 * std::abs(ref[0][e]))
        << "element " << e;
}

TEST(RuntimeEviction, TableStaysBoundedThroughSustainedChurn) {
  RuntimeOptions o = quiet_options();
  o.max_sites = 8;
  Runtime rt(o);
  std::vector<ReductionInput> in;
  for (int v = 0; v < 40; ++v) in.push_back(site_input(v));
  std::vector<double> out;
  for (int round = 0; round < 3; ++round) {
    for (const auto& i : in) {
      out.assign(i.pattern.dim, 0.0);
      (void)rt.submit(i, out);
      EXPECT_LE(rt.site_count(), 8u)
          << "single-threaded churn must never overshoot the cap";
    }
  }
  EXPECT_GE(rt.evictions(), 40u * 3u - 8u);
  // Bounded table, unbounded knowledge: every site's decision is held.
  EXPECT_EQ(rt.decision_store().size(), 40u);
}

// Process-restart flow, the serving path's restart drill: a second
// Runtime pointed at the first one's decision-store directory must
// warm-start every returning site from the reloaded sharded store — warm
// offers counted, zero re-characterizations, results identical — with
// eviction churn in between, so the knowledge crossing the restart went
// through evict → persist → reload, not live memory.
TEST(RuntimeEviction, RestartReloadsShardedStoreAndWarmStarts) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("sapp_evict_restart." + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  constexpr int kSites = 6;
  std::vector<ReductionInput> in;
  std::vector<std::vector<double>> ref;
  std::vector<SchemeKind> learned(kSites);
  for (int v = 0; v < kSites; ++v) {
    in.push_back(site_input(v));
    ref.emplace_back(in.back().pattern.dim, 0.0);
    run_sequential(in.back(), ref.back());
  }

  RuntimeOptions o = quiet_options();
  o.decision_cache_dir = dir;
  o.max_sites = 3;  // smaller than kSites: decisions cross via the store
  {
    Runtime rt(o);
    std::vector<double> out;
    for (int round = 0; round < 3; ++round)
      for (int v = 0; v < kSites; ++v) {
        out.assign(in[v].pattern.dim, 0.0);
        (void)rt.submit(in[v], out);
      }
    // Record what each site settled on: live table first, else the
    // persisted snapshot of an already-evicted site.
    const DecisionCache persisted = rt.snapshot_decisions();
    const DecisionCache stored = rt.persisted_decisions();
    for (int v = 0; v < kSites; ++v) {
      const std::string& id = in[v].pattern.loop_id;
      const CachedDecision* d = persisted.find(id);
      if (d == nullptr) d = stored.find(id);
      ASSERT_NE(d, nullptr) << "site " << v << " left no decision";
      learned[v] = d->scheme;
    }
    // Destructor drains the maintenance thread and flushes every shard.
  }

  Runtime rt2(o);
  EXPECT_EQ(rt2.decision_store().size(), static_cast<std::size_t>(kSites))
      << "the fresh Runtime must reload every persisted decision";
  EXPECT_EQ(rt2.site_count(), 0u);
  std::vector<double> out;
  for (int v = 0; v < kSites; ++v) {
    out.assign(in[v].pattern.dim, 0.0);
    (void)rt2.submit(in[v], out);
    for (std::size_t e = 0; e < ref[v].size(); ++e)
      ASSERT_NEAR(out[e], ref[v][e], 1e-9 + 1e-9 * std::abs(ref[v][e]))
          << "site " << v << " element " << e << " across restart";
    // Inspect while the site is guaranteed live (it was just submitted;
    // later creations may evict it again under the small cap).
    const auto& site = rt2.site(in[v].pattern.loop_id);
    EXPECT_TRUE(site.warm_started()) << "site " << v;
    EXPECT_EQ(site.recharacterizations(), 0u)
        << "site " << v << ": a warm start must skip characterization";
    EXPECT_EQ(site.current(), learned[v]) << "site " << v;
  }
  EXPECT_GE(rt2.warm_offers(), static_cast<std::uint64_t>(kSites))
      << "every returning site found a cached decision";
  fs::remove_all(dir);
}

TEST(RuntimeEviction, SweepIsANoOpWithoutCap) {
  Runtime rt(quiet_options());
  auto a = site_input(0);
  std::vector<double> out(a.pattern.dim, 0.0);
  (void)rt.submit(a, out);
  EXPECT_EQ(rt.sweep(), 0u);
  EXPECT_EQ(rt.site_count(), 1u);
  EXPECT_EQ(rt.evictions(), 0u);
}

}  // namespace
}  // namespace sapp
