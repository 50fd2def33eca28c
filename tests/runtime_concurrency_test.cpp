// Concurrency contract of the multi-site runtime.
//
// Many application threads submit through one sapp::Runtime — to disjoint
// sites, to one contended site, and racing on the creation of a brand-new
// site. Every submission must execute exactly once (invocation counters
// add up and every output equals the sequential reference), and the whole
// suite runs in the TSan CI job (see .github/workflows/ci.yml), so the
// striped site table, the per-site serialization, the shared-pool
// arbitration and the sequential venue that bypasses it are race-checked,
// not just assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "scoped_temp_dir.hpp"
#include "workloads/workload.hpp"

namespace sapp {
namespace {

/// Pool size for the runtime under test; SAPP_THREADS lets the CI thread
/// matrix vary the worker side while the submitter side stays at 8.
unsigned pool_threads() {
  if (const char* s = std::getenv("SAPP_THREADS"); s != nullptr) {
    const int v = std::atoi(s);
    if (v >= 1 && v <= 64) return static_cast<unsigned>(v);
  }
  return 2;
}

RuntimeOptions quiet_options() {
  RuntimeOptions o;
  o.threads = pool_threads();
  // Deterministic, fast construction under TSan.
  o.coeffs = MachineCoeffs::defaults();
  // These tests pin concurrency semantics (exactly-once, site creation),
  // not adaptation. The rule taxonomy ranks no predictions, so its pick is
  // never trialled against a runner-up: which scheme a site runs does not
  // depend on the measured times, however slow TSan makes them. It picks
  // only among the paper's five parallel schemes, so every site here runs
  // on the pool and contends the shared-pool arbiter; the cost model
  // would settle these small sites on `seq`, which never takes it.
  // SeqAndParallelSitesSubmitAtOnce covers `seq`.
  o.adaptive.use_rule_decider = true;
  return o;
}

ReductionInput site_input(int variant) {
  workloads::SynthParams p;
  p.dim = 400 + 50 * static_cast<std::size_t>(variant);
  p.distinct = p.dim / 2;
  p.iterations = 600;
  p.refs_per_iter = 2;
  p.zipf_theta = 0.3;
  p.seed = 9000 + static_cast<std::uint64_t>(variant);
  auto in = workloads::make_synthetic(p);
  in.pattern.loop_id = "conc/site" + std::to_string(variant);
  return in;
}

void expect_matches_reference(const std::vector<double>& out,
                              const std::vector<double>& ref,
                              const char* what) {
  for (std::size_t e = 0; e < ref.size(); ++e)
    ASSERT_NEAR(out[e], ref[e], 1e-9) << what << " element " << e;
}

TEST(RuntimeConcurrency, DisjointSitesSubmitInParallel) {
  constexpr int kThreads = 8;
  constexpr int kInvocations = 15;
  Runtime rt(quiet_options());

  std::vector<ReductionInput> inputs;
  std::vector<std::vector<double>> refs;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(site_input(t));
    refs.emplace_back(inputs.back().pattern.dim, 0.0);
    run_sequential(inputs.back(), refs.back());
  }

  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ReductionInput& in = inputs[static_cast<std::size_t>(t)];
      std::vector<double> out(in.pattern.dim);
      start.arrive_and_wait();
      for (int k = 0; k < kInvocations; ++k) {
        std::fill(out.begin(), out.end(), 0.0);
        (void)rt.submit(in, out);
        expect_matches_reference(out, refs[static_cast<std::size_t>(t)],
                                 "disjoint");
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(rt.site_count(), static_cast<std::size_t>(kThreads));
  constexpr unsigned kMaxDemotions =
      kInvocations / (SchemeTrial::kTrialRuns + SchemeTrial::kSettledRuns);
  for (int t = 0; t < kThreads; ++t) {
    const AdaptiveReducer& r =
        rt.site(inputs[static_cast<std::size_t>(t)].pattern.loop_id);
    // Exactly once per submission: no lost or duplicated invocations.
    EXPECT_EQ(r.invocations(), static_cast<unsigned>(kInvocations));
    // One characterization at creation; the pattern never drifts, so any
    // other is a timing demotion of a busy host's windows (under TSan one
    // region of these sites takes either ~250 us or ~750 us). Each needs
    // the pick's window and then a full settled one, so a site has room
    // for at most kMaxDemotions; and the rule decider never trials.
    EXPECT_EQ(r.recharacterizations(), 1u + r.time_drift_demotions());
    EXPECT_LE(r.time_drift_demotions(), kMaxDemotions);
    EXPECT_EQ(r.scheme_switches(), 0u);
    EXPECT_NE(r.current(), SchemeKind::kSeq);  // arbitrated, not seq
  }
}

TEST(RuntimeConcurrency, SharedSiteSerializesExactlyOnce) {
  constexpr int kThreads = 8;
  constexpr int kInvocations = 10;
  Runtime rt(quiet_options());
  const ReductionInput in = site_input(99);
  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);

  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<double> out(in.pattern.dim);
      start.arrive_and_wait();
      for (int k = 0; k < kInvocations; ++k) {
        std::fill(out.begin(), out.end(), 0.0);
        (void)rt.submit(in, out);
        expect_matches_reference(out, ref, "shared");
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(rt.site_count(), 1u);
  EXPECT_EQ(rt.site(in.pattern.loop_id).invocations(),
            static_cast<unsigned>(kThreads * kInvocations));
}

TEST(RuntimeConcurrency, RacingFirstSubmissionCreatesOneSite) {
  constexpr int kThreads = 8;
  Runtime rt(quiet_options());
  const ReductionInput in = site_input(7);
  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);

  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<double> out(in.pattern.dim, 0.0);
      start.arrive_and_wait();  // all hit the cold site simultaneously
      (void)rt.submit(in, out);
      expect_matches_reference(out, ref, "racing-create");
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(rt.site_count(), 1u);
  const AdaptiveReducer& r = rt.site(in.pattern.loop_id);
  EXPECT_EQ(r.invocations(), static_cast<unsigned>(kThreads));
  EXPECT_EQ(r.recharacterizations(), 1u);  // one winner characterized
}

TEST(RuntimeConcurrency, MixedDisjointAndSharedTraffic) {
  // Half the submitters own private sites, half hammer one shared site —
  // the striped table serves both kinds of traffic at once.
  constexpr int kThreads = 8;
  constexpr int kInvocations = 8;
  Runtime rt(quiet_options());

  std::vector<ReductionInput> inputs;
  std::vector<std::vector<double>> refs;
  for (int t = 0; t <= kThreads / 2; ++t) {
    inputs.push_back(site_input(t));
    refs.emplace_back(inputs.back().pattern.dim, 0.0);
    run_sequential(inputs.back(), refs.back());
  }

  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Threads 0..3 -> private sites 1..4; threads 4..7 -> shared site 0.
    const std::size_t s =
        t < kThreads / 2 ? static_cast<std::size_t>(t) + 1 : 0;
    threads.emplace_back([&, s] {
      const ReductionInput& in = inputs[s];
      std::vector<double> out(in.pattern.dim);
      start.arrive_and_wait();
      for (int k = 0; k < kInvocations; ++k) {
        std::fill(out.begin(), out.end(), 0.0);
        (void)rt.submit(in, out);
        expect_matches_reference(out, refs[s], "mixed");
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(rt.site_count(), static_cast<std::size_t>(kThreads / 2 + 1));
  unsigned total = 0;
  for (const auto& id : rt.site_ids()) total += rt.site(id).invocations();
  EXPECT_EQ(total, static_cast<unsigned>(kThreads * kInvocations));
  EXPECT_EQ(rt.site(inputs[0].pattern.loop_id).invocations(),
            static_cast<unsigned>(kThreads / 2 * kInvocations));
}

TEST(RuntimeConcurrency, SeqAndParallelSitesSubmitAtOnce) {
  // Under the cost model, tiny sites settle on the sequential venue, which
  // runs on the caller thread and never takes the pool arbiter, and two
  // large sites settle on a parallel scheme, which does. Four submitters
  // each drive one tiny site and one of the two large sites, with every
  // submit checked, so the arbiter-free path races the arbitrated one and
  // the two large sites contend the arbiter (this test exists to run
  // under TSan). Each tiny site runs one trial window, which is its pick
  // whatever the measured times, so its outputs are bitwise.
  constexpr int kThreads = 4;
  constexpr int kInvocations = SchemeTrial::kTrialRuns;
  RuntimeOptions o = quiet_options();
  o.adaptive.use_rule_decider = false;
  // A 1-thread pool has no parallel venue worth dispatching to.
  o.threads = std::max(2u, pool_threads());
  o.adaptive.check.enabled = true;
  o.adaptive.check.sample_rate = 0.05;
  Runtime rt(o);

  std::vector<ReductionInput> tiny;
  std::vector<std::vector<double>> tiny_refs;
  for (int t = 0; t < kThreads; ++t) {
    tiny.push_back(site_input(t));
    tiny_refs.emplace_back(tiny.back().pattern.dim, 0.0);
    run_sequential(tiny.back(), tiny_refs.back());
  }
  std::vector<ReductionInput> large;
  std::vector<std::vector<double>> large_refs;
  for (int l = 0; l < 2; ++l) {
    workloads::SynthParams p;
    p.dim = 20000;
    p.distinct = 20000;
    p.iterations = 40000;
    p.refs_per_iter = 2;
    p.body_flops = 16;
    p.seed = 9100 + static_cast<std::uint64_t>(l);
    large.push_back(workloads::make_synthetic(p));
    large.back().pattern.loop_id = "conc/large" + std::to_string(l);
    large_refs.emplace_back(p.dim, 0.0);
    run_sequential(large.back(), large_refs.back());
  }

  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ReductionInput& in = tiny[static_cast<std::size_t>(t)];
      const std::vector<double>& ref = tiny_refs[static_cast<std::size_t>(t)];
      // Threads 0 and 2 share large site 0, threads 1 and 3 large site 1.
      const ReductionInput& big = large[static_cast<std::size_t>(t % 2)];
      const std::vector<double>& big_ref =
          large_refs[static_cast<std::size_t>(t % 2)];
      std::vector<double> out(in.pattern.dim);
      std::vector<double> big_out(big.pattern.dim);
      start.arrive_and_wait();
      for (int k = 0; k < kInvocations; ++k) {
        std::fill(out.begin(), out.end(), 0.0);
        (void)rt.submit(in, out);
        // seq is run_sequential itself: bitwise, not within a tolerance.
        for (std::size_t e = 0; e < ref.size(); ++e)
          ASSERT_EQ(out[e], ref[e]) << "tiny site element " << e;
        std::fill(big_out.begin(), big_out.end(), 0.0);
        (void)rt.submit(big, big_out);
        expect_matches_reference(big_out, big_ref, "large");
      }
    });
  }
  for (auto& th : threads) th.join();

  for (const ReductionInput& in : tiny)
    EXPECT_EQ(rt.site(in.pattern.loop_id).decision().recommended,
              SchemeKind::kSeq)
        << in.pattern.loop_id;
  for (const ReductionInput& in : large) {
    const AdaptiveReducer& r = rt.site(in.pattern.loop_id);
    EXPECT_NE(r.decision().recommended, SchemeKind::kSeq) << in.pattern.loop_id;
    EXPECT_LE(r.scheme_switches(),
              SchemeTrial::kMaxAlternatives * r.recharacterizations());
  }
  EXPECT_EQ(rt.checks_run(),
            static_cast<std::uint64_t>(2 * kThreads * kInvocations));
  EXPECT_EQ(rt.check_failures(), 0u);
}

TEST(RuntimeConcurrency, ReportAndSnapshotRaceSubmitters) {
  // report() and snapshot_decisions() take each site's mutex, so reading
  // live reducer state while other threads submit must be race-free
  // (this test exists to run under TSan).
  constexpr int kSubmitters = 4;
  constexpr int kInvocations = 12;
  Runtime rt(quiet_options());
  std::vector<ReductionInput> inputs;
  for (int t = 0; t < kSubmitters; ++t) inputs.push_back(site_input(300 + t));

  std::barrier start(kSubmitters + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      const ReductionInput& in = inputs[static_cast<std::size_t>(t)];
      std::vector<double> out(in.pattern.dim, 0.0);
      start.arrive_and_wait();
      for (int k = 0; k < kInvocations; ++k) (void)rt.submit(in, out);
    });
  }
  threads.emplace_back([&] {
    start.arrive_and_wait();
    for (int k = 0; k < kInvocations; ++k) {
      EXPECT_FALSE(rt.report().empty());
      (void)rt.snapshot_decisions();
    }
  });
  for (auto& th : threads) th.join();

  unsigned total = 0;
  for (const auto& id : rt.site_ids()) total += rt.site(id).invocations();
  EXPECT_EQ(total, static_cast<unsigned>(kSubmitters * kInvocations));
  EXPECT_EQ(rt.snapshot_decisions().size(),
            static_cast<std::size_t>(kSubmitters));
}

TEST(RuntimeConcurrency, ConcurrentWarmStartsAdoptCachedDecisions) {
  // A learner runtime persists its decisions (its destructor drains them
  // to the shard directory); a restarted runtime on the same directory
  // warm-starts every site under concurrent first submissions.
  constexpr int kThreads = 6;
  const ScopedTempDir dir;
  RuntimeOptions o = quiet_options();
  o.decision_cache_dir = dir.path();

  std::vector<ReductionInput> inputs;
  std::vector<std::vector<double>> refs;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(site_input(200 + t));
    refs.emplace_back(inputs.back().pattern.dim, 0.0);
    run_sequential(inputs.back(), refs.back());
  }

  {
    Runtime learner(o);
    std::vector<double> out;
    for (const auto& in : inputs) {
      out.assign(in.pattern.dim, 0.0);
      (void)learner.submit(in, out);
    }
  }

  Runtime rt(o);
  EXPECT_EQ(rt.decision_store().size(), static_cast<std::size_t>(kThreads));

  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ReductionInput& in = inputs[static_cast<std::size_t>(t)];
      std::vector<double> out(in.pattern.dim, 0.0);
      start.arrive_and_wait();
      (void)rt.submit(in, out);
      expect_matches_reference(out, refs[static_cast<std::size_t>(t)],
                               "warm");
    });
  }
  for (auto& th : threads) th.join();

  for (const auto& in : inputs) {
    const AdaptiveReducer& r = rt.site(in.pattern.loop_id);
    EXPECT_TRUE(r.warm_started()) << in.pattern.loop_id;
    EXPECT_EQ(r.recharacterizations(), 0u) << in.pattern.loop_id;
  }
}

TEST(RuntimeConcurrency, SiteChurnStressStaysBoundedAndExactlyOnce) {
  // Serving-shaped churn: many more sites than the table may hold, so
  // registration, submission and LRU eviction race continuously (plus an
  // explicit sweeper thread). Two properties must survive, race-checked
  // under TSan: the live table stays bounded, and every submission
  // executes exactly once — each output matches its sequential reference,
  // and the lifetime-invocation counters, summed per site across live
  // state and evicted-site store snapshots, add up to the request count
  // (eviction persists a site's counter and a warm restart resumes it, so
  // churn can neither lose nor duplicate evidence). The store has a
  // directory, so the maintenance thread's async shard flushes race the
  // eviction too, and none of them may fail.
  constexpr std::size_t kSites = 96;
  constexpr std::size_t kCap = 12;
  constexpr int kThreads = 6;
  constexpr int kRequests = 250;  // per thread

  std::vector<ReductionInput> inputs;
  std::vector<std::vector<double>> refs;
  for (std::size_t s = 0; s < kSites; ++s) {
    workloads::SynthParams p;
    p.dim = 80 + 8 * (s % 24);  // small: TSan runs every access
    p.distinct = p.dim / 2;
    p.iterations = 160;
    p.refs_per_iter = 2;
    p.seed = 5000 + s;
    inputs.push_back(workloads::make_synthetic(p));
    inputs.back().pattern.loop_id = "churn/site" + std::to_string(s);
    refs.emplace_back(p.dim, 0.0);
    run_sequential(inputs.back(), refs.back());
  }

  const ScopedTempDir dir;
  RuntimeOptions o = quiet_options();
  o.max_sites = kCap;
  o.decision_cache_dir = dir.path();
  Runtime rt(o);

  std::atomic<bool> done{false};
  std::thread sweeper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)rt.sweep();
      EXPECT_LE(rt.site_count(), kCap + kThreads)
          << "table must stay bounded while churn is in flight";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Deterministic per-thread site walk covering the whole population.
      std::size_t idx = static_cast<std::size_t>(t) * 17 % kSites;
      std::vector<double> out;
      start.arrive_and_wait();
      for (int k = 0; k < kRequests; ++k) {
        const ReductionInput& in = inputs[idx];
        out.assign(in.pattern.dim, 0.0);
        (void)rt.submit(in, out);
        expect_matches_reference(out, refs[idx], "churn");
        idx = (idx + 7) % kSites;
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true);
  sweeper.join();

  // Quiesced: one sweep trims any transient overshoot back under the cap.
  (void)rt.sweep();
  EXPECT_LE(rt.site_count(), kCap);
  EXPECT_GT(rt.evictions(), 0u);

  // Exactly-once conservation across live sites and evicted snapshots
  // (live wins: a warm-started site's lifetime already includes the
  // store's count as its base).
  const DecisionCache persisted = rt.persisted_decisions();
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kSites; ++s) {
    const std::string id = "churn/site" + std::to_string(s);
    if (rt.has_live_site(id)) {
      total += rt.site(id).lifetime_invocations();
    } else if (const CachedDecision* d = persisted.find(id)) {
      total += d->invocations;
    }
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kRequests);

  (void)rt.flush_decisions();
  EXPECT_GT(rt.decision_store().flushes(), 0u);
  EXPECT_EQ(rt.decision_store().flush_failures(), 0u);
}

}  // namespace
}  // namespace sapp
