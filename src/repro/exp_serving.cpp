// Serving-scale stress experiment:
//   serving — many client threads hammer one sapp::Runtime with a churning
//             mix of thousands of distinct loop sites (randomized dims,
//             memory ops and tags from workloads::make_serving_site). A
//             sliding window over the site-index space keeps only a small
//             working set hot, so sites continually go cold, get evicted by
//             the LRU cap, persist their decision into the sharded store,
//             and later return to warm-start instead of re-characterizing.
//             Reps share one store directory: rep 0 populates it, every
//             later rep constructs a *fresh* Runtime against the same
//             shards — a process-restart drill that must reload every
//             persisted decision and warm-start returning sites with zero
//             mismatches. Submissions also run the in-flight reduction
//             checker at a low sample rate, so the serving numbers include
//             the checking tax and any silent corruption would surface as
//             check_failures.
//
// Reported: sustained throughput (median across reps) and p50/p90/p99
// site-invocation latency (log-linear histogram merged across reps and
// clients). The CI repro-smoke gate enforces a minimum throughput, a p99
// ceiling, zero correctness mismatches and a bounded site table — see
// .github/workflows/ci.yml and docs/serving.md.
//
// The adaptation feedback loop (mispredict/time-drift demotion) is parked:
// with 8 clients contending on one pool arbiter, measured invocation times
// are dominated by queueing noise and would demote decisions at random,
// gating nothing. This harness measures the serving substrate — site
// table, eviction, async persistence, warm starts; adaptivity-under-drift
// has its own experiment (phase_drift).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/runtime.hpp"
#include "repro/histogram.hpp"
#include "repro/registry.hpp"
#include "workloads/workload.hpp"

namespace sapp::repro {

namespace {

/// Shape of one serving run, derived from the workload scale.
struct ServingConfig {
  std::size_t sites = 0;          ///< distinct loop sites in the population
  std::size_t cap = 0;            ///< Runtime max_sites (LRU bound)
  unsigned clients = 0;           ///< submitter threads
  std::uint64_t requests = 0;     ///< total submissions across clients
  std::size_t window = 0;         ///< hot working-set width (in sites)
  std::size_t step = 0;           ///< window advance (in sites)
  std::uint64_t advance_every = 0;///< requests between window advances
  std::size_t verify_sites = 0;   ///< low-index sites spot-checked per request
};

ServingConfig make_config(RunContext& ctx, double scale) {
  ServingConfig c;
  c.sites = std::max<std::size_t>(
      64, static_cast<std::size_t>(2000.0 * scale));
  // Cap at a fifth of the population: most of the mix is cold at any
  // moment, so the table must evict constantly to stay bounded.
  c.cap = std::max<std::size_t>(16, c.sites / 5);
  c.clients = ctx.tiny() ? 4 : 8;
  c.requests = static_cast<std::uint64_t>(c.sites) * 12;
  c.window = std::max<std::size_t>(8, c.cap / 2);
  c.advance_every = 64;
  // Step sized so the window makes ~2.2 passes over the whole population:
  // every site is visited, evicted while cold, and revisited for a warm
  // start at least once.
  const std::uint64_t advances =
      std::max<std::uint64_t>(1, c.requests / c.advance_every);
  c.step = std::max<std::size_t>(1, (22 * c.sites) / (10 * advances));
  c.verify_sites = std::min<std::size_t>(24, c.sites);
  return c;
}

RuntimeOptions runtime_options(RunContext& ctx, const ServingConfig& c,
                               const std::string& cache_dir) {
  RuntimeOptions o = ctx.runtime_options();
  o.adaptive.mispredict_patience = 1 << 30;       // see file comment
  o.adaptive.monitor.time_drift_patience = 1 << 30;
  o.max_sites = c.cap;
  o.decision_cache_dir = cache_dir;
  o.flush_interval_s = 0.01;  // many async flushes within a ~1 s run
  // In-flight checking at a serving-realistic sample rate: cheap enough to
  // leave on, dense enough that sustained corruption could not hide.
  o.adaptive.check.enabled = true;
  o.adaptive.check.sample_rate = 0.05;
  return o;
}

/// Everything one timed repetition produces.
struct RepStats {
  double wall_s = 0.0;
  LatencyHistogram hist;  // merged across this rep's clients
  std::uint64_t evictions = 0;
  std::uint64_t warm_offers = 0;
  std::uint64_t flushes = 0;
  std::uint64_t flush_failures = 0;
  std::uint64_t mismatches = 0;
  std::size_t max_live = 0;
  std::size_t end_live = 0;
  std::size_t store_entries = 0;
  std::size_t store_entries_start = 0;  // reloaded from disk at construction
  std::uint64_t checks_run = 0;
  std::uint64_t check_failures = 0;
};

RepStats run_rep(RunContext& ctx, const ServingConfig& cfg,
                 const std::vector<ReductionInput>& inputs,
                 const std::vector<std::vector<double>>& refs,
                 const std::string& cache_dir, int rep) {
  Runtime rt(runtime_options(ctx, cfg, cache_dir));
  const std::size_t entries_start = rt.warm_entries();

  std::size_t max_dim = 0;
  for (const auto& in : inputs) max_dim = std::max(max_dim, in.pattern.dim);

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::size_t> max_live{0};
  std::atomic<bool> done{false};

  // Watch the live-site count while clients run: the LRU cap must hold
  // *during* churn, not just at the end. Transient overshoot is bounded by
  // the number of in-flight creations (one per client).
  std::thread watcher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::size_t live = rt.site_count();
      std::size_t seen = max_live.load(std::memory_order_relaxed);
      while (live > seen &&
             !max_live.compare_exchange_weak(seen, live)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<LatencyHistogram> hists(cfg.clients);
  std::vector<std::thread> clients;
  clients.reserve(cfg.clients);
  Timer wall;
  for (unsigned t = 0; t < cfg.clients; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(0xC0FFEEull + static_cast<std::uint64_t>(rep) * 977 + t);
      std::vector<double> buf(max_dim, 0.0);
      LatencyHistogram& hist = hists[t];
      for (;;) {
        const std::uint64_t r = next.fetch_add(1, std::memory_order_relaxed);
        if (r >= cfg.requests) break;
        // Sliding hot window: the window's base walks the population as
        // the global request counter advances; each request picks a site
        // uniformly inside the window.
        const std::size_t base = static_cast<std::size_t>(
            (r / cfg.advance_every) * cfg.step % cfg.sites);
        const std::size_t idx =
            (base + rng.below(static_cast<std::uint64_t>(cfg.window))) %
            cfg.sites;
        const ReductionInput& in = inputs[idx];
        const std::size_t dim = in.pattern.dim;
        std::fill_n(buf.begin(), dim, 0.0);
        Timer t_req;
        (void)rt.submit(in, std::span<double>(buf.data(), dim));
        hist.record(t_req.seconds());
        if (idx < cfg.verify_sites) {
          const std::vector<double>& ref = refs[idx];
          for (std::size_t e = 0; e < dim; ++e) {
            if (std::abs(buf[e] - ref[e]) >
                1e-9 + 1e-6 * std::abs(ref[e])) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  RepStats s;
  s.wall_s = wall.seconds();
  done.store(true);
  watcher.join();

  for (const auto& h : hists) s.hist.merge(h);
  s.evictions = rt.evictions();
  s.warm_offers = rt.warm_offers();
  s.store_entries_start = entries_start;
  s.checks_run = rt.checks_run();
  s.check_failures = rt.check_failures();
  s.mismatches = mismatches.load();
  s.max_live = std::max(max_live.load(), rt.site_count());
  s.end_live = rt.site_count();
  (void)rt.flush_decisions();
  s.flushes = rt.decision_store().flushes();
  s.flush_failures = rt.decision_store().flush_failures();
  s.store_entries = rt.decision_store().size();
  return s;
}

ExperimentResult run_serving(RunContext& ctx) {
  const double scale = ctx.scale(1.0);
  const ServingConfig cfg = make_config(ctx, scale);

  // The whole site population up front (clients only index into it). The
  // generator scales per-request cost with `scale`; the population shape
  // (dims, ops, skew) is scale-independent.
  std::vector<ReductionInput> inputs;
  inputs.reserve(cfg.sites);
  for (std::size_t i = 0; i < cfg.sites; ++i)
    inputs.push_back(
        workloads::make_serving_site(i, scale, /*seed=*/2026).input);

  // Sequential references for the spot-checked low-index sites: under
  // churn those sites are created, evicted and revived repeatedly, so a
  // matching sum proves exactly-once execution through every transition.
  std::vector<std::vector<double>> refs(cfg.verify_sites);
  for (std::size_t i = 0; i < cfg.verify_sites; ++i) {
    refs[i].assign(inputs[i].pattern.dim, 0.0);
    run_sequential(inputs[i], refs[i]);
  }

  // PID-qualified store directory shared by ALL reps: rep 0 starts cold
  // and populates the shards; every later rep constructs a fresh Runtime
  // against the same directory — a process restart. Concurrent sapp_repro
  // runs still never share a shard file. At least two reps always run so
  // the restart path is exercised even under --reps 1 / --tiny.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sapp_serving." + std::to_string(::getpid()) + ".cache"))
          .string();
  std::filesystem::remove_all(dir);

  const int reps = std::max(2, ctx.reps());
  std::vector<RepStats> stats;
  std::vector<double> rps;
  LatencyHistogram merged;
  ResultTable per_rep("serving_reps",
                      {"Rep", "Wall s", "Throughput req/s", "p50 us",
                       "p99 us", "Evictions", "Warm offers", "Flushes",
                       "Max live", "End live", "Store at start"});
  for (int rep = 0; rep < reps; ++rep) {
    RepStats s = run_rep(ctx, cfg, inputs, refs, dir, rep);
    const double tput =
        s.wall_s > 0.0 ? static_cast<double>(cfg.requests) / s.wall_s : 0.0;
    rps.push_back(tput);
    merged.merge(s.hist);
    per_rep.add_row({static_cast<double>(rep), round_to(s.wall_s, 3),
                     round_to(tput, 0), round_to(s.hist.quantile(0.5) * 1e6, 1),
                     round_to(s.hist.quantile(0.99) * 1e6, 1),
                     static_cast<double>(s.evictions),
                     static_cast<double>(s.warm_offers),
                     static_cast<double>(s.flushes),
                     static_cast<double>(s.max_live),
                     static_cast<double>(s.end_live),
                     static_cast<double>(s.store_entries_start)});
    stats.push_back(std::move(s));
  }
  {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::uint64_t evictions = 0, warm = 0, flushes = 0, flush_failures = 0,
                mismatches = 0, checks = 0, check_failures = 0;
  std::size_t max_live = 0, end_live = 0, store_entries = 0;
  // Restart aggregates cover reps >= 1 only: those Runtimes were built
  // against an already-populated store, so their start-of-rep reload count
  // and warm offers measure knowledge crossing a process boundary.
  std::uint64_t restart_warm = 0;
  std::size_t restart_entries_min = inputs.size() + 1;
  std::uint64_t restart_mismatches = 0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const RepStats& s = stats[i];
    evictions += s.evictions;
    warm += s.warm_offers;
    flushes += s.flushes;
    flush_failures += s.flush_failures;
    mismatches += s.mismatches;
    checks += s.checks_run;
    check_failures += s.check_failures;
    max_live = std::max(max_live, s.max_live);
    end_live = std::max(end_live, s.end_live);
    store_entries = std::max(store_entries, s.store_entries);
    if (i >= 1) {
      restart_warm += s.warm_offers;
      restart_entries_min =
          std::min(restart_entries_min, s.store_entries_start);
      restart_mismatches += s.mismatches;
    }
  }
  // Bounded: never more than cap + one in-flight creation per client
  // mid-run, and within the cap once the run quiesces.
  const bool bounded =
      max_live <= cfg.cap + cfg.clients && end_live <= cfg.cap;

  ExperimentResult res;
  res.tables.push_back(std::move(per_rep));
  res.metric("threads", ctx.threads());
  res.metric("client_threads", cfg.clients);
  res.metric("sites_distinct", static_cast<double>(cfg.sites));
  res.metric("site_cap", static_cast<double>(cfg.cap));
  res.metric("requests", static_cast<double>(cfg.requests));
  res.metric("reps", reps);
  res.metric("throughput_rps", round_to(median(rps), 0));
  res.metric("p50_ms", round_to(merged.quantile(0.5) * 1e3, 4));
  res.metric("p90_ms", round_to(merged.quantile(0.9) * 1e3, 4));
  res.metric("p99_ms", round_to(merged.quantile(0.99) * 1e3, 4));
  res.metric("max_latency_ms", round_to(merged.max() * 1e3, 3));
  res.metric("max_live_sites", static_cast<double>(max_live));
  res.metric("end_live_sites", static_cast<double>(end_live));
  res.metric("site_table_bounded", bounded ? 1 : 0);
  res.metric("evictions", static_cast<double>(evictions));
  res.metric("warm_reregistrations", static_cast<double>(warm));
  res.metric("store_flushes", static_cast<double>(flushes));
  res.metric("store_flush_failures", static_cast<double>(flush_failures));
  res.metric("store_entries_end", static_cast<double>(store_entries));
  res.metric("sanity_mismatches", static_cast<double>(mismatches));
  // A nonzero invalid count means a client produced a negative/NaN
  // latency — a harness timer bug, so fail the run loudly right here.
  SAPP_REQUIRE(merged.invalid_samples() == 0,
               "serving harness recorded invalid (negative/NaN) latencies");
  res.metric("invalid_latency_samples",
             static_cast<double>(merged.invalid_samples()));
  res.metric("restart_reps", reps - 1);
  res.metric("restart_store_entries_min",
             static_cast<double>(restart_entries_min));
  res.metric("restart_warm_offers", static_cast<double>(restart_warm));
  res.metric("restart_mismatches", static_cast<double>(restart_mismatches));
  res.metric("checks_run", static_cast<double>(checks));
  res.metric("check_failures", static_cast<double>(check_failures));
  res.note("Throughput is the median across reps; latency quantiles come "
           "from one log-linear histogram (~6% bucket error) merged across "
           "all clients and reps. All reps share one store directory: each "
           "rep constructs a fresh Runtime, so every rep after the first "
           "is a process restart that must reload the sharded store "
           "(restart_store_entries_min counts decisions present at "
           "construction) and warm-start returning sites "
           "(restart_warm_offers) with zero restart_mismatches.");
  res.note("Every submission runs the in-flight reduction checker at "
           "sample rate 0.05 (checks_run counts them); the reported "
           "throughput and latency therefore include the checking tax, "
           "and check_failures must stay zero on healthy hardware.");
  res.note("site_table_bounded requires max_live_sites <= site_cap + "
           "client_threads while clients run (transient overshoot is one "
           "in-flight creation per client) and end_live_sites <= site_cap "
           "after quiescing; the repro-smoke gate requires it, zero "
           "sanity_mismatches, a minimum throughput_rps and a p99_ms "
           "ceiling.");
  res.note("Adaptation feedback (mispredict/time-drift demotion) is "
           "parked: under 8-client contention measured times are queueing "
           "noise. The harness measures the serving substrate — striped "
           "site table, LRU eviction, sharded async persistence, warm "
           "starts; see phase_drift for adaptivity.");
  return res;
}

}  // namespace

void register_serving_experiments(ExperimentRegistry& r) {
  r.add({.name = "serving",
         .title = "serving-scale stress: site churn, eviction, async cache",
         .paper_ref = "§5 (ROADMAP)",
         .description =
             "Many client threads submit a churning mix of thousands of "
             "randomized sites through one Runtime with a bounded site "
             "table and sharded async-persisted decision cache, with "
             "in-flight reduction checking sampled on every submission; "
             "later reps restart against the same store in a fresh "
             "Runtime. Reports sustained throughput and p50/p99 "
             "invocation latency.",
         .default_scale = 1.0,
         .run = run_serving});
}

}  // namespace sapp::repro
