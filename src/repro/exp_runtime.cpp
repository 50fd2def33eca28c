// Multi-site adaptive-runtime experiment:
//   adaptive_sites — N concurrent loop sites submitting through one
//                    sapp::Runtime, and cold- vs warm-start
//                    first-invocation latency with a persistent decision
//                    cache.
//
// The paper's Fig. 1 loop is per site; the ROADMAP north star is a system
// serving many sites under heavy traffic whose learned decisions survive
// process restarts. This experiment measures both halves:
//   * multi_site_scaling — application threads submitting concurrently to
//     disjoint (and deliberately contended) sites, steady-state
//     invocations/s through the shared pool;
//   * cold_vs_warm_start — the first invocation of every site pays
//     characterize + decide on a cold start; a warm start adopts the
//     cached decision and skips both. The CI repro-smoke gate requires
//     warm_speedup >= 2x.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/runtime.hpp"
#include "repro/registry.hpp"
#include "workloads/workload.hpp"

namespace sapp::repro {

namespace {

/// The experiment's loop sites: paper workload generators (sparse-biased —
/// the regime the decision cache exists for) plus synthetic fillers, all
/// carrying their loop_id site tag. Dimensions are fixed (they set the
/// characterizer's O(dim) sweep); iteration counts scale.
std::vector<ReductionInput> build_sites(double scale) {
  const auto iters = [&](std::size_t n) {
    return std::max<std::size_t>(200, static_cast<std::size_t>(
                                          static_cast<double>(n) * scale));
  };
  std::vector<ReductionInput> sites;
  sites.push_back(
      workloads::make_spice(120000, iters(8000), 11).input);
  sites.push_back(
      workloads::make_nbf(160000, 1400, iters(30000), 12).input);
  sites.push_back(
      workloads::make_spark98(90000, 7000, iters(60000), 13).input);
  sites.push_back(
      workloads::make_irreg(50000, 2500, iters(40000), 14).input);
  sites.push_back(
      workloads::make_moldyn(8000, 4000, iters(50000), 15).input);
  for (int k = 0; k < 3; ++k) {
    workloads::SynthParams p;
    p.dim = 200000 + 40000 * static_cast<std::size_t>(k);
    p.distinct = 900 + 150 * static_cast<std::size_t>(k);
    p.iterations = iters(6000);
    p.refs_per_iter = 3;
    p.zipf_theta = 0.4 * k;
    p.seed = 100 + static_cast<std::uint64_t>(k);
    p.lw_legal = (k % 2) == 0;
    auto in = workloads::make_synthetic(p);
    in.pattern.loop_id = "Synth/sparse" + std::to_string(k);
    sites.push_back(std::move(in));
  }
  return sites;
}

/// Submit every site once, back to back, and return the wall seconds —
/// the aggregate first-invocation cost the application pays at startup.
double first_pass_seconds(Runtime& rt,
                          const std::vector<ReductionInput>& sites,
                          std::vector<std::vector<double>>& outs) {
  Timer t;
  for (std::size_t s = 0; s < sites.size(); ++s)
    (void)rt.submit(sites[s], outs[s]);
  return t.seconds();
}

ExperimentResult run_adaptive_sites(RunContext& ctx) {
  const double scale = ctx.scale(0.3);
  const auto sites = build_sites(scale);
  const std::size_t S = sites.size();

  std::vector<std::vector<double>> outs;
  outs.reserve(S);
  for (const auto& in : sites) outs.emplace_back(in.pattern.dim, 0.0);

  ExperimentResult res;

  // --- multi-site scaling: concurrent submission ----------------------
  // T application threads share the S sites round-robin; every submission
  // goes through the one Runtime (striped site table, arbitrated pool).
  // The "contended" row points every thread at a single site, so it
  // measures pure per-site serialization.
  const int invocations_per_site = ctx.tiny() ? 3 : 12;
  ResultTable scaling("multi_site_scaling",
                      {"App threads", "Sites", "Invocations", "Wall ms",
                       "Invocations/s"});
  for (const bool contended : {false, true}) {
    for (const unsigned T : {1u, 2u, 4u}) {
      if (contended && T == 1) continue;  // identical to the T=1 row
      Runtime rt(ctx.runtime_options());
      // Untimed warm-up invocation per site: first invocations
      // characterize, the steady state is what scales.
      for (std::size_t s = 0; s < S; ++s)
        (void)rt.submit(sites[s], outs[s]);
      const std::size_t used_sites = contended ? 1 : S;
      // Contended: every thread hammers the one site. Round-robin: the S
      // sites are partitioned across the T threads.
      const std::size_t total =
          static_cast<std::size_t>(invocations_per_site) *
          (contended ? static_cast<std::size_t>(T) : S);
      const double secs = ctx.measure([&] {
        Timer t;
        std::vector<std::thread> threads;
        threads.reserve(T);
        for (unsigned a = 0; a < T; ++a) {
          threads.emplace_back([&, a] {
            for (int r = 0; r < invocations_per_site; ++r) {
              for (std::size_t s = contended ? 0 : a; s < used_sites;
                   s += contended ? 1 : T) {
                (void)rt.submit(sites[s], outs[s]);
              }
            }
          });
        }
        for (auto& th : threads) th.join();
        return t.seconds();
      });
      scaling.add_row({contended ? std::to_string(T) + " (1 shared site)"
                                 : std::to_string(T),
                       static_cast<double>(used_sites),
                       static_cast<double>(total), round_to(secs * 1e3, 2),
                       round_to(static_cast<double>(total) / secs, 1)});
    }
  }
  res.tables.push_back(std::move(scaling));

  // --- cold vs warm start --------------------------------------------
  // PID-qualified store directory, so concurrent sapp_repro runs on one
  // host never share a shard file.
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("sapp_adaptive_sites." + std::to_string(::getpid()) + ".cache"))
          .string();
  std::filesystem::remove_all(cache_dir);
  const auto warm_options = [&] {
    RuntimeOptions o = ctx.runtime_options();
    o.decision_cache_dir = cache_dir;
    return o;
  };

  // Learn the decisions once; the learner's destructor drains them to the
  // shard files, and every warm Runtime below is a restart on that
  // directory.
  {
    Runtime learner(warm_options());
    for (std::size_t s = 0; s < S; ++s)
      (void)learner.submit(sites[s], outs[s]);
  }

  // Per-site instrumented pass (cold vs warm), single shot for the table.
  ResultTable per_site("cold_vs_warm_per_site",
                       {"Site", "Scheme", "Cold first ms", "Warm first ms",
                        "Speedup", "Warm-started"});
  {
    Runtime cold(ctx.runtime_options());
    Runtime warm(warm_options());
    if (warm.decision_store().size() < S)
      throw std::runtime_error("learned decisions did not persist to " +
                               cache_dir);
    for (std::size_t s = 0; s < S; ++s) {
      Timer tc;
      (void)cold.submit(sites[s], outs[s]);
      const double cold_ms = tc.seconds() * 1e3;
      Timer tw;
      (void)warm.submit(sites[s], outs[s]);
      const double warm_ms = tw.seconds() * 1e3;
      const AdaptiveReducer& r = warm.site(sites[s].pattern.loop_id);
      per_site.add_row(
          {sites[s].pattern.loop_id, std::string(to_string(r.current())),
           round_to(cold_ms, 3), round_to(warm_ms, 3),
           round_to(warm_ms > 0 ? cold_ms / warm_ms : 0.0, 2),
           r.warm_started() ? "yes" : "no"});
    }
  }
  res.tables.push_back(std::move(per_site));

  // Median-of-reps aggregate: a fresh Runtime per repetition, timing only
  // the submissions (construction excluded for both variants).
  const double cold_s = ctx.measure([&] {
    Runtime rt(ctx.runtime_options());
    return first_pass_seconds(rt, sites, outs);
  });
  const double warm_s = ctx.measure([&] {
    Runtime rt(warm_options());
    return first_pass_seconds(rt, sites, outs);
  });

  // Sanity: a warm-started runtime must still compute correct sums.
  std::size_t mismatches = 0;
  {
    Runtime rt(warm_options());
    for (std::size_t s = 0; s < S; ++s) {
      std::vector<double> got(sites[s].pattern.dim, 0.0);
      std::vector<double> ref(sites[s].pattern.dim, 0.0);
      (void)rt.submit(sites[s], got);
      run_sequential(sites[s], ref);
      for (std::size_t e = 0; e < ref.size(); ++e) {
        const double tol = 1e-9 + 1e-9 * std::abs(ref[e]);
        if (std::abs(got[e] - ref[e]) > tol * 1e3) {
          ++mismatches;
          break;
        }
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  res.metric("sites", static_cast<double>(S));
  res.metric("threads", ctx.threads());
  res.metric("cold_first_invoke_ms", round_to(cold_s * 1e3, 3));
  res.metric("warm_first_invoke_ms", round_to(warm_s * 1e3, 3));
  res.metric("warm_speedup",
             round_to(warm_s > 0.0 ? cold_s / warm_s : 0.0, 2));
  res.metric("sanity_mismatches", static_cast<double>(mismatches));
  res.note("warm_speedup = cold / warm aggregate first-invocation wall "
           "time over all sites (median of reps, fresh Runtime per rep); "
           "the repro-smoke gate requires >= 2x. A warm start adopts the "
           "cached scheme and skips characterize + decide.");
  res.note("The decision cache is a sharded store in a temp directory: "
           "a learner Runtime drains it on destruction, every warm Runtime "
           "reloads it, and it is deleted afterwards; docs/adaptivity.md "
           "documents the shard format.");
  res.note("multi_site_scaling rows labelled '(1 shared site)' submit "
           "from T threads to one site (per-site serialization); numbered "
           "rows spread the sites round-robin over the T threads. "
           "Cross-site speedup needs multiple hardware threads — on a "
           "1-core host the rows measure arbitration overhead only.");
  return res;
}

}  // namespace

void register_runtime_experiments(ExperimentRegistry& r) {
  r.add({.name = "adaptive_sites",
         .title = "multi-site adaptive runtime + decision-cache warm start",
         .paper_ref = "Fig. 1 (ROADMAP)",
         .description =
             "Concurrent submission from many loop sites through one "
             "sapp::Runtime, and cold- vs warm-start first-invocation "
             "latency with the persistent decision cache.",
         .default_scale = 0.3,
         .run = run_adaptive_sites});
}

}  // namespace sapp::repro
