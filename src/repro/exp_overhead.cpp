// Parallel-substrate overhead experiment:
//   overhead — fork-join dispatch latency and parallel_for throughput of
//              sapp::ThreadPool.
//
// Every phase time the repo reproduces (Fig. 3 rankings, the Fig. 6
// Init/Loop/Merge breakdown, Fig. 7 scalability) is measured on top of the
// fork-join substrate, so its per-region cost is a floor under all of them.
// The repro-smoke CI job holds `fork_join_ns_new` (ns per empty region)
// under an absolute ceiling.
#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "repro/registry.hpp"

namespace sapp::repro {

namespace {

/// Median-of-reps nanoseconds per region for `regions` back-to-back empty
/// dispatches.
double empty_region_ns(RunContext& ctx, ThreadPool& pool, int regions) {
  const double secs = ctx.measure([&] {
    Timer t;
    for (int k = 0; k < regions; ++k) pool.run([](unsigned) {});
    return t.seconds();
  });
  return secs / regions * 1e9;
}

/// Median-of-reps nanoseconds per parallel_for region of size n (daxpy
/// body: memory-streaming work representative of Init/Merge phases).
double daxpy_region_ns(RunContext& ctx, ThreadPool& pool,
                       std::vector<double>& y, const std::vector<double>& x,
                       std::size_t n, int regions) {
  const double secs = ctx.measure([&] {
    Timer t;
    for (int k = 0; k < regions; ++k)
      pool.parallel_for(n, [&](unsigned, Range rg) {
        for (std::size_t i = rg.begin; i < rg.end; ++i)
          y[i] = y[i] * 0.999999 + x[i];
      });
    return t.seconds();
  });
  return secs / regions * 1e9;
}

// The `overhead` experiment. The latency row prices empty-region
// dispatch; throughput rows sweep the region size to show where dispatch
// overhead stops mattering.
ExperimentResult run_overhead(RunContext& ctx) {
  ThreadPool& pool = ctx.pool();

  ExperimentResult res;

  // --- fork-join latency, empty regions -------------------------------
  const int regions = ctx.tiny() ? 2000 : 50000;
  const double ns_new = empty_region_ns(ctx, pool, regions);

  ResultTable lat("fork_join_latency",
                  {"Pool", "Threads", "Regions", "ns/region"});
  lat.add_row({"fork-join (this repo)", pool.size(),
               static_cast<double>(regions), round_to(ns_new, 1)});
  res.tables.push_back(std::move(lat));

  // --- parallel_for throughput vs region size -------------------------
  const std::size_t max_n = ctx.tiny() ? (1u << 14) : (1u << 21);
  std::vector<double> y(max_n, 1.0), x(max_n, 0.5);
  ResultTable tp("parallel_for_throughput",
                 {"Elements", "ns/region", "Melem/s"});
  for (std::size_t n = 1u << 10; n <= max_n; n <<= 2) {
    const int r = static_cast<int>(
        std::max<std::size_t>(4, (ctx.tiny() ? 1u << 16 : 1u << 22) / n));
    const double nn = daxpy_region_ns(ctx, pool, y, x, n, r);
    tp.add_row({static_cast<double>(n), round_to(nn, 1),
                round_to(n / nn * 1e3, 1)});
  }
  res.tables.push_back(std::move(tp));

  res.metric("threads", pool.size());
  res.metric("fork_join_ns_new", round_to(ns_new, 1));
  res.note("parallel_for rows show where dispatch cost is amortized as "
           "the region grows memory-bound (current pool only).");
  return res;
}

}  // namespace

void register_overhead_experiments(ExperimentRegistry& r) {
  r.add({.name = "overhead",
         .title = "fork-join substrate overhead (latency + throughput)",
         .paper_ref = "substrate (ROADMAP)",
         .description =
             "Measure per-region fork-join latency and parallel_for "
             "throughput of the zero-allocation pool.",
         .default_scale = 1.0,
         .run = run_overhead});
}

}  // namespace sapp::repro
