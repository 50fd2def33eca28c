// Kernel-backend ablation:
//   kernels — scalar vs SIMD Init/Merge/body primitives on the Fig. 3 sizes.
//
// The schemes' Init and Merge phases and every Loop phase's body run on
// the dispatched kernel backend (reductions/kernels.hpp). This experiment
// isolates those primitives: for every distinct reduction dimension of
// the Fig. 3 table and every backend usable on this host, it measures the
// neutral-fill and the sum-merge, reports per-element times and effective
// merge bandwidth; for the loop body it reports ns per iteration-step at
// the Fig. 3 body lengths 8 and 56. It verifies that every backend's
// merge and body scales are bitwise identical to scalar's (the backends
// vectorize without reassociating, so this must hold exactly). CI gates
// on `simd_merge_speedup` when a SIMD backend exists.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "reductions/access_pattern.hpp"
#include "reductions/kernels.hpp"
#include "repro/registry.hpp"
#include "workloads/paramsets.hpp"

namespace sapp::repro {

namespace {

ExperimentResult run_kernels(RunContext& ctx) {
  // The Fig. 3 dimensions are scale-independent (the paper sweeps them);
  // generate the rows at the smallest scale just to enumerate the sizes.
  std::vector<std::size_t> sizes;
  for (const auto& row : workloads::fig3_rows(0.01))
    sizes.push_back(row.workload.input.pattern.dim);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  if (ctx.tiny() && sizes.size() > 3)
    sizes.resize(3);  // smoke runs: smallest three sizes

  const std::vector<kernels::Backend> backends(
      kernels::usable_backends().begin(), kernels::usable_backends().end());
  const kernels::Backend original = kernels::active_backend();

  ExperimentResult res;
  ResultTable t("kernel_backends",
                {"Elements", "Backend", "ISA", "Fill ns/elem",
                 "Merge ns/elem", "Merge GB/s", "Speedup vs scalar"});

  // Per-backend merge speedups vs scalar, pooled over sizes (geomean).
  std::vector<double> log_speedup(backends.size(), 0.0);
  bool all_bitwise_equal = true;

  for (const std::size_t n : sizes) {
    AlignedBuffer<double> acc(n), src(n), ref(n);
    for (std::size_t i = 0; i < n; ++i)
      src[i] = 1.0 + 1e-3 * static_cast<double>(i % 1024);

    double scalar_merge_ns = 0.0;
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      SAPP_REQUIRE(kernels::set_backend(backends[bi]),
                   "usable backend refused by set_backend");
      const kernels::KernelOps& K = kernels::active();

      const double to_ns_per_elem = 1e9 / static_cast<double>(n);
      const double fill_ns = ctx.measure([&] {
        return seconds_per_call([&] { K.fill(acc.data(), n, 0.0); }) *
               to_ns_per_elem;
      });
      // Merge timing re-folds src into acc in place; the accumulating
      // values do not affect the memory-bound timing.
      K.fill(acc.data(), n, 0.0);
      const double merge_ns = ctx.measure([&] {
        return seconds_per_call(
                   [&] { K.merge_sum(acc.data(), src.data(), n); }) *
               to_ns_per_elem;
      });
      if (backends[bi] == kernels::Backend::kScalar) scalar_merge_ns = merge_ns;

      // Bitwise check: one fill + one merge must match scalar exactly.
      K.fill(acc.data(), n, 0.0);
      K.merge_sum(acc.data(), src.data(), n);
      if (backends[bi] == kernels::Backend::kScalar) {
        std::memcpy(ref.data(), acc.data(), n * sizeof(double));
      } else if (std::memcmp(ref.data(), acc.data(), n * sizeof(double)) != 0) {
        all_bitwise_equal = false;
      }

      const double speedup =
          merge_ns > 0.0 && scalar_merge_ns > 0.0 ? scalar_merge_ns / merge_ns
                                                  : 1.0;
      log_speedup[bi] += std::log(speedup);
      // 3 streams per merged element: read acc, read src, write acc.
      const double gbps = 3.0 * sizeof(double) / merge_ns;
      t.add_row({static_cast<double>(n), std::string(K.name),
                 std::string(K.isa), round_to(fill_ns, 3),
                 round_to(merge_ns, 3), round_to(gbps, 2),
                 round_to(speedup, 2)});
    }
  }

  // Loop body: the scheme Loop phases' shape, kBodyBlock scales per call.
  // The bitwise check covers both forms, the id form on a shuffled list.
  ResultTable body("body_kernel",
                   {"Backend", "ISA", "Flops", "ns/iter-step",
                    "Speedup vs scalar"});
  const std::size_t iters = ctx.tiny() ? 4096 : 65536;
  AlignedBuffer<double> scales(iters), body_ref(iters);
  std::vector<std::uint32_t> ids(iters);
  for (std::size_t i = 0; i < iters; ++i)
    ids[i] = static_cast<std::uint32_t>((i * 2654435761u) % (iters * 7));
  for (const unsigned flops : {8u, 56u}) {
    double scalar_ns = 0.0;
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      SAPP_REQUIRE(kernels::set_backend(backends[bi]),
                   "usable backend refused by set_backend");
      const kernels::KernelOps& K = kernels::active();
      const auto run_range = [&] {
        for (std::size_t b = 0; b < iters; b += kernels::kBodyBlock)
          K.body(scales.data() + b, b,
                 std::min(kernels::kBodyBlock, iters - b), flops);
      };
      const double ns = ctx.measure([&] {
        return seconds_per_call(run_range) * 1e9 /
               static_cast<double>(iters * flops);
      });
      if (backends[bi] == kernels::Backend::kScalar) scalar_ns = ns;
      run_range();
      const bool range_equal =
          backends[bi] == kernels::Backend::kScalar ||
          std::memcmp(body_ref.data(), scales.data(),
                      iters * sizeof(double)) == 0;
      if (backends[bi] == kernels::Backend::kScalar)
        std::memcpy(body_ref.data(), scales.data(), iters * sizeof(double));
      K.body_ids(scales.data(), ids.data(), iters, flops);
      bool ids_equal = true;
      for (std::size_t i = 0; i < iters && ids_equal; ++i)
        ids_equal = std::bit_cast<std::uint64_t>(scales[i]) ==
                    std::bit_cast<std::uint64_t>(
                        iteration_scale(ids[i], flops));
      if (!range_equal || !ids_equal) all_bitwise_equal = false;
      body.add_row({std::string(K.name), std::string(K.isa),
                    static_cast<double>(flops), round_to(ns, 4),
                    round_to(ns > 0.0 && scalar_ns > 0.0 ? scalar_ns / ns
                                                         : 1.0,
                             2)});
    }
  }
  kernels::set_backend(original);
  res.tables.push_back(std::move(t));
  res.tables.push_back(std::move(body));

  res.metric("sizes", static_cast<double>(sizes.size()));
  res.metric("backends", static_cast<double>(backends.size()));
  res.metric("backends_bitwise_equal", all_bitwise_equal ? 1.0 : 0.0);
  double best_simd = 0.0;
  for (std::size_t bi = 0; bi < backends.size(); ++bi) {
    const double geo =
        std::exp(log_speedup[bi] / static_cast<double>(sizes.size()));
    res.metric(std::string("merge_speedup_") +
                   kernels::to_string(backends[bi]),
               round_to(geo, 3));
    if (backends[bi] != kernels::Backend::kScalar)
      best_simd = std::max(best_simd, geo);
  }
  // 0 when only scalar is usable — CI skips the speedup gate then.
  res.metric("simd_merge_speedup", round_to(best_simd, 3));
  res.note("Scalar is compiled with auto-vectorization disabled on x86 so "
           "the backend comparison is a true one-lane baseline "
           "(docs/backends.md).");
  res.note("Merge GB/s counts 3 streams per element (read acc + read src + "
           "write acc). All backends must agree bitwise: the merge kernels "
           "vectorize without reassociating.");
  res.note("body_kernel: ns per step of the loop-body chain "
           "(iteration_scale), computed 64 iterations per call as the Loop "
           "phases do. The SIMD kernels run 32 chains side by side; "
           "backends_bitwise_equal also requires every body scale to equal "
           "scalar's.");
  return res;
}

}  // namespace

void register_kernel_experiments(ExperimentRegistry& r) {
  r.add({.name = "kernels",
         .title = "kernel backend ablation (scalar vs SIMD)",
         .paper_ref = "ablation (§4 software schemes)",
         .description =
             "Measure the Init/Merge/body kernel primitives under every "
             "usable backend on the Fig. 3 reduction sizes; verify bitwise "
             "agreement and report SIMD-vs-scalar merge speedup.",
         .default_scale = 0.3,
         .run = run_kernels});
}

}  // namespace sapp::repro
