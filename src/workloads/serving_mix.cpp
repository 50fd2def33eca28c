// Serving-mix site generator — the randomized population behind
// sapp_bench's serving_hot and serving_churn workloads.
//
// A serving workload is not one loop: it is thousands of distinct loop
// sites, each with its own shape, arriving interleaved from many client
// threads. Each index instantiates the synthetic reference-pattern engine
// with shape parameters drawn deterministically from (seed, index):
// array dimension, iteration count, references per iteration, histogram
// skew, locality, per-iteration body work and local-write legality all
// vary, so the population spans every regime the adaptive runtime can
// decide between (rep-friendly dense sweeps, sel/hash-friendly sparse
// scatters, skewed hot-element histograms, lw-illegal loops). Requests
// stay small on purpose — the harness measures runtime overheads
// (site-table, cache, eviction), not kernel bandwidth.
#include <algorithm>

#include "workloads/workload.hpp"

namespace sapp::workloads {

Workload make_serving_site(std::size_t index, double scale,
                           std::uint64_t seed) {
  // One throwaway draw per parameter keeps shapes independent.
  Rng rng(seed * 0x9E3779B97F4A7C15ull + index + 1);

  SynthParams p;
  // dim: log-uniform-ish in [256, 4096].
  p.dim = static_cast<std::size_t>(256) << rng.below(5);
  p.dim += rng.below(p.dim / 2);
  // Request cost: iterations in [150, 1200) scaled by the experiment
  // scale (floor keeps characterize sampling meaningful).
  const auto base_iters = 150 + rng.below(1050);
  p.iterations = std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(base_iters) * scale));
  p.refs_per_iter = 1 + static_cast<unsigned>(rng.below(3));
  // Touched set: from a tiny hot region (~dim/64) to most of the array.
  const std::size_t denom = 1 + rng.below(64);
  p.distinct = std::max<std::size_t>(8, p.dim / denom);
  // Skew: half the sites uniform, half zipf-skewed.
  p.zipf_theta = rng.uniform() < 0.5 ? 0.0 : 0.3 + rng.uniform() * 0.6;
  p.locality = 0.5 + rng.uniform() * 0.5;
  p.body_flops = static_cast<unsigned>(rng.below(12));
  p.lw_legal = rng.uniform() < 0.8;  // 1 in 5 loops forbids replication
  p.seed = seed ^ (index * 0x100000001b3ull);

  Workload w;
  w.app = "Serve";
  w.loop = "s" + std::to_string(index);
  w.variant = "dim=" + std::to_string(p.dim) +
              " iters=" + std::to_string(p.iterations) +
              " mo=" + std::to_string(p.refs_per_iter);
  w.input = make_synthetic(p);
  w.instr_per_iter = 40 + p.body_flops * 2;
  w.invocations = 1;
  tag_site(w);
  return w;
}

}  // namespace sapp::workloads
