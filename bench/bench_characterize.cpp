// Micro-benchmarks: cost of the run-time pattern characterization (§4's
// "simple, fast ways to recognize" access patterns), exact vs. sampled and
// dense vs. sparse — the overhead SmartApps pays before it can decide. Uses
// Google Benchmark when available; otherwise CMake builds this file against
// the vendored microbench.hpp timer so the binary still exists on bare
// toolchains.
#if defined(SAPP_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#else
#include "microbench.hpp"
#endif

#include "core/characterize.hpp"
#include "core/phase_monitor.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace sapp;

ReductionInput input() {
  workloads::SynthParams p;
  p.dim = 500000;
  p.distinct = 80000;
  p.iterations = 400000;
  p.refs_per_iter = 2;
  p.seed = 77;
  return workloads::make_synthetic(p);
}

void BM_CharacterizeExact(benchmark::State& state) {
  const auto in = input();
  for (auto _ : state) {
    const PatternStats s = characterize(in.pattern, 8);
    benchmark::DoNotOptimize(s.distinct);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.pattern.num_refs()));
}

// Irreg/do100's sparsest Fig. 3 row at scale 0.3: 12,000 references over
// a 2,000,000-element array. Items are references, as in the dense case, so
// any per-element (O(dim)) cost shows as a lower rate here.
void BM_CharacterizeSparse(benchmark::State& state) {
  const auto w = workloads::make_irreg(2000000, 5000, 6000, 2006);
  for (auto _ : state) {
    const PatternStats s = characterize(w.input.pattern, 8);
    benchmark::DoNotOptimize(s.distinct);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(w.input.pattern.num_refs()));
}

void BM_CharacterizeSampled(benchmark::State& state) {
  const auto in = input();
  CharacterizeOptions opt;
  opt.sample_stride = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const PatternStats s = characterize(in.pattern, 8, opt);
    benchmark::DoNotOptimize(s.distinct);
  }
  state.SetLabel("stride=" + std::to_string(state.range(0)));
}

void BM_PatternSignature(benchmark::State& state) {
  const auto in = input();
  for (auto _ : state) {
    const auto sig = PatternSignature::of(in.pattern);
    benchmark::DoNotOptimize(sig.sampled_index_sum);
  }
}

}  // namespace

BENCHMARK(BM_CharacterizeExact)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CharacterizeSparse)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CharacterizeSampled)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PatternSignature)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
