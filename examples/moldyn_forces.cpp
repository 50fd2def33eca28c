// Molecular-dynamics force loop with a *drifting* access pattern — the
// dynamic-application scenario of §4: "some codes ... modify their behavior
// during their execution because they simulate position dependent
// interactions between physical entities."
//
// Every timestep the particles move; every few steps the neighbour list is
// rebuilt, so the reduction's reference pattern changes gradually. The
// AdaptiveReducer's phase monitor accumulates the drift and
// re-characterizes (possibly re-selecting the scheme) only when it crosses
// the threshold — not on every step.
#include <cstdio>

#include "core/runtime.hpp"
#include "workloads/workload.hpp"

int main() {
  using namespace sapp;
  constexpr int kTimesteps = 24;
  constexpr int kRebuildEvery = 4;

  Runtime rt;
  // State is read back through the site; it is only ever submitted to from
  // this thread.
  const AdaptiveReducer& forces_loop = rt.site("ComputeForces");

  std::size_t particles = 3000;
  std::size_t pairs = 60000;
  std::vector<double> forces;

  std::printf("step  scheme  pairs   invoke_ms  rechar  switches\n");
  for (int step = 0; step < kTimesteps; ++step) {
    // The system slowly densifies: the neighbour list grows on rebuild
    // (position-dependent interactions).
    if (step % kRebuildEvery == 0 && step > 0) {
      pairs = pairs + pairs / 6;
      particles += 50;
    }
    const auto w = workloads::make_moldyn(
        /*dim=*/16384, /*distinct=*/particles, /*pairs=*/pairs,
        /*seed=*/1000 + step / kRebuildEvery);

    forces.assign(w.input.pattern.dim, 0.0);
    const SchemeResult r = rt.submit("ComputeForces", w.input, forces);
    std::printf("%4d  %-6s  %-6zu  %8.2f   %5u   %5u\n", step,
                to_string(forces_loop.current()).data(), pairs,
                r.total_s() * 1e3, forces_loop.recharacterizations(),
                forces_loop.scheme_switches());
  }

  std::printf("\nThe monitor re-characterized %u time(s) over %d steps "
              "(threshold-triggered, not per-step).\n",
              forces_loop.recharacterizations(), kTimesteps);
  std::printf("%s", rt.report().c_str());
  return 0;
}
