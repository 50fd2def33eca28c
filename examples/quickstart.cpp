// Quickstart: parallelize an irregular reduction with the SmartApps
// runtime in ~30 lines.
//
// The loop being parallelized is the paper's canonical shape (Fig. 5):
//
//     for (i = 0; i < N; i++)
//       w[x[i]] += expression(i);
//
// The runtime characterizes the reference pattern, picks a scheme from the
// library (rep / lw / ll / sel / hash), and adapts if the pattern drifts.
#include <cstdio>

#include "core/runtime.hpp"
#include "workloads/workload.hpp"

int main() {
  using namespace sapp;

  // A skewed scatter-add: 200k updates into a 100k-element array.
  workloads::SynthParams params;
  params.dim = 100000;
  params.distinct = 30000;
  params.iterations = 200000;
  params.refs_per_iter = 1;
  params.zipf_theta = 0.6;
  params.seed = 42;
  const ReductionInput input = workloads::make_synthetic(params);

  // The runtime owns the thread pool and the calibrated cost models; a
  // loop site is created on its first submission.
  Runtime rt;
  std::vector<double> w(input.pattern.dim, 0.0);
  const SchemeResult r = rt.submit("quickstart", input, w);
  const AdaptiveReducer& loop = rt.site("quickstart");

  std::printf("selected scheme : %s\n", to_string(loop.current()).data());
  std::printf("rationale       : %s\n", loop.decision().rationale.c_str());
  std::printf("inspector       : %.3f ms\n", r.inspect_s * 1e3);
  std::printf("init/loop/merge : %.3f / %.3f / %.3f ms\n",
              r.phases.init_s * 1e3, r.phases.loop_s * 1e3,
              r.phases.merge_s * 1e3);
  std::printf("private storage : %.1f KB\n", r.private_bytes / 1024.0);

  // Sanity: compare against the sequential loop.
  std::vector<double> ref(input.pattern.dim, 0.0);
  run_sequential(input, ref);
  double max_err = 0.0;
  for (std::size_t e = 0; e < ref.size(); ++e)
    max_err = std::max(max_err, std::abs(ref[e] - w[e]));
  std::printf("max |err| vs sequential: %.2e\n", max_err);
  std::printf("\n%s", rt.report().c_str());
  return max_err < 1e-6 ? 0 : 1;
}
