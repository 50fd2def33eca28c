// End-to-end smoke test: the README quickstart path must stay working.
//
// Constructs a Runtime, runs one submit(...) round trip on a synthetic
// irregular pattern, checks the result against the sequential reference,
// and checks that report() has content.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/runtime.hpp"
#include "workloads/workload.hpp"

namespace sapp {
namespace {

TEST(Smoke, RuntimeInvokeRoundTrip) {
  workloads::SynthParams params;
  params.dim = 20000;
  params.distinct = 8000;
  params.iterations = 50000;
  params.refs_per_iter = 1;
  params.zipf_theta = 0.6;
  params.seed = 7;
  const ReductionInput input = workloads::make_synthetic(params);

  RuntimeOptions opt;
  opt.threads = 4;
  // Deterministic coefficients for CI.
  opt.coeffs = MachineCoeffs::defaults();
  Runtime rt(opt);

  std::vector<double> w(input.pattern.dim, 0.0);
  const SchemeResult r = rt.submit("smoke", input, w);
  const AdaptiveReducer& site = rt.site("smoke");

  EXPECT_GE(r.total_s(), 0.0);
  EXPECT_EQ(site.invocations(), 1u);
  EXPECT_FALSE(site.decision().rationale.empty());

  // Numerically equivalent to the sequential loop.
  std::vector<double> ref(input.pattern.dim, 0.0);
  run_sequential(input, ref);
  double max_err = 0.0;
  for (std::size_t e = 0; e < ref.size(); ++e)
    max_err = std::max(max_err, std::abs(ref[e] - w[e]));
  EXPECT_LT(max_err, 1e-6);

  const std::string report = rt.report();
  EXPECT_FALSE(report.empty());
  EXPECT_NE(report.find("smoke"), std::string::npos);
}

}  // namespace
}  // namespace sapp
