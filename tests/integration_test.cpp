// End-to-end integration tests: the adaptive runtime must produce
// sequential-equivalent results on every official workload row, whatever
// scheme it selects, across deciders and thread counts.
#include <gtest/gtest.h>

#include <cmath>

#include "core/runtime.hpp"
#include "sim/codegen.hpp"
#include "workloads/paramsets.hpp"

namespace sapp {
namespace {

ThreadPool& shared_pool() {
  static ThreadPool pool(3);
  return pool;
}

const std::vector<workloads::Fig3Row>& tiny_rows() {
  // Tiny scale: correctness, not performance.
  static const auto rows = workloads::fig3_rows(0.02, 31415);
  return rows;
}

class AdaptiveOnFig3 : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveOnFig3, MatchesSequential) {
  const auto& row = tiny_rows()[static_cast<std::size_t>(GetParam())];
  const ReductionInput& in = row.workload.input;

  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);

  AdaptiveReducer red(shared_pool(), MachineCoeffs::defaults());
  std::vector<double> out(in.pattern.dim, 0.0);
  red.invoke(in, out);

  const double tol = 1e-9 * std::max<double>(1.0, in.pattern.num_refs());
  for (std::size_t e = 0; e < ref.size(); e += 7)
    ASSERT_NEAR(ref[e], out[e], tol)
        << row.workload.app << " " << row.workload.variant << " via "
        << to_string(red.current());
}

TEST_P(AdaptiveOnFig3, RuleDeciderAlsoCorrect) {
  const auto& row = tiny_rows()[static_cast<std::size_t>(GetParam())];
  const ReductionInput& in = row.workload.input;
  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);

  AdaptiveReducer red(shared_pool(), MachineCoeffs::defaults(),
                      AdaptiveOptions{.use_rule_decider = true});
  std::vector<double> out(in.pattern.dim, 0.0);
  red.invoke(in, out);
  const double tol = 1e-9 * std::max<double>(1.0, in.pattern.num_refs());
  for (std::size_t e = 0; e < ref.size(); e += 13)
    ASSERT_NEAR(ref[e], out[e], tol);
}

std::string row_name(const ::testing::TestParamInfo<int>& info) {
  const auto& w = tiny_rows()[static_cast<std::size_t>(info.param)].workload;
  return w.app + "_" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllRows, AdaptiveOnFig3, ::testing::Range(0, 21),
                         row_name);

// Selected scheme never violates applicability (lw on Spice rows).
TEST(AdaptiveOnFig3Suite, NeverSelectsIllegalScheme) {
  for (const auto& row : tiny_rows()) {
    const ReductionInput& in = row.workload.input;
    AdaptiveReducer red(shared_pool(), MachineCoeffs::defaults());
    std::vector<double> out(in.pattern.dim, 0.0);
    red.invoke(in, out);
    if (!in.pattern.iteration_replication_legal) {
      EXPECT_NE(red.current(), SchemeKind::kLocalWrite)
          << row.workload.app << " " << row.workload.variant;
    }
  }
}

// Repeated invocations through the runtime stay correct and stable.
TEST(RuntimeIntegration, MultiSiteRepeatedInvocations) {
  RuntimeOptions opt;
  opt.threads = 3;
  opt.coeffs = MachineCoeffs::defaults();
  Runtime rt(opt);
  const auto& rows = tiny_rows();
  const auto& a = rows[0].workload.input;   // Irreg
  const auto& b = rows[17].workload.input;  // Spice

  std::vector<double> ref_a(a.pattern.dim, 0.0), ref_b(b.pattern.dim, 0.0);
  run_sequential(a, ref_a);
  run_sequential(b, ref_b);

  std::vector<double> out_a(a.pattern.dim), out_b(b.pattern.dim);
  for (int k = 0; k < 5; ++k) {
    std::fill(out_a.begin(), out_a.end(), 0.0);
    std::fill(out_b.begin(), out_b.end(), 0.0);
    (void)rt.submit("irreg", a, out_a);
    (void)rt.submit("spice", b, out_b);
    for (std::size_t e = 0; e < ref_a.size(); e += 101)
      ASSERT_NEAR(ref_a[e], out_a[e], 1e-6);
    for (std::size_t e = 0; e < ref_b.size(); e += 101)
      ASSERT_NEAR(ref_b[e], out_b[e], 1e-6);
  }
  EXPECT_EQ(rt.site("irreg").invocations(), 5u);
  EXPECT_EQ(rt.site("irreg").recharacterizations(), 1u);
}

// Simulator x software cross-check: the PCLR machine and the software
// schemes compute the same reduction for the same workload.
TEST(CrossStack, SimulatorAgreesWithSoftwareSchemes) {
  const auto& row = tiny_rows()[4];  // Nbf
  const ReductionInput& in = row.workload.input;

  std::vector<double> sw(in.pattern.dim, 0.0);
  make_scheme(SchemeKind::kSelective)->run(in, shared_pool(), sw);

  std::vector<double> hw(in.pattern.dim, 0.0);
  sim::simulate_reduction(row.workload, sim::Mode::kHw,
                          sim::MachineConfig::paper(4), hw);

  for (std::size_t e = 0; e < sw.size(); e += 3)
    ASSERT_NEAR(sw[e], hw[e], 1e-9 * std::max<double>(
                                         1.0, in.pattern.num_refs()));
}

}  // namespace
}  // namespace sapp
