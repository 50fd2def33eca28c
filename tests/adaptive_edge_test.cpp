// Degenerate-input hardening of the adaptive core.
//
// The characterizer, both deciders, the cost model, the phase monitor and
// AdaptiveReducer::invoke must be well-defined — no division by zero, no
// NaN/Inf in stats or predictions, no crash — on the degenerate loops real
// applications produce: zero iterations (an empty work list this
// timestep), zero references (all iterations empty), and every reference
// hitting one element (a global accumulator loop).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/adaptive.hpp"
#include "core/runtime.hpp"

namespace sapp {
namespace {

AccessPattern zero_iteration_pattern(std::size_t dim = 64) {
  AccessPattern p;
  p.dim = dim;
  p.refs = Csr({0}, {});
  return p;
}

AccessPattern zero_ref_pattern(std::size_t dim = 64,
                               std::size_t iterations = 50) {
  AccessPattern p;
  p.dim = dim;
  std::vector<std::uint64_t> ptr(iterations + 1, 0);
  p.refs = Csr(std::move(ptr), {});
  return p;
}

AccessPattern single_element_pattern(std::size_t dim = 64,
                                     std::size_t iterations = 40) {
  AccessPattern p;
  p.dim = dim;
  std::vector<std::uint64_t> ptr{0};
  std::vector<std::uint32_t> idx;
  for (std::size_t i = 0; i < iterations; ++i) {
    idx.push_back(7);  // every reference lands on one element
    ptr.push_back(idx.size());
  }
  p.refs = Csr(std::move(ptr), std::move(idx));
  return p;
}

ReductionInput input_for(AccessPattern p) {
  ReductionInput in;
  in.pattern = std::move(p);
  in.values.assign(in.pattern.num_refs(), 1.5);
  return in;
}

void expect_finite_stats(const PatternStats& s, const char* what) {
  EXPECT_TRUE(std::isfinite(s.mo)) << what;
  EXPECT_TRUE(std::isfinite(s.con)) << what;
  EXPECT_TRUE(std::isfinite(s.sp)) << what;
  EXPECT_TRUE(std::isfinite(s.dim_ratio)) << what;
  EXPECT_TRUE(std::isfinite(s.chr)) << what;
  EXPECT_TRUE(std::isfinite(s.chd_gini)) << what;
  EXPECT_TRUE(std::isfinite(s.touched_per_thread)) << what;
  EXPECT_TRUE(std::isfinite(s.shared_fraction)) << what;
  EXPECT_TRUE(std::isfinite(s.lw_replication)) << what;
  EXPECT_TRUE(std::isfinite(s.lw_imbalance)) << what;
}

void expect_finite_predictions(const Decision& d, const char* what) {
  ASSERT_FALSE(d.predictions.empty()) << what;
  for (const auto& p : d.predictions) {
    EXPECT_TRUE(std::isfinite(p.plan_s)) << what;
    EXPECT_TRUE(std::isfinite(p.init_s)) << what;
    EXPECT_TRUE(std::isfinite(p.loop_s)) << what;
    EXPECT_TRUE(std::isfinite(p.merge_s)) << what;
  }
}

class AdaptiveEdge : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdaptiveEdge, CharacterizeAndDecideAreFiniteOnDegenerates) {
  const unsigned threads = GetParam();
  const MachineCoeffs mc = MachineCoeffs::defaults();
  const struct {
    const char* name;
    AccessPattern pattern;
  } cases[] = {
      {"zero-iterations", zero_iteration_pattern()},
      {"zero-refs", zero_ref_pattern()},
      {"single-element", single_element_pattern()},
  };
  for (const auto& c : cases) {
    const PatternStats s = characterize(c.pattern, threads);
    expect_finite_stats(s, c.name);
    const Decision model = decide_model(s, c.pattern.body_flops, mc);
    expect_finite_predictions(model, c.name);
    const Decision rules = decide_rules(s);
    EXPECT_FALSE(rules.rationale.empty()) << c.name;
  }
}

TEST_P(AdaptiveEdge, CharacterizeExactCountsOnDegenerates) {
  const unsigned threads = GetParam();
  const PatternStats none = characterize(zero_iteration_pattern(), threads);
  EXPECT_EQ(none.iterations, 0u);
  EXPECT_EQ(none.refs, 0u);
  EXPECT_EQ(none.distinct, 0u);
  EXPECT_DOUBLE_EQ(none.mo, 0.0);
  EXPECT_DOUBLE_EQ(none.con, 0.0);
  EXPECT_DOUBLE_EQ(none.sp, 0.0);

  const PatternStats empty = characterize(zero_ref_pattern(64, 50), threads);
  EXPECT_EQ(empty.iterations, 50u);
  EXPECT_EQ(empty.refs, 0u);
  EXPECT_DOUBLE_EQ(empty.mo, 0.0);

  const PatternStats one =
      characterize(single_element_pattern(64, 40), threads);
  EXPECT_EQ(one.distinct, 1u);
  EXPECT_DOUBLE_EQ(one.con, 40.0);
  EXPECT_DOUBLE_EQ(one.chd_gini, 0.0);  // one element: no skew to measure
}

TEST_P(AdaptiveEdge, InvokeHandlesDegeneratesAndStaysCorrect) {
  const unsigned threads = GetParam();
  ThreadPool pool(threads);
  const struct {
    const char* name;
    ReductionInput in;
  } cases[] = {
      {"zero-iterations", input_for(zero_iteration_pattern())},
      {"zero-refs", input_for(zero_ref_pattern())},
      {"single-element", input_for(single_element_pattern())},
  };
  for (const auto& c : cases) {
    AdaptiveReducer red(pool, MachineCoeffs::defaults());
    std::vector<double> out(c.in.pattern.dim, 0.0);
    std::vector<double> ref(c.in.pattern.dim, 0.0);
    run_sequential(c.in, ref);
    for (int k = 0; k < 3; ++k) {
      std::fill(out.begin(), out.end(), 0.0);
      const SchemeResult r = red.invoke(c.in, out);
      EXPECT_TRUE(std::isfinite(r.total_with_inspect_s())) << c.name;
    }
    for (std::size_t e = 0; e < ref.size(); ++e)
      ASSERT_NEAR(ref[e], out[e], 1e-9) << c.name << " element " << e;
    EXPECT_EQ(red.invocations(), 3u) << c.name;
    expect_finite_predictions(red.decision(), c.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AdaptiveEdge, ::testing::Values(1u, 3u));

TEST(CharacterizeEdge, HugeThreadCountClampsInsteadOfAborting) {
  // The owner classification packs thread ids into a byte; a > 253-thread
  // pool must degrade to approximate sharing stats, not crash.
  const PatternStats s = characterize(single_element_pattern(64, 40), 300);
  expect_finite_stats(s, "300 threads");
  EXPECT_EQ(s.threads, 300u);
  EXPECT_EQ(s.distinct, 1u);
}

TEST(PhaseMonitorEdge, ZeroRefBaseIsWellDefined) {
  PhaseMonitor mon;
  const auto base = PatternSignature::of(zero_ref_pattern(64, 50));
  EXPECT_EQ(base.refs, 0u);
  mon.rebase(base);
  // Observing the same empty pattern forever must never trigger and never
  // produce a non-finite accumulator.
  for (int k = 0; k < 50; ++k) {
    EXPECT_FALSE(mon.observe(base));
    EXPECT_TRUE(std::isfinite(mon.accumulated()));
    EXPECT_DOUBLE_EQ(mon.accumulated(), 0.0);
  }
  // The loop coming back to life (refs 0 -> many) is a structural change:
  // drift accumulates and triggers re-characterization.
  const auto alive = PatternSignature::of(single_element_pattern(64, 40));
  bool triggered = false;
  for (int k = 0; k < 10 && !triggered; ++k) triggered = mon.observe(alive);
  EXPECT_TRUE(triggered);
  EXPECT_TRUE(std::isfinite(mon.accumulated()));
}

TEST(PhaseMonitorEdge, ZeroIterationSignature) {
  const auto sig = PatternSignature::of(zero_iteration_pattern());
  EXPECT_EQ(sig.iterations, 0u);
  EXPECT_EQ(sig.refs, 0u);
  EXPECT_EQ(sig.sampled_index_sum, 0u);
}

TEST(RuntimeEdge, SubmitDegenerateSites) {
  RuntimeOptions o;
  o.threads = 2;
  o.coeffs = MachineCoeffs::defaults();
  Runtime rt(o);
  auto empty = input_for(zero_iteration_pattern());
  empty.pattern.loop_id = "edge/empty";
  auto dense = input_for(single_element_pattern());
  dense.pattern.loop_id = "edge/one";
  std::vector<double> out(64, 0.0);
  (void)rt.submit(empty, out);
  (void)rt.submit(dense, out);
  EXPECT_EQ(rt.site_count(), 2u);
  EXPECT_EQ(rt.site("edge/empty").invocations(), 1u);
  // Degenerate sites must serialize into the decision cache and back.
  const DecisionCache cache = rt.snapshot_decisions();
  EXPECT_EQ(cache.size(), 2u);
  const auto round = DecisionCache::from_json(cache.to_json());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->size(), 2u);
}

}  // namespace
}  // namespace sapp
