// Tests for the reduction simplification pass (frontend/simplify.hpp):
// shape recognition, the three rewritten executors against the reference
// interpreter (bitwise for min/max, tolerance for +), every rejection
// diagnostic, and the untouched-fallback contract through
// submit_simplified — rejected sum reductions must reach the adaptive
// runtime and agree with the naive reference, everything else must run
// through the serial interpreter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "frontend/simplify.hpp"
#include "workloads/workload.hpp"

namespace sapp::frontend {
namespace {

using Op = Statement::Op;

Runtime& test_runtime() {
  static Runtime rt([] {
    RuntimeOptions o;
    o.threads = 2;
    o.coeffs = MachineCoeffs::defaults();
    return o;
  }());
  return rt;
}

/// |a-b| <= tol * max(1, |a|, |b|) everywhere (the + rewrites reassociate).
void expect_close(const std::vector<double>& got,
                  const std::vector<double>& want, double tol = 1e-9) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max({1.0, std::abs(got[i]), std::abs(want[i])});
    EXPECT_NEAR(got[i], want[i], tol * scale) << "element " << i;
  }
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

/// Nonzero initial accumulator contents: the rewrites must fold into
/// whatever the caller left in `out`, not overwrite it.
std::vector<double> initial_out(std::size_t dim) {
  std::vector<double> out(dim);
  for (std::size_t k = 0; k < dim; ++k)
    out[k] = 0.3 * static_cast<double>((k % 7) + 1);
  return out;
}

/// Run `wl` through the public entry point and the reference interpreter
/// from identical initial contents; returns (simplified result, reference).
struct RunPair {
  FrontendResult fr;
  std::vector<double> got;
  std::vector<double> want;
};

RunPair run_both(const workloads::LoopWorkload& wl) {
  RunPair p;
  p.got = initial_out(wl.dim);
  p.want = p.got;
  p.fr = submit_simplified(test_runtime(), wl.nest, wl.target, wl.dim,
                           wl.bindings, p.got);
  interpret_loop(wl.nest, wl.target, wl.dim, wl.bindings, p.want);
  return p;
}

// ---------------- recognition ----------------

TEST(SimplifyRecognize, PrefixShapeBecomesScan) {
  const auto wl = workloads::make_prefix_sum(64, 7);
  const SimplifyAnalysis sa = analyze_simplify(wl.nest, analyze(wl.nest));
  const SiteSimplification* s = sa.find("out");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->form, SimplifiedForm::kPrefixScan);
  EXPECT_TRUE(s->reason.empty());
}

TEST(SimplifyRecognize, SlidingShapeSplitsByOperator) {
  const auto sum = workloads::make_sliding_window(64, 8, 7);
  const SimplifyAnalysis ssum = analyze_simplify(sum.nest, analyze(sum.nest));
  EXPECT_EQ(ssum.find("out")->form, SimplifiedForm::kSlidingSum);
  EXPECT_EQ(ssum.find("out")->window, 8);

  for (const Op op : {Op::kMaxAssign, Op::kMinAssign}) {
    const auto ext = workloads::make_sliding_window(64, 8, 7, op);
    const SimplifyAnalysis se = analyze_simplify(ext.nest, analyze(ext.nest));
    EXPECT_EQ(se.find("out")->form, SimplifiedForm::kSlidingExtremum);
  }
}

// ---------------- rewritten executors vs the interpreter ----------------

TEST(SimplifyExecute, PrefixScanMatchesReference) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{57}, std::size_t{256}}) {
    const RunPair p = run_both(workloads::make_prefix_sum(n, 11));
    EXPECT_TRUE(p.fr.simplified);
    EXPECT_EQ(p.fr.form, SimplifiedForm::kPrefixScan);
    expect_close(p.got, p.want);
  }
}

TEST(SimplifyExecute, SlidingSumMatchesReference) {
  for (const std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{9},
                              std::size_t{64}}) {
    const RunPair p = run_both(workloads::make_sliding_window(50, w, 13));
    EXPECT_TRUE(p.fr.simplified);
    EXPECT_EQ(p.fr.form, SimplifiedForm::kSlidingSum);
    expect_close(p.got, p.want);
  }
}

TEST(SimplifyExecute, ExtremaAreBitwiseIdentical) {
  // min/max rewrites reorder comparisons, never arithmetic: multiplication
  // by the positive per-iteration scale is monotone, so the selected
  // element — and therefore every output bit — must match the naive loop.
  for (const Op op : {Op::kMaxAssign, Op::kMinAssign}) {
    const RunPair scan = run_both(workloads::make_prefix_sum(123, 17, op));
    EXPECT_TRUE(scan.fr.simplified);
    expect_bitwise(scan.got, scan.want);

    const RunPair deq = run_both(workloads::make_sliding_window(123, 10, 17, op));
    EXPECT_TRUE(deq.fr.simplified);
    EXPECT_EQ(deq.fr.form, SimplifiedForm::kSlidingExtremum);
    expect_bitwise(deq.got, deq.want);
  }
}

TEST(SimplifyExecute, EdgeSizes) {
  // n = 0: nothing to do, out untouched.
  const auto empty = workloads::make_prefix_sum(0, 3);
  std::vector<double> out;
  const FrontendResult fr = submit_simplified(
      test_runtime(), empty.nest, empty.target, empty.dim, empty.bindings,
      out);
  EXPECT_TRUE(fr.simplified);

  // n = 1, and a window at least as wide as the whole input (padded by
  // the generator): both collapse to single-window cases.
  for (const auto& wl :
       {workloads::make_prefix_sum(1, 3),
        workloads::make_sliding_window(1, 1, 3),
        workloads::make_sliding_window(6, 32, 3),
        workloads::make_sliding_window(6, 32, 3, Op::kMaxAssign)}) {
    const RunPair p = run_both(wl);
    EXPECT_TRUE(p.fr.simplified) << wl.nest.name;
    expect_close(p.got, p.want);
  }
}

// ---------------- rejection diagnostics + fallback ----------------

/// Assert the site is rejected with `reason_fragment`, then check the
/// fallback contract: submit_simplified must still produce the reference
/// interpreter's result (via the runtime for + reductions, serially
/// otherwise).
void expect_rejected(const LoopNest& nest, const std::string& target,
                     std::size_t dim, const Bindings& bindings,
                     const std::string& reason_fragment,
                     bool expect_runtime) {
  const SimplifyAnalysis sa = analyze_simplify(nest, analyze(nest));
  const SiteSimplification* s = sa.find(target);
  ASSERT_NE(s, nullptr) << reason_fragment;
  EXPECT_EQ(s->form, SimplifiedForm::kNone) << reason_fragment;
  EXPECT_NE(s->reason.find(reason_fragment), std::string::npos)
      << "actual reason: " << s->reason;

  std::vector<double> got = initial_out(dim), want = got;
  const FrontendResult fr =
      submit_simplified(test_runtime(), nest, target, dim, bindings, got);
  EXPECT_FALSE(fr.simplified);
  EXPECT_NE(fr.fallback_reason.find(reason_fragment), std::string::npos);
  EXPECT_EQ(fr.used_runtime, expect_runtime) << reason_fragment;
  interpret_loop(nest, target, dim, bindings, want);
  expect_close(got, want);
}

TEST(SimplifyReject, FlatSiteFallsBackToRuntime) {
  // The classic flat shape (fig. 5) has no inner range — exactly what the
  // adaptive runtime exists for, so the fallback must reach it untouched.
  LoopNest l;
  l.name = "flat";
  l.iterations = 40;
  l.body.push_back({"w", IndexExpr::indirect("x"), Op::kPlusAssign,
                    ValueExpr::computed()});
  Bindings b;
  b.index_arrays["x"] = std::vector<std::uint32_t>(40);
  for (std::uint32_t i = 0; i < 40; ++i)
    b.index_arrays["x"][i] = (i * 13) % 8;
  expect_rejected(l, "w", 8, b, "no inner accumulation range",
                  /*expect_runtime=*/true);
}

TEST(SimplifyReject, TargetSubscriptMustBeTheLoopIndex) {
  auto wl = workloads::make_prefix_sum(16, 5);
  wl.nest.body[0].index = IndexExpr::constant(0);
  expect_rejected(wl.nest, "out", wl.dim, wl.bindings,
                  "target subscript is not the outer loop index",
                  /*expect_runtime=*/true);
}

TEST(SimplifyReject, ValueMustStreamTheInnerIndex) {
  auto wl = workloads::make_prefix_sum(16, 5);
  // Reads in[i] inside the inner range: no reuse between iterations.
  wl.nest.body[0].value =
      ValueExpr::array_read("in", IndexExpr::loop_index());
  expect_rejected(wl.nest, "out", wl.dim, wl.bindings,
                  "value does not stream the inner index",
                  /*expect_runtime=*/true);
}

TEST(SimplifyReject, ProductPrefixDoesNotCommuteWithTheScale) {
  // A product scan would need scale^count, which the running fold cannot
  // track exactly — and *= is outside the runtime's ⊕ = + schemes, so the
  // fallback is the serial interpreter.
  const auto wl = workloads::make_prefix_sum(16, 5, Op::kMulAssign);
  expect_rejected(wl.nest, "out", wl.dim, wl.bindings,
                  "operator does not commute with the per-iteration scale",
                  /*expect_runtime=*/false);
}

TEST(SimplifyReject, ProductSlidingWindowIsNotInvertible) {
  const auto wl = workloads::make_sliding_window(16, 4, 5, Op::kMulAssign);
  expect_rejected(wl.nest, "out", wl.dim, wl.bindings,
                  "non-invertible operator over a sliding window",
                  /*expect_runtime=*/false);
}

TEST(SimplifyReject, EmptySlidingWindow) {
  auto wl = workloads::make_sliding_window(16, 4, 5);
  wl.nest.body[0].inner = InnerRange{AffineExpr::of_i(4), AffineExpr::of_i(4)};
  const SimplifyAnalysis sa = analyze_simplify(wl.nest, analyze(wl.nest));
  EXPECT_EQ(sa.find("out")->form, SimplifiedForm::kNone);
  EXPECT_NE(sa.find("out")->reason.find("empty sliding window"),
            std::string::npos);
}

TEST(SimplifyReject, UnrecognizedRangeShape) {
  auto wl = workloads::make_prefix_sum(16, 5);
  // lo moves twice as fast as i: neither prefix nor sliding.
  wl.nest.body[0].inner = InnerRange{AffineExpr{2, 0}, AffineExpr{2, 4}};
  const SimplifyAnalysis sa = analyze_simplify(wl.nest, analyze(wl.nest));
  EXPECT_EQ(sa.find("out")->form, SimplifiedForm::kNone);
  EXPECT_NE(sa.find("out")->reason.find("inner range shape not recognized"),
            std::string::npos);
}

TEST(SimplifyReject, MultipleUpdateStatements) {
  auto wl = workloads::make_prefix_sum(16, 5);
  wl.nest.body.push_back({"out", IndexExpr::loop_index(), Op::kPlusAssign,
                          ValueExpr::computed()});
  expect_rejected(wl.nest, "out", wl.dim, wl.bindings,
                  "multiple update statements",
                  /*expect_runtime=*/true);
}

TEST(SimplifyReject, AnalyzeRejectionsCarryTheirReason) {
  // Sites analyze() already rejected keep its diagnostic and run through
  // the serial interpreter (they are not reductions at all).
  auto self = workloads::make_prefix_sum(16, 5);
  self.nest.body[0].value =
      ValueExpr::array_read("out", IndexExpr::loop_index(1));
  // Widen the extent so the self-read at out[i+1] stays in range.
  self.dim = 17;
  expect_rejected(self.nest, "out", self.dim, self.bindings,
                  "occurs in its own update expression",
                  /*expect_runtime=*/false);

  auto mixed = workloads::make_prefix_sum(16, 5);
  mixed.nest.body.push_back({"out", IndexExpr::loop_index(), Op::kMaxAssign,
                             ValueExpr::computed()});
  expect_rejected(mixed.nest, "out", mixed.dim, mixed.bindings,
                  "mixed reduction operators", /*expect_runtime=*/false);

  auto plain = workloads::make_prefix_sum(16, 5);
  plain.nest.body[0].op = Op::kAssign;
  expect_rejected(plain.nest, "out", plain.dim, plain.bindings,
                  "plain assignment", /*expect_runtime=*/false);
}

// ---------------- the runtime fallback agrees with the runtime ----------

TEST(SimplifyFallback, RuntimeLegAgreesWithDirectSubmission) {
  // A rejected + site must reach Runtime::submit under the documented
  // "<loop.name>/<target>" id and produce the same result as lowering by
  // hand — the pass may not perturb the fallback in any way.
  LoopNest l;
  l.name = "Fallback/hist";
  l.iterations = 64;
  l.body.push_back({"w", IndexExpr::indirect("x"), Op::kPlusAssign,
                    ValueExpr::computed()});
  Bindings b;
  for (std::uint32_t i = 0; i < 64; ++i)
    b.index_arrays["x"].push_back((i * 7) % 16);

  std::vector<double> via_pass(16, 0.0);
  const FrontendResult fr =
      submit_simplified(test_runtime(), l, "w", 16, b, via_pass);
  EXPECT_TRUE(fr.used_runtime);
  EXPECT_GT(fr.runtime_result.total_s(), 0.0);

  const LoopAnalysis la = analyze(l);
  const ReductionInput in = extract_input(l, la, "w", 16, b);
  std::vector<double> direct(16, 0.0);
  (void)test_runtime().submit("Fallback/hist/w.direct", in, direct);
  expect_close(via_pass, direct);
}

}  // namespace
}  // namespace sapp::frontend
