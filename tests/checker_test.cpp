// Property tests of the in-flight probabilistic reduction checker
// (src/check, docs/checking.md).
//
// Three properties pin the design:
//   * no false positives — across the full 240-case differential matrix
//     (patterns x operators x thread counts), a correct scheme execution
//     never fails the check, at sample_rate 1.0 and 0.25;
//   * detection matches the analytical bound — a single-element corruption
//     is detected iff its element is sampled (exact, per trial), so the
//     aggregate detection rate is binomially distributed around the
//     sampled fraction; N-element corruptions follow 1-(1-s)^N;
//   * replay equals scan — a check that replays a pattern's recorded
//     sampled positions reaches the same slots, checksum and verdict,
//     bitwise, as a fresh checker's full scan of the reference stream.
// Plus the wiring: a parallel AdaptiveReducer site records its sampled
// positions on the first check and replays them after, and a detected
// corruption rolls the reducer back to the trusted serial result and
// demotes the decision.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "check/fault_injector.hpp"
#include "common/rng.hpp"
#include "core/adaptive.hpp"
#include "differential_cases.hpp"
#include "reductions/scheme_atomic.hpp"
#include "reductions/scheme_rep.hpp"
#include "workloads/workload.hpp"

namespace sapp {
namespace {

using difftest::CaseParams;
using difftest::OpKind;

CheckOp check_op(OpKind op) {
  switch (op) {
    case OpKind::kSum: return CheckOp::kSum;
    case OpKind::kMax: return CheckOp::kMax;
    case OpKind::kMin: return CheckOp::kMin;
  }
  return CheckOp::kSum;
}

template <typename Op>
std::vector<std::unique_ptr<Scheme>> probe_schemes() {
  // One deterministic-fold scheme and one order-nondeterministic scheme:
  // between them they produce every legal kind of reassociation the
  // tolerance has to absorb.
  std::vector<std::unique_ptr<Scheme>> v;
  v.push_back(std::make_unique<RepScheme<Op>>());
  v.push_back(std::make_unique<AtomicScheme<Op>>());
  return v;
}

template <typename Op>
void run_case_checked(const CaseParams& c, const ReductionInput& in,
                      ThreadPool& pool, int index, double rate,
                      std::size_t& failures) {
  for (auto& scheme : probe_schemes<Op>()) {
    CheckerOptions co;
    co.enabled = true;
    co.sample_rate = rate;
    ReductionChecker checker(co, check_op(c.op));
    std::vector<double> out(in.pattern.dim, Op::neutral());
    checker.begin(in, out);
    (void)scheme->run(in, pool, out);
    const CheckReport rep = checker.verify(out);
    if (!rep.passed) {
      ++failures;
      ADD_FAILURE() << "false positive: case " << index << " scheme "
                    << scheme->name() << " op " << difftest::op_name(c.op)
                    << " rate " << rate << " slot " << rep.first_failed_slot
                    << " excess " << rep.max_rel_excess;
    }
  }
}

// --- Property 1: zero false positives over the differential matrix. ----

TEST(Checker, NoFalsePositivesAcrossDifferentialMatrix) {
  constexpr int kCases = 240;
  std::map<unsigned, std::unique_ptr<ThreadPool>> pools;
  std::size_t failures = 0;
  for (int i = 0; i < kCases; ++i) {
    const CaseParams c = difftest::derive_case(i);
    const ReductionInput in = difftest::build_input(c, i);
    auto& pool = pools[c.threads];
    if (!pool) pool = std::make_unique<ThreadPool>(c.threads);
    // Rate 1.0 checks every element; 0.25 exercises the sampled path.
    const double rate = i % 2 == 0 ? 1.0 : 0.25;
    switch (c.op) {
      case OpKind::kSum:
        run_case_checked<SumOp<double>>(c, in, *pool, i, rate, failures);
        break;
      case OpKind::kMax:
        run_case_checked<MaxOp<double>>(c, in, *pool, i, rate, failures);
        break;
      case OpKind::kMin:
        run_case_checked<MinOp<double>>(c, in, *pool, i, rate, failures);
        break;
    }
  }
  EXPECT_EQ(failures, 0u);
}

// --- Property 2: detection matches the analytical bound. ---------------

ReductionInput detection_input() {
  workloads::SynthParams p;
  p.dim = 1200;
  p.distinct = 1200;
  p.iterations = 4000;
  p.refs_per_iter = 3;
  p.seed = 424242;
  return workloads::make_synthetic(p);
}

/// One verify() per trial against a pre-corrupted copy of a correct
/// output: detection must agree with the sampling predicate per trial, and
/// the aggregate rate must sit inside the binomial envelope around the
/// exact sampled fraction.
void detection_trials(double rate, int corruptions_per_trial, int trials) {
  const ReductionInput in = detection_input();
  ThreadPool pool(4);
  CheckerOptions co;
  co.enabled = true;
  co.sample_rate = rate;
  ReductionChecker checker(co);
  std::vector<double> correct(in.pattern.dim, 0.0);
  checker.begin(in, correct);
  RepScheme<SumOp<double>> scheme;
  (void)scheme.run(in, pool, correct);
  ASSERT_TRUE(checker.verify(correct).passed);

  const std::size_t dim = in.pattern.dim;
  const double s =
      static_cast<double>(ReductionChecker::count_sampled(rate, dim)) /
      static_cast<double>(dim);
  Rng rng(0xFA017u + static_cast<std::uint64_t>(corruptions_per_trial));
  int detected = 0;
  double expected_p_sum = 0.0;
  std::vector<double> out;
  for (int t = 0; t < trials; ++t) {
    out = correct;
    std::set<std::uint64_t> victims;
    while (victims.size() < static_cast<std::size_t>(corruptions_per_trial))
      victims.insert(rng.below(dim));
    bool predicted = false;
    for (const std::uint64_t e : victims) {
      out[e] = corrupt_value(out[e]);
      predicted |= ReductionChecker::slot_sampled(rate, e);
    }
    const bool got = !checker.verify(out).passed;
    ASSERT_EQ(got, predicted)
        << "trial " << t << ": detection must equal 'any victim sampled'";
    detected += got ? 1 : 0;
    expected_p_sum += predicted ? 1.0 : 0.0;
  }
  // Aggregate: binomial around p = 1-(1-s)^N (victims ~ uniform without
  // replacement; the envelope is wide enough for the slight dependence).
  const double p = 1.0 - std::pow(1.0 - s, corruptions_per_trial);
  const double sigma = std::sqrt(p * (1.0 - p) / trials);
  EXPECT_NEAR(static_cast<double>(detected) / trials, p, 4.0 * sigma + 1e-12)
      << "rate " << rate << " N " << corruptions_per_trial;
}

TEST(Checker, SingleCorruptionDetectionMatchesSampleRate) {
  detection_trials(0.25, 1, 400);
  detection_trials(0.5, 1, 400);
}

TEST(Checker, MultiCorruptionDetectionFollowsOneMinusMissPower) {
  detection_trials(0.25, 3, 400);
}

TEST(Checker, FullRateDetectsEveryCorruption) {
  const ReductionInput in = detection_input();
  ThreadPool pool(2);
  CheckerOptions co;
  co.enabled = true;
  co.sample_rate = 1.0;
  ReductionChecker checker(co);
  std::vector<double> out(in.pattern.dim, 0.0);
  checker.begin(in, out);
  RepScheme<SumOp<double>> scheme;
  (void)scheme.run(in, pool, out);
  Rng rng(99);
  for (int t = 0; t < 50; ++t) {
    std::vector<double> bad = out;
    const auto victim = rng.below(bad.size());
    bad[victim] = corrupt_value(bad[victim]);
    EXPECT_FALSE(checker.verify(bad).passed) << "trial " << t;
  }
}

// --- Property 3: replay is bitwise a full scan. ------------------------

/// begin() on `shared` (with `pos`, a positions cache it may have seen
/// before) and on a fresh checker: the sampled slots, the checksum and
/// the verdict on the correct output must be bitwise equal, and a
/// corrupted sampled element must still fail. Returns `shared`'s report
/// on the correct output.
CheckReport expect_matches_fresh(ReductionChecker& shared,
                                 const ReductionInput& in, CheckerOptions co,
                                 SampledPositions* pos) {
  std::vector<double> out(in.pattern.dim, 0.5);
  shared.configure(co);
  shared.begin(in, out, pos);
  ReductionChecker fresh(co);
  fresh.begin(in, out);
  EXPECT_EQ(shared.slots_sampled(), fresh.slots_sampled());
  EXPECT_EQ(shared.input_checksum(), fresh.input_checksum());
  run_sequential(in, out);
  const CheckReport got = shared.verify(out);
  const CheckReport want = fresh.verify(out);
  EXPECT_TRUE(got.passed);
  EXPECT_TRUE(want.passed);
  EXPECT_EQ(got.slots_sampled, want.slots_sampled);
  EXPECT_EQ(got.input_checksum, want.input_checksum);
  EXPECT_EQ(got.contributions, want.contributions);
  EXPECT_EQ(got.max_rel_excess, want.max_rel_excess);
  // A fresh checker has recorded nothing, so it scans every reference
  // (unless nothing is sampled at all).
  EXPECT_EQ(want.refs_folded,
            want.slots_sampled == 0 ? 0u : in.pattern.num_refs());
  std::size_t e = 0;
  while (e < out.size() && !ReductionChecker::slot_sampled(co.sample_rate, e))
    ++e;
  if (e < out.size()) {
    out[e] = corrupt_value(out[e]);
    EXPECT_FALSE(shared.verify(out).passed);
  }
  return got;
}

ReductionInput second_site_input() {
  workloads::SynthParams p;
  p.dim = 900;
  p.distinct = 700;
  p.iterations = 3000;
  p.refs_per_iter = 2;
  p.body_flops = 11;
  p.seed = 77;
  return workloads::make_synthetic(p);
}

/// Largest dim (a multiple of the 16-element block) whose output samples
/// no block at `rate`.
std::size_t unsampled_dim(double rate) {
  std::size_t dim = 0;
  while (ReductionChecker::count_sampled(rate, dim + 16) == 0) dim += 16;
  return dim;
}

TEST(Checker, SampledPositionsReplayIsBitwiseAFullScan) {
  // Two patterns with different body_flops alternate on one checker, each
  // with its own positions cache, the way serving sites alternate on a
  // client thread. Every replay must reproduce a fresh checker's full
  // scan bitwise and still catch a corrupted sampled element.
  const ReductionInput a = detection_input();
  const ReductionInput b = second_site_input();
  ASSERT_NE(a.pattern.body_flops, b.pattern.body_flops);
  CheckerOptions co;
  co.enabled = true;
  co.sample_rate = 0.25;
  ReductionChecker shared(co);
  SampledPositions pos_a, pos_b;
  const std::pair<const ReductionInput*, SampledPositions*> sites[] = {
      {&a, &pos_a}, {&b, &pos_b}};
  for (int round = 0; round < 3; ++round) {
    for (const auto& [in, pos] : sites) {
      SCOPED_TRACE("round " + std::to_string(round));
      const CheckReport rep = expect_matches_fresh(shared, *in, co, pos);
      EXPECT_TRUE(pos->valid);
      // The first begin records by scanning every reference; every later
      // one replays only the recorded positions.
      EXPECT_EQ(rep.refs_folded,
                round == 0 ? in->pattern.num_refs() : pos->refs.size());
      EXPECT_LT(pos->refs.size(), in->pattern.num_refs());
    }
  }
  // The recording is keyed on the pattern's exact identity: a copied
  // input is the same Csr and replays; equal rows rebuilt as a new Csr
  // rescan, and replay from then on.
  const std::size_t recorded = pos_a.refs.size();
  const ReductionInput copy = a;
  ReductionInput rebuilt = a;
  rebuilt.pattern.refs =
      Csr(a.pattern.refs.row_ptr(), a.pattern.refs.indices());
  EXPECT_EQ(expect_matches_fresh(shared, copy, co, &pos_a).refs_folded,
            recorded);
  EXPECT_EQ(expect_matches_fresh(shared, rebuilt, co, &pos_a).refs_folded,
            a.pattern.num_refs());
  EXPECT_EQ(expect_matches_fresh(shared, rebuilt, co, &pos_a).refs_folded,
            recorded);
}

TEST(Checker, SampledPositionsReplayKeepsMinMaxWitnessesBitwise) {
  // A replay folds each slot's recorded run in the scan's order, so the
  // order-sensitive min/max witness stays bitwise a full scan's. Signed
  // zeros make the order visible: min(+0, -0) keeps whichever came first,
  // and the input checksum hashes the witness bits.
  ReductionInput in = detection_input();
  for (std::size_t j = 0; j < in.values.size(); j += 3)
    in.values[j] = (j / 3) % 2 == 0 ? 0.0 : -0.0;
  CheckerOptions co;
  co.enabled = true;
  co.sample_rate = 0.25;
  const std::vector<double> out(in.pattern.dim, 0.5);
  for (const CheckOp op : {CheckOp::kMin, CheckOp::kMax}) {
    SCOPED_TRACE(std::string(to_string(op)));
    ReductionChecker shared(co, op);
    SampledPositions pos;
    for (int round = 0; round < 3; ++round) {
      shared.configure(co, op);
      shared.begin(in, out, &pos);
      ReductionChecker fresh(co, op);
      fresh.begin(in, out);
      EXPECT_EQ(shared.input_checksum(), fresh.input_checksum())
          << "round " << round;
      EXPECT_EQ(shared.verify(out).refs_folded,
                round == 0 ? in.pattern.num_refs() : pos.refs.size());
    }
  }
}

TEST(Checker, CachedSelectionFollowsDimAndRateChanges) {
  // One positions cache sees a dim change, then a rate change, then a
  // copy and an equal rebuild of one pattern; each new (dim, rate) and the
  // rebuilt Csr must re-record, and each repeat and the copy must replay
  // — all bitwise equal to a fresh checker.
  const ReductionInput a = detection_input();
  const ReductionInput b = second_site_input();
  ASSERT_NE(a.pattern.dim, b.pattern.dim);
  const ReductionInput a_copy = a;
  ReductionInput a_rebuilt = a;
  a_rebuilt.pattern.refs =
      Csr(a.pattern.refs.row_ptr(), a.pattern.refs.indices());
  CheckerOptions quarter;
  quarter.enabled = true;
  quarter.sample_rate = 0.25;
  CheckerOptions half = quarter;
  half.sample_rate = 0.5;
  const struct {
    const ReductionInput* in;
    CheckerOptions co;
    bool replay;
  } steps[] = {{&a, quarter, false},   {&a, quarter, true},
               {&b, quarter, false},   {&b, quarter, true},
               {&b, half, false},      {&b, half, true},
               {&a, half, false},      {&a_copy, half, true},
               {&a_rebuilt, half, false}, {&a_rebuilt, half, true}};
  ReductionChecker shared(quarter);
  SampledPositions pos;
  for (std::size_t k = 0; k < std::size(steps); ++k) {
    SCOPED_TRACE("step " + std::to_string(k));
    const auto& st = steps[k];
    const CheckReport rep = expect_matches_fresh(shared, *st.in, st.co, &pos);
    ASSERT_GT(rep.slots_sampled, 0u);
    EXPECT_EQ(rep.slots_sampled, ReductionChecker::count_sampled(
                                     st.co.sample_rate, st.in->pattern.dim));
    EXPECT_EQ(rep.refs_folded,
              st.replay ? pos.refs.size() : st.in->pattern.num_refs());
  }
}

TEST(Checker, InputWithNoSampledBlockFoldsNothing) {
  // An output whose dim samples no block at the rate: the check passes
  // with 0 slots and visits no reference, cached or not.
  constexpr double kRate = 0.05;
  workloads::SynthParams p;
  p.dim = unsampled_dim(kRate);
  ASSERT_GT(p.dim, 0u) << "block 0 is sampled at this rate";
  p.distinct = p.dim;
  p.iterations = 500;
  p.refs_per_iter = 3;
  p.seed = 99;
  const ReductionInput in = workloads::make_synthetic(p);
  CheckerOptions co;
  co.enabled = true;
  co.sample_rate = kRate;
  ReductionChecker shared(co);
  SampledPositions pos;
  for (int round = 0; round < 2; ++round) {
    const CheckReport rep = expect_matches_fresh(shared, in, co, &pos);
    EXPECT_TRUE(rep.passed);
    EXPECT_EQ(rep.slots_sampled, 0u);
    EXPECT_EQ(rep.refs_folded, 0u);
    EXPECT_EQ(rep.input_checksum, 0u);
  }
}

// --- Edge cases and the fault-injector contract. -----------------------

TEST(Checker, EmptyAndUnsampledInputsPass) {
  CheckerOptions co;
  co.enabled = true;
  co.sample_rate = 0.0;  // nothing sampled
  ReductionInput in = detection_input();
  ReductionChecker none(co);
  std::vector<double> out(in.pattern.dim, 1.0);
  none.begin(in, out);
  EXPECT_EQ(none.slots_sampled(), 0u);
  EXPECT_TRUE(none.verify(out).passed);
  EXPECT_EQ(none.verify(out).refs_folded, 0u);

  // Zero iterations: every sampled slot has zero contributions and the
  // untouched output must pass.
  in.pattern.refs = Csr({0}, {});
  in.values.clear();
  co.sample_rate = 1.0;
  ReductionChecker empty(co);
  empty.begin(in, out);
  const CheckReport rep = empty.verify(out);
  EXPECT_TRUE(rep.passed);
  EXPECT_EQ(rep.contributions, 0u);
}

TEST(FaultInjector, FiresExactlyOnceAndRecordsTheEvent) {
  FaultInjector inj;
  std::vector<double> data(16, 1.0);
  EXPECT_FALSE(inj.corrupt_one(FaultSite::kSchemeCombine, data))
      << "unarmed injector must be a no-op";
  inj.arm(FaultSite::kSchemeCombine, 7, 1);
  EXPECT_FALSE(inj.corrupt_one(FaultSite::kSpecCommit, data))
      << "wrong site must not consume the shot";
  EXPECT_TRUE(inj.corrupt_one(FaultSite::kSchemeCombine, data));
  EXPECT_FALSE(inj.corrupt_one(FaultSite::kSchemeCombine, data))
      << "one shot means one corruption";
  ASSERT_EQ(inj.injected(), 1u);
  const auto ev = inj.events()[0];
  EXPECT_EQ(ev.site, FaultSite::kSchemeCombine);
  EXPECT_EQ(ev.original, 1.0);
  EXPECT_EQ(ev.corrupted, data[ev.element]);
  EXPECT_GE(std::abs(ev.corrupted - ev.original), 1.0)
      << "corruption must clear every legal rounding tolerance";
}

// --- Wiring: the adaptive layer's checked executions. -----------------

/// A site large enough that the model runs it in parallel on the pool.
ReductionInput parallel_site_input() {
  workloads::SynthParams big;
  big.dim = 20000;
  big.distinct = 20000;
  big.iterations = 60000;
  big.refs_per_iter = 2;
  big.body_flops = 16;
  big.seed = 525252;
  return workloads::make_synthetic(big);
}

TEST(Checker, AdaptiveReducerParallelSiteReplaysRecordedPositions) {
  // A site that runs on the pool is checked like any other: the first
  // check records the sampled positions by scanning every reference, and
  // every later one replays only those.
  const ReductionInput in = parallel_site_input();
  constexpr double kRate = 0.05;
  std::size_t sampled_refs = 0;
  for (const std::uint32_t e : in.pattern.refs.indices())
    sampled_refs += ReductionChecker::slot_sampled(kRate, e) ? 1 : 0;
  ASSERT_GT(sampled_refs, 0u);
  ASSERT_LT(sampled_refs, in.pattern.num_refs());

  ThreadPool pool(4);
  AdaptiveOptions opt;
  opt.check.enabled = true;
  opt.check.sample_rate = kRate;
  AdaptiveReducer red(pool, MachineCoeffs::defaults(), opt);
  std::vector<double> out(in.pattern.dim);
  for (int k = 1; k <= 3; ++k) {
    SCOPED_TRACE("invocation " + std::to_string(k));
    std::fill(out.begin(), out.end(), 0.0);
    (void)red.invoke(in, out);
    EXPECT_NE(red.current(), SchemeKind::kSeq);
    EXPECT_TRUE(red.last_check().passed);
    EXPECT_EQ(red.last_check().refs_folded,
              k == 1 ? in.pattern.num_refs() : sampled_refs);
  }
  EXPECT_EQ(red.checks_run(), 3u);
  EXPECT_EQ(red.check_failures(), 0u);
}

TEST(Checker, AdaptiveReducerRollsBackAndDemotesOnDetectedCorruption) {
  // Once on a site small enough that the model runs it sequentially on
  // the caller thread, once on a site it runs in parallel: an injected
  // corruption of either venue's output is caught, rolled back and
  // demoted alike.
  const struct {
    ReductionInput in;
    bool seq;
  } sites[] = {{detection_input(), true}, {parallel_site_input(), false}};

  for (const auto& site : sites) {
    SCOPED_TRACE(site.seq ? "seq site" : "parallel site");
    const ReductionInput& in = site.in;
    std::vector<double> ref(in.pattern.dim, 0.0);
    run_sequential(in, ref);

    ThreadPool pool(4);
    FaultInjector inj;
    AdaptiveOptions opt;
    opt.check.enabled = true;
    opt.check.sample_rate = 1.0;
    opt.fault_injector = &inj;
    AdaptiveReducer red(pool, MachineCoeffs::defaults(), opt);

    std::vector<double> out(in.pattern.dim, 0.0);
    (void)red.invoke(in, out);  // clean first invocation
    EXPECT_EQ(red.check_failures(), 0u);
    EXPECT_EQ(red.current() == SchemeKind::kSeq, site.seq);
    const unsigned rechar_before = red.recharacterizations();

    inj.arm(FaultSite::kSchemeCombine, 1234, 1);
    std::fill(out.begin(), out.end(), 0.0);
    (void)red.invoke(in, out);
    EXPECT_EQ(inj.injected(), 1u);
    EXPECT_EQ(red.check_failures(), 1u);
    // Recovery: the shipped output is the trusted serial result, bitwise.
    for (std::size_t e = 0; e < ref.size(); ++e)
      ASSERT_EQ(out[e], ref[e]) << "element " << e;
    // Demotion: correctness evidence forced a re-characterization.
    EXPECT_EQ(red.recharacterizations(), rechar_before + 1);

    // And the failure never recurs once the injector is spent.
    std::fill(out.begin(), out.end(), 0.0);
    (void)red.invoke(in, out);
    EXPECT_EQ(red.check_failures(), 1u);
    EXPECT_GE(red.checks_run(), 3u);
    EXPECT_EQ(red.current() == SchemeKind::kSeq, site.seq);
  }
}

}  // namespace
}  // namespace sapp
