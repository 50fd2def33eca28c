// Tests for the measured feedback rule and phase-aware re-adaptation:
// SchemeTrial driven with exact times (the bounded trial after a
// decision, the one timing demotion once settled), decision-cache
// round-tripping of the settled minimum (including rejection of malformed
// and older-schema files), and the AdaptiveReducer integration — a warm
// start whose cached minimum is contradicted demotes within its first
// window.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/runtime.hpp"
#include "scoped_temp_dir.hpp"
#include "workloads/workload.hpp"

namespace sapp {
namespace {

using Verdict = SchemeTrial::Verdict;
constexpr int kRuns = SchemeTrial::kTrialRuns;
constexpr int kWindow = SchemeTrial::kSettledRuns;

CostPrediction predicted(SchemeKind k, double s, bool applicable = true) {
  CostPrediction c;
  c.scheme = k;
  c.loop_s = s;
  c.applicable = applicable;
  return c;
}

/// A trial of `pick` alone (no runner-ups, like the rule decider's)
/// settled at `baseline_s`.
SchemeTrial settled_at(double baseline_s, SchemeKind pick = SchemeKind::kRep) {
  SchemeTrial t;
  t.begin(pick, {});
  for (int k = 0; k < kRuns; ++k)
    EXPECT_EQ(t.observe(pick, baseline_s), Verdict::kKeep);
  EXPECT_TRUE(t.settled());
  EXPECT_EQ(t.baseline_s(), baseline_s);
  return t;
}

/// Invocation (1-based) at which `seconds` first demotes, 0 if it never
/// does within `limit` invocations.
int demotes_at(SchemeTrial& t, double seconds, int limit) {
  for (int k = 1; k <= limit; ++k)
    if (t.observe(t.scheme(), seconds) == Verdict::kDemote) return k;
  return 0;
}

// ---------------- the trial ----------------

TEST(SchemeTrial, RunnerUpMustBePredictedBelowHalfTheBestMinimum) {
  const std::vector<CostPrediction> ranked = {
      predicted(SchemeKind::kRep, 1e-3), predicted(SchemeKind::kSeq, 3e-3),
      predicted(SchemeKind::kHash, 5e-3),
      predicted(SchemeKind::kLocalWrite, 0.0, /*applicable=*/false)};
  {
    // rep measured 10 ms: seq, predicted at 3 ms < 10 / 2, is trialled.
    // It measures 8 ms; hash, predicted at 5 ms, is not below 8 / 2, so
    // the trial ends and the site keeps seq, the lowest minimum.
    SchemeTrial t;
    t.begin(SchemeKind::kRep, ranked);
    EXPECT_EQ(t.observe(SchemeKind::kRep, 10e-3), Verdict::kKeep);
    EXPECT_EQ(t.observe(SchemeKind::kRep, 10e-3), Verdict::kKeep);
    EXPECT_EQ(t.observe(SchemeKind::kRep, 10e-3), Verdict::kSwitch);
    EXPECT_EQ(t.scheme(), SchemeKind::kSeq);
    EXPECT_FALSE(t.settled());
    for (int k = 0; k < kRuns - 1; ++k)
      EXPECT_EQ(t.observe(SchemeKind::kSeq, 8e-3), Verdict::kKeep);
    EXPECT_EQ(t.observe(SchemeKind::kSeq, 8e-3), Verdict::kKeep);
    EXPECT_TRUE(t.settled());
    EXPECT_EQ(t.scheme(), SchemeKind::kSeq);
    EXPECT_EQ(t.baseline_s(), 8e-3);
  }
  {
    // rep measured 5 ms: no runner-up is predicted below 2.5 ms, so
    // nothing is trialled and rep settles at once.
    SchemeTrial t;
    t.begin(SchemeKind::kRep, ranked);
    for (int k = 0; k < kRuns; ++k)
      EXPECT_EQ(t.observe(SchemeKind::kRep, 5e-3), Verdict::kKeep);
    EXPECT_TRUE(t.settled());
    EXPECT_EQ(t.scheme(), SchemeKind::kRep);
    EXPECT_EQ(t.baseline_s(), 5e-3);
  }
}

TEST(SchemeTrial, FirstCandidateThatFailsTheFilterEndsTheTrial) {
  // seq fails the filter (6 ms is not below 10 / 2); hash would pass it
  // (2 ms) but comes after seq, so it is never trialled.
  SchemeTrial t;
  t.begin(SchemeKind::kRep,
          {predicted(SchemeKind::kRep, 1e-3), predicted(SchemeKind::kSeq, 6e-3),
           predicted(SchemeKind::kHash, 2e-3)});
  for (int k = 0; k < kRuns; ++k)
    EXPECT_EQ(t.observe(SchemeKind::kRep, 10e-3), Verdict::kKeep);
  EXPECT_TRUE(t.settled());
  EXPECT_EQ(t.scheme(), SchemeKind::kRep);
}

TEST(SchemeTrial, AtMostTwoAlternativesAndNeverAnInapplicableOne) {
  // Every runner-up is predicted far below what anything measures: only
  // the first two are trialled.
  SchemeTrial t;
  t.begin(SchemeKind::kRep,
          {predicted(SchemeKind::kRep, 1e-6), predicted(SchemeKind::kSeq, 2e-6),
           predicted(SchemeKind::kHash, 3e-6),
           predicted(SchemeKind::kSelective, 4e-6)});
  int trial_moves = 0;
  for (int k = 0; k < 10 * kRuns; ++k) {
    const Verdict v = t.observe(t.scheme(), 10e-3);
    EXPECT_NE(v, Verdict::kDemote);
    if (v == Verdict::kSwitch && !t.settled()) ++trial_moves;
    EXPECT_NE(t.scheme(), SchemeKind::kSelective);
  }
  EXPECT_EQ(trial_moves, SchemeTrial::kMaxAlternatives);
  EXPECT_TRUE(t.settled());

  // An inapplicable runner-up is never trialled, however cheap.
  SchemeTrial u;
  u.begin(SchemeKind::kSelective,
          {predicted(SchemeKind::kSelective, 1e-3),
           predicted(SchemeKind::kLocalWrite, 0.0, /*applicable=*/false),
           predicted(SchemeKind::kSeq, 1e-6)});
  for (int k = 0; k < kRuns; ++k)
    EXPECT_EQ(u.observe(SchemeKind::kSelective, 10e-3), Verdict::kKeep);
  EXPECT_TRUE(u.settled());
  EXPECT_EQ(u.scheme(), SchemeKind::kSelective);
}

TEST(SchemeTrial, LowestMinimumWinsIncludingSettlingBackOnThePick) {
  const std::vector<CostPrediction> ranked = {
      predicted(SchemeKind::kRep, 1e-6), predicted(SchemeKind::kSeq, 2e-6),
      predicted(SchemeKind::kHash, 3e-6)};
  const auto window = [](SchemeTrial& t, double a, double b, double c) {
    const SchemeKind s = t.scheme();
    EXPECT_EQ(t.observe(s, a), Verdict::kKeep);
    EXPECT_EQ(t.observe(s, b), Verdict::kKeep);
    return t.observe(s, c);
  };
  {
    // rep's window holds a cold first invocation; its minimum (2 ms)
    // still beats seq (4 ms) and hash (3 ms): the site settles back on rep.
    SchemeTrial t;
    t.begin(SchemeKind::kRep, ranked);
    EXPECT_EQ(window(t, 9e-3, 2e-3, 3e-3), Verdict::kSwitch);
    EXPECT_EQ(window(t, 4e-3, 4e-3, 4e-3), Verdict::kSwitch);
    EXPECT_EQ(window(t, 3e-3, 3e-3, 3e-3), Verdict::kSwitch);
    EXPECT_TRUE(t.settled());
    EXPECT_EQ(t.scheme(), SchemeKind::kRep);
    EXPECT_EQ(t.baseline_s(), 2e-3);
  }
  {
    // seq is fastest: the site moves back to it after timing hash.
    SchemeTrial t;
    t.begin(SchemeKind::kRep, ranked);
    EXPECT_EQ(window(t, 5e-3, 5e-3, 5e-3), Verdict::kSwitch);
    EXPECT_EQ(window(t, 1e-3, 1e-3, 1e-3), Verdict::kSwitch);
    EXPECT_EQ(t.scheme(), SchemeKind::kHash);
    EXPECT_EQ(window(t, 3e-3, 3e-3, 3e-3), Verdict::kSwitch);
    EXPECT_TRUE(t.settled());
    EXPECT_EQ(t.scheme(), SchemeKind::kSeq);
    EXPECT_EQ(t.baseline_s(), 1e-3);
  }
  {
    // The last trialled scheme is fastest: it stays, no move.
    SchemeTrial t;
    t.begin(SchemeKind::kRep, ranked);
    EXPECT_EQ(window(t, 5e-3, 5e-3, 5e-3), Verdict::kSwitch);
    EXPECT_EQ(window(t, 4e-3, 4e-3, 4e-3), Verdict::kSwitch);
    EXPECT_EQ(window(t, 1e-3, 1e-3, 1e-3), Verdict::kKeep);
    EXPECT_TRUE(t.settled());
    EXPECT_EQ(t.scheme(), SchemeKind::kHash);
  }
}

TEST(SchemeTrial, BestIsTheLowestMinimumSoFarNotTheSchemeBeingTimed) {
  // What a snapshot persists: while a runner-up is being timed, the trial
  // would keep the pick, however the runner-up's window is going.
  SchemeTrial t;
  t.begin(SchemeKind::kRep,
          {predicted(SchemeKind::kRep, 1e-6), predicted(SchemeKind::kSeq, 2e-6)});
  EXPECT_EQ(t.best(), SchemeKind::kRep);
  EXPECT_EQ(t.observe(SchemeKind::kRep, 2e-3), Verdict::kKeep);
  EXPECT_EQ(t.observe(SchemeKind::kRep, 2e-3), Verdict::kKeep);
  EXPECT_EQ(t.observe(SchemeKind::kRep, 2e-3), Verdict::kSwitch);
  EXPECT_EQ(t.scheme(), SchemeKind::kSeq);
  EXPECT_EQ(t.best(), SchemeKind::kRep);
  // seq's first two invocations are 3x slower: still the pick.
  EXPECT_EQ(t.observe(SchemeKind::kSeq, 6e-3), Verdict::kKeep);
  EXPECT_EQ(t.observe(SchemeKind::kSeq, 6e-3), Verdict::kKeep);
  EXPECT_EQ(t.best(), SchemeKind::kRep);
  // The window closes and the trial settles back on rep.
  EXPECT_EQ(t.observe(SchemeKind::kSeq, 6e-3), Verdict::kSwitch);
  EXPECT_TRUE(t.settled());
  EXPECT_EQ(t.best(), SchemeKind::kRep);
  EXPECT_EQ(t.scheme(), SchemeKind::kRep);
}

// ---------------- the timing demotion ----------------

TEST(SchemeTrial, SteadyJitterAndASingleSpikeNeverDemote) {
  SchemeTrial t = settled_at(2e-3);
  // Deterministic +-15% jitter around a steady 2 ms per invocation.
  for (int k = 0; k < 300; ++k) {
    const double jitter = 0.15 * std::sin(static_cast<double>(k) * 0.7);
    EXPECT_EQ(t.observe(SchemeKind::kRep, 2e-3 * (1.0 + jitter)),
              Verdict::kKeep)
        << "invocation " << k;
  }
  EXPECT_EQ(t.observe(SchemeKind::kRep, 50e-3), Verdict::kKeep);  // preempted
  EXPECT_EQ(demotes_at(t, 2e-3, 50), 0);
}

TEST(SchemeTrial, SustainedRiseOrFallDemotesWithinOneWindow) {
  SchemeTrial up = settled_at(1e-3);
  for (int k = 0; k < 10; ++k)
    EXPECT_EQ(up.observe(SchemeKind::kRep, 1e-3), Verdict::kKeep);
  // A 2.5x-slower phase: every invocation of the window must run slow.
  EXPECT_EQ(demotes_at(up, 2.5e-3, 2 * kWindow), kWindow);

  SchemeTrial down = settled_at(8e-3);
  const int at = demotes_at(down, 8e-3 / 2.5, 2 * kWindow);
  EXPECT_GE(at, 1);
  EXPECT_LE(at, kWindow);
}

TEST(SchemeTrial, SubNoiseFloorMovesNeverDemote) {
  // 4x either way, but no window lands 100 us outside the band.
  SchemeTrial up = settled_at(10e-6);
  EXPECT_EQ(demotes_at(up, 40e-6, 100), 0);
  SchemeTrial down = settled_at(120e-6);
  EXPECT_EQ(demotes_at(down, 30e-6, 100), 0);
}

TEST(SchemeTrial, WarmBaselineJudgesFromTheFirstInvocation) {
  SchemeTrial stale;
  stale.settle(SchemeKind::kRep, 1e-3);  // the cache said ~1 ms
  EXPECT_TRUE(stale.settled());
  // No trial and no warm-up: the first window is the first kSettledRuns
  // invocations.
  EXPECT_EQ(demotes_at(stale, 10e-3, 2 * kWindow), kWindow);

  SchemeTrial honest;
  honest.settle(SchemeKind::kRep, 1e-3);
  EXPECT_EQ(honest.observe(SchemeKind::kRep, 5e-3), Verdict::kKeep);  // cold
  EXPECT_EQ(demotes_at(honest, 1.1e-3, 100), 0);

  // A cache that carried no minimum: the first window sets it.
  SchemeTrial unknown;
  unknown.settle(SchemeKind::kRep, 0.0);
  EXPECT_EQ(demotes_at(unknown, 3e-3, kWindow), 0);
  EXPECT_EQ(unknown.baseline_s(), 3e-3);
  EXPECT_EQ(demotes_at(unknown, 9e-3, kWindow), kWindow);
}

TEST(SchemeTrial, ANewDecisionDisarmsTheBaseline) {
  SchemeTrial t;
  t.settle(SchemeKind::kRep, 1e-3);
  t.begin(SchemeKind::kSelective, {});
  EXPECT_FALSE(t.settled());
  EXPECT_EQ(t.baseline_s(), 0.0);
  EXPECT_EQ(t.scheme(), SchemeKind::kSelective);
}

TEST(SchemeTrial, DegenerateAndForeignSamplesAreIgnored) {
  SchemeTrial t;
  t.begin(SchemeKind::kRep, {});
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()})
    EXPECT_EQ(t.observe(SchemeKind::kRep, bad), Verdict::kKeep);
  // A sample of a scheme the site is not running says nothing about it.
  EXPECT_EQ(t.observe(SchemeKind::kSeq, 1e-6), Verdict::kKeep);
  EXPECT_FALSE(t.settled());  // none of those filled the window
  for (int k = 0; k < kRuns; ++k)
    EXPECT_EQ(t.observe(SchemeKind::kRep, 2e-3), Verdict::kKeep);
  EXPECT_TRUE(t.settled());
  EXPECT_EQ(t.baseline_s(), 2e-3);
}

// ---------------- decision-cache settled minimum ----------------

CachedDecision cache_entry() {
  CachedDecision d;
  d.site = "App/loop";
  d.scheme = SchemeKind::kHash;
  d.threads = 2;
  d.signature.dim = 5000;
  d.signature.iterations = 300;
  d.signature.refs = 900;
  d.signature.sampled_index_sum = 123456;
  return d;
}

std::string v3_with_min_time(const char* min_time) {
  return std::string(R"({"schema_version": 3, "sites": [{
    "site": "s", "scheme": "rep", "threads": 2,
    "signature": {"dim": 100, "iterations": 50, "refs": 150,
                  "index_sum": "0x10", "index_xor": "0x20"},
    "min_time_s": )") +
         min_time + "}]}";
}

TEST(DecisionCacheMinTime, RoundTripPreservesTheSettledMinimum) {
  DecisionCache cache;
  CachedDecision d = cache_entry();
  d.min_time_s = 1.4e-3;
  cache.put(d);
  cache.put([] {
    CachedDecision mid = cache_entry();
    mid.site = "App/mid-trial";  // snapshotted before its trial settled
    return mid;
  }());
  const auto round = DecisionCache::from_json(cache.to_json());
  ASSERT_TRUE(round.has_value());
  ASSERT_NE(round->find("App/loop"), nullptr);
  EXPECT_EQ(round->find("App/loop")->min_time_s, 1.4e-3);
  EXPECT_EQ(round->find("App/mid-trial")->min_time_s, 0.0);
}

TEST(DecisionCacheMinTime, RejectsOlderSchemaVersions) {
  // Well-formed v1 and v2 documents (prediction, then phase history): the
  // reader treats both as absent — a graceful cold start, not a warm start
  // with the timing demotion unarmed and not a crash.
  for (const char* doc : {R"({
    "schema_version": 1, "generator": "sapp-decision-cache",
    "sites": [{"site": "App/loop", "scheme": "rep", "threads": 2,
      "signature": {"dim": 100, "iterations": 50, "refs": 150,
                    "index_sum": "0x10", "index_xor": "0x20"},
      "predicted_total_s": 0.001, "invocations": 3, "rationale": "old"}]
  })",
                          R"({
    "schema_version": 2, "generator": "sapp-decision-cache",
    "sites": [{"site": "App/loop", "scheme": "rep", "threads": 2,
      "signature": {"dim": 100, "iterations": 50, "refs": 150,
                    "index_sum": "0x10", "index_xor": "0x20"},
      "predicted_total_s": 0.001, "phase_times_s": [0.0011, 0.0012],
      "invocations": 3, "rationale": "old"}]
  })"}) {
    std::string err;
    EXPECT_FALSE(DecisionCache::from_json(doc, &err).has_value());
    EXPECT_NE(err.find("schema_version"), std::string::npos);
  }
}

TEST(DecisionCacheMinTime, RejectsAMalformedMinimum) {
  std::string err;
  const char* v3_missing = R"({"schema_version": 3, "sites": [{
    "site": "s", "scheme": "rep", "threads": 2,
    "signature": {"dim": 100, "iterations": 50, "refs": 150,
                  "index_sum": "0x10", "index_xor": "0x20"}}]})";
  EXPECT_FALSE(DecisionCache::from_json(v3_missing, &err).has_value());
  EXPECT_FALSE(DecisionCache::from_json(v3_with_min_time("-0.5"), &err)
                   .has_value());
  EXPECT_FALSE(DecisionCache::from_json(v3_with_min_time("\"fast\""), &err)
                   .has_value());
  EXPECT_FALSE(DecisionCache::from_json(v3_with_min_time("[0.001]"), &err)
                   .has_value());
  EXPECT_NE(err.find("min_time_s"), std::string::npos);
  // And a valid minimum parses.
  EXPECT_TRUE(
      DecisionCache::from_json(v3_with_min_time("0.001"), &err).has_value());
}

// ---------------- drifting workload generator ----------------

TEST(IrregReshuffle, PhasesShareSiteAndDimButNotDensity) {
  const auto d = workloads::make_irreg_reshuffle(60000, 40000, 4000, 7);
  EXPECT_EQ(d.dense.input.pattern.loop_id, d.sparse.input.pattern.loop_id);
  EXPECT_EQ(d.dense.input.pattern.dim, d.sparse.input.pattern.dim);
  EXPECT_TRUE(d.dense.input.consistent());
  EXPECT_TRUE(d.sparse.input.consistent());
  const std::size_t dense_touched = count_distinct(d.dense.input.pattern);
  const std::size_t sparse_touched = count_distinct(d.sparse.input.pattern);
  // The reshuffle collapses the active region by orders of magnitude —
  // that is the drift the runtime must catch.
  EXPECT_GT(dense_touched, 20 * sparse_touched);
  EXPECT_LE(sparse_touched, d.sparse.input.pattern.dim / 128);
  EXPECT_GT(d.dense.input.pattern.num_refs(),
            4 * d.sparse.input.pattern.num_refs());
}

// ---------------- reducer integration ----------------

ReductionInput big_sparse_input() {
  workloads::SynthParams p;
  p.dim = 400000;  // rep's O(dim) init/merge lands well above the noise floor
  p.distinct = 800;
  p.iterations = 2000;
  p.refs_per_iter = 3;
  p.seed = 91;
  p.lw_legal = false;
  return workloads::make_synthetic(p);
}

RuntimeOptions two_threads() {
  RuntimeOptions o;
  o.threads = 2;
  o.coeffs = MachineCoeffs::defaults();
  return o;
}

TEST(Runtime, StaleMinimumWarmStartRecharacterizesWithinWindow) {
  // A cache whose settled minimum promises 1000x-faster invocations: the
  // warm-started site must adopt, contradict it against fresh
  // measurements, and re-characterize within its first window instead of
  // trusting the stale scheme forever.
  const auto in = big_sparse_input();
  CachedDecision d;
  d.site = "site";
  d.scheme = SchemeKind::kRep;  // pessimal here: tiny touched set, huge dim
  d.threads = 2;
  d.signature = PatternSignature::of(in.pattern);
  d.min_time_s = 2e-6;

  Runtime rt(two_threads());
  rt.decision_store().put(d);  // offered to the site on its creation
  std::vector<double> out(in.pattern.dim, 0.0);
  (void)rt.submit("site", in, out);
  EXPECT_TRUE(rt.site("site").warm_started());
  EXPECT_EQ(rt.site("site").current(), SchemeKind::kRep);
  EXPECT_EQ(rt.site("site").recharacterizations(), 0u);
  int recharacterized_at = 0;
  for (int k = 2; k <= kWindow + 1 && recharacterized_at == 0; ++k) {
    (void)rt.submit("site", in, out);
    if (rt.site("site").recharacterizations() >= 1) recharacterized_at = k;
  }
  EXPECT_EQ(recharacterized_at, kWindow) << "judged from the first invocation";
  EXPECT_EQ(rt.site("site").time_drift_demotions(), 1u);
  EXPECT_FALSE(rt.site("site").warm_started());
}

TEST(Runtime, HonestWarmStartKeepsTheCachedScheme) {
  // The counterpart: a minimum recorded on this host, for this input, must
  // NOT be contradicted. The restarted site adopts the trial winner with
  // its baseline armed, never re-trials, and stays through its first
  // judged windows: the baseline and every window are minima on the same
  // host.
  // The learner's destructor drains to the shard directory; the second
  // Runtime is the restart.
  const auto in = big_sparse_input();
  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);
  const ScopedTempDir dir;
  std::vector<double> out(in.pattern.dim, 0.0);
  RuntimeOptions o = two_threads();
  o.decision_cache_dir = dir.path();
  SchemeKind learned{};
  double learned_min = 0.0;
  {
    Runtime learner(o);
    do {
      (void)learner.submit("site", in, out);
    } while (!learner.site("site").trial().settled());
    learned = learner.site("site").current();
    learned_min = learner.site("site").trial().baseline_s();
    EXPECT_LE(learner.site("site").scheme_switches(),
              static_cast<unsigned>(SchemeTrial::kMaxAlternatives));
  }
  EXPECT_GT(learned_min, 0.0);
  Runtime rt(o);
  for (int k = 0; k < kWindow + 1; ++k) {
    std::fill(out.begin(), out.end(), 0.0);
    (void)rt.submit("site", in, out);
    for (std::size_t e = 0; e < ref.size(); ++e)
      ASSERT_NEAR(out[e], ref[e], 1e-9 + 1e-9 * std::abs(ref[e]));
    if (k == 0) {
      EXPECT_TRUE(rt.site("site").trial().settled());
      EXPECT_EQ(rt.site("site").trial().baseline_s(), learned_min);
    }
  }
  const AdaptiveReducer& r = rt.site("site");
  EXPECT_TRUE(r.warm_started());
  EXPECT_EQ(r.current(), learned);
  EXPECT_EQ(r.recharacterizations(), 0u);
  EXPECT_EQ(r.time_drift_demotions(), 0u);
  EXPECT_EQ(r.scheme_switches(), 0u);  // a warm start never re-trials
}

TEST(Runtime, SnapshotPersistsTheSettledMinimum) {
  const auto in = big_sparse_input();
  Runtime rt(two_threads());
  std::vector<double> out(in.pattern.dim, 0.0);
  (void)rt.submit("site", in, out);
  // Mid-trial: nothing settled yet, so nothing to judge a warm start by.
  ASSERT_NE(rt.snapshot_decisions().find("site"), nullptr);
  EXPECT_EQ(rt.snapshot_decisions().find("site")->min_time_s, 0.0);
  while (!rt.site("site").trial().settled()) (void)rt.submit("site", in, out);
  const double settled = rt.site("site").trial().baseline_s();
  EXPECT_GT(settled, 0.0);
  EXPECT_LE(rt.site("site").invocations(),
            static_cast<unsigned>(kRuns * (1 + SchemeTrial::kMaxAlternatives)));
  const DecisionCache snap = rt.snapshot_decisions();
  EXPECT_EQ(snap.find("site")->min_time_s, settled);
  EXPECT_EQ(snap.find("site")->scheme, rt.site("site").current());
}

}  // namespace
}  // namespace sapp
