// Tests for phase-aware re-adaptation: the PhaseMonitor time-EWMA drift
// detector, decision-cache round-tripping of the persisted phase history
// (including rejection of malformed/legacy files), and the AdaptiveReducer
// integration — stale-history warm starts demote within the first
// monitored window.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/runtime.hpp"
#include "scoped_temp_dir.hpp"
#include "workloads/workload.hpp"

namespace sapp {
namespace {

// ---------------- time-EWMA drift detector ----------------

TEST(TimeDriftDetector, SteadyNoiseNeverFires) {
  PhaseMonitor mon;
  const double base = 2e-3;
  // Deterministic +-15% jitter around a steady 2 ms per invocation.
  for (int k = 0; k < 300; ++k) {
    const double jitter = 0.15 * std::sin(static_cast<double>(k) * 0.7);
    EXPECT_FALSE(mon.observe_time(base * (1.0 + jitter))) << "invocation " << k;
  }
  EXPECT_EQ(mon.time_streak(), 0);
  EXPECT_NEAR(mon.time_baseline(), base, 0.2 * base);
}

TEST(TimeDriftDetector, FiresWithinWindowOfARealShift) {
  PhaseMonitorOptions opt;
  PhaseMonitor mon(opt);
  const int window = PhaseMonitor::kTimeWarmup + opt.time_drift_patience;
  for (int k = 0; k < PhaseMonitor::kTimeWarmup + 5; ++k)
    EXPECT_FALSE(mon.observe_time(1e-3));
  // The input moves into a 4x-slower phase: the detector must fire within
  // the monitored window, not eventually.
  bool fired = false;
  int fired_at = 0;
  for (int k = 1; k <= window && !fired; ++k) {
    fired = mon.observe_time(4e-3);
    fired_at = k;
  }
  EXPECT_TRUE(fired);
  EXPECT_LE(fired_at, window);
  EXPECT_GE(fired_at, opt.time_drift_patience);  // sustained, not a spike
}

TEST(TimeDriftDetector, SingleSpikeDoesNotFire) {
  PhaseMonitor mon;
  for (int k = 0; k < 10; ++k) EXPECT_FALSE(mon.observe_time(1e-3));
  EXPECT_FALSE(mon.observe_time(50e-3));  // one preempted invocation
  for (int k = 0; k < 50; ++k)
    EXPECT_FALSE(mon.observe_time(1e-3)) << "invocation " << k;
}

TEST(TimeDriftDetector, DownwardShiftAlsoFires) {
  PhaseMonitor mon;
  for (int k = 0; k < 5; ++k) EXPECT_FALSE(mon.observe_time(8e-3));
  bool fired = false;
  for (int k = 0; k < 10 && !fired; ++k) fired = mon.observe_time(0.5e-3);
  EXPECT_TRUE(fired);
}

TEST(TimeDriftDetector, SubNoiseFloorShiftIsIgnored) {
  PhaseMonitor mon;  // default floor: 100 us
  for (int k = 0; k < 5; ++k) EXPECT_FALSE(mon.observe_time(10e-6));
  // 4x ratio breach, but the absolute move is ~30 us — dispatch noise.
  for (int k = 0; k < 100; ++k) EXPECT_FALSE(mon.observe_time(40e-6));
}

TEST(TimeDriftDetector, SeededBaselineJudgesWithoutWarmup) {
  PhaseMonitorOptions opt;
  PhaseMonitor mon(opt);
  mon.seed_time_baseline(1e-3);  // persisted phase history said ~1 ms
  EXPECT_TRUE(mon.time_seeded());
  int fired_at = 0;
  for (int k = 1; k <= PhaseMonitor::kTimeWarmup + opt.time_drift_patience;
       ++k) {
    if (mon.observe_time(10e-3)) {
      fired_at = k;
      break;
    }
  }
  // No warmup is consumed: the contradiction fires after exactly
  // `time_drift_patience` fresh measurements.
  EXPECT_EQ(fired_at, opt.time_drift_patience);
}

TEST(TimeDriftDetector, RebaseDisarmsSeededBaseline) {
  PhaseMonitor mon;
  mon.seed_time_baseline(1e-3);
  mon.rebase(PatternSignature{});
  EXPECT_FALSE(mon.time_seeded());
  EXPECT_EQ(mon.time_baseline(), 0.0);
}

TEST(TimeDriftDetector, DegenerateObservationsAreIgnored) {
  PhaseMonitor mon;
  EXPECT_FALSE(mon.observe_time(0.0));
  EXPECT_FALSE(mon.observe_time(-1.0));
  EXPECT_FALSE(mon.observe_time(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(mon.observe_time(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(mon.time_baseline(), 0.0);  // none of those seeded the warmup
}

// ---------------- decision-cache phase history ----------------

CachedDecision history_entry() {
  CachedDecision d;
  d.site = "App/loop";
  d.scheme = SchemeKind::kHash;
  d.threads = 2;
  d.signature.dim = 5000;
  d.signature.iterations = 300;
  d.signature.refs = 900;
  d.signature.sampled_index_sum = 123456;
  d.signature.sampled_index_xor = 0xABCDEF;
  return d;
}

TEST(DecisionCachePhaseHistory, RoundTripPreservesHistory) {
  DecisionCache cache;
  CachedDecision d = history_entry();
  d.phase_times_s = {1.5e-3, 1.6e-3, 1.4e-3, 2.0e-3};
  cache.put(d);
  const auto round = DecisionCache::from_json(cache.to_json());
  ASSERT_TRUE(round.has_value());
  const CachedDecision* e = round->find("App/loop");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->phase_times_s, d.phase_times_s);
}

TEST(DecisionCachePhaseHistory, EmptyHistoryRoundTrips) {
  DecisionCache cache;
  cache.put(history_entry());  // no measured times yet
  const auto round = DecisionCache::from_json(cache.to_json());
  ASSERT_TRUE(round.has_value());
  EXPECT_TRUE(round->find("App/loop")->phase_times_s.empty());
}

TEST(DecisionCachePhaseHistory, SerializationKeepsOnlyTheMostRecentCap) {
  DecisionCache cache;
  CachedDecision d = history_entry();
  for (int k = 0; k < 50; ++k)
    d.phase_times_s.push_back(1e-3 + 1e-5 * k);
  cache.put(d);
  const auto round = DecisionCache::from_json(cache.to_json());
  ASSERT_TRUE(round.has_value());
  const auto& got = round->find("App/loop")->phase_times_s;
  ASSERT_EQ(got.size(), DecisionCache::kMaxPhaseHistory);
  // The *most recent* samples survive, oldest dropped.
  EXPECT_DOUBLE_EQ(got.back(), d.phase_times_s.back());
  EXPECT_DOUBLE_EQ(got.front(),
                   d.phase_times_s[d.phase_times_s.size() -
                                   DecisionCache::kMaxPhaseHistory]);
}

TEST(DecisionCachePhaseHistory, RejectsLegacyVersion1Files) {
  // A well-formed v1 document (pre-phase-history layout): the reader must
  // treat it as absent — a graceful cold start, not a warm start with the
  // feedback loop unarmed and not a crash.
  const char* v1 = R"({
    "schema_version": 1,
    "generator": "sapp-decision-cache",
    "sites": [{
      "site": "App/loop", "scheme": "rep", "threads": 2,
      "signature": {"dim": 100, "iterations": 50, "refs": 150,
                    "index_sum": "0x10", "index_xor": "0x20"},
      "predicted_total_s": 0.001, "invocations": 3, "rationale": "old"
    }]
  })";
  std::string err;
  EXPECT_FALSE(DecisionCache::from_json(v1, &err).has_value());
  EXPECT_NE(err.find("schema_version"), std::string::npos);
}

TEST(DecisionCachePhaseHistory, RejectsMalformedHistory) {
  const auto doc_with = [](const char* hist) {
    return std::string(R"({"schema_version": 2, "sites": [{
      "site": "s", "scheme": "rep", "threads": 2,
      "signature": {"dim": 100, "iterations": 50, "refs": 150,
                    "index_sum": "0x10", "index_xor": "0x20"},
      "phase_times_s": )") +
           hist + "}]}";
  };
  std::string err;
  // Missing entirely (v2 requires it), wrong type, negative and
  // non-numeric samples, oversized history: all malformed -> cold start.
  const char* v2_missing = R"({"schema_version": 2, "sites": [{
    "site": "s", "scheme": "rep", "threads": 2,
    "signature": {"dim": 100, "iterations": 50, "refs": 150,
                  "index_sum": "0x10", "index_xor": "0x20"}}]})";
  EXPECT_FALSE(DecisionCache::from_json(v2_missing, &err).has_value());
  EXPECT_FALSE(DecisionCache::from_json(doc_with("\"fast\""), &err)
                   .has_value());
  EXPECT_FALSE(DecisionCache::from_json(doc_with("[-0.5]"), &err).has_value());
  EXPECT_FALSE(
      DecisionCache::from_json(doc_with("[0.1, \"x\"]"), &err).has_value());
  std::string oversized = "[";
  for (std::size_t k = 0; k <= DecisionCache::kMaxPhaseHistory; ++k)
    oversized += (k ? ", " : "") + std::string("0.001");
  oversized += "]";
  EXPECT_FALSE(
      DecisionCache::from_json(doc_with(oversized.c_str()), &err).has_value());
  // And a valid history parses.
  EXPECT_TRUE(DecisionCache::from_json(doc_with("[0.001, 0.002]"), &err)
                  .has_value());
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

TEST(Runtime, StalePhaseHistoryWarmStartRecharacterizesWithinWindow) {
  // A cache whose *history* (not its model prediction) promises
  // 1000x-faster invocations: the warm-started site must adopt, contradict
  // it against fresh measurements, and re-characterize within the first
  // monitored window instead of trusting the stale scheme forever.
  const auto in = big_sparse_input();
  CachedDecision d;
  d.site = "site";
  d.scheme = SchemeKind::kRep;  // pessimal here: tiny touched set, huge dim
  d.threads = 2;
  d.signature = PatternSignature::of(in.pattern);
  d.predicted_total_s = 0.0;  // keep the model-prediction path out of it
  d.phase_times_s = {2e-6, 2e-6, 3e-6, 2e-6};

  RuntimeOptions o;
  o.threads = 2;
  o.coeffs = MachineCoeffs::defaults();
  o.adaptive.mispredict_patience = 1 << 30;  // isolate the history path
  Runtime rt(o);
  rt.decision_store().put(d);  // offered to the site on its creation
  const int window =
      PhaseMonitor::kTimeWarmup + o.adaptive.monitor.time_drift_patience;
  std::vector<double> out(in.pattern.dim, 0.0);
  (void)rt.submit("site", in, out);
  EXPECT_TRUE(rt.site("site").warm_started());
  EXPECT_EQ(rt.site("site").current(), SchemeKind::kRep);
  EXPECT_EQ(rt.site("site").recharacterizations(), 0u);
  int recharacterized_at = 0;
  for (int k = 2; k <= window + 1 && recharacterized_at == 0; ++k) {
    (void)rt.submit("site", in, out);
    if (rt.site("site").recharacterizations() >= 1) recharacterized_at = k;
  }
  EXPECT_GT(recharacterized_at, 0) << "stale history was never contradicted";
  EXPECT_LE(recharacterized_at, window);
  EXPECT_GE(rt.site("site").time_drift_demotions(), 1u);
  EXPECT_FALSE(rt.site("site").warm_started());
}

TEST(Runtime, HonestWarmStartKeepsTheCachedScheme) {
  // The counterpart: history recorded on this host, for this input, must
  // NOT be contradicted — the warm start sticks. The learner's destructor
  // drains to the shard directory; the second Runtime is the restart.
  const auto in = big_sparse_input();
  const ScopedTempDir dir;
  std::vector<double> out(in.pattern.dim, 0.0);
  RuntimeOptions o;
  o.threads = 2;
  o.coeffs = MachineCoeffs::defaults();
  o.adaptive.mispredict_patience = 1 << 30;
  o.decision_cache_dir = dir.path();
  {
    Runtime learner(o);
    for (int k = 0; k < 6; ++k) (void)learner.submit("site", in, out);
    const DecisionCache snap = learner.snapshot_decisions();
    EXPECT_FALSE(snap.find("site")->phase_times_s.empty());
  }
  Runtime rt(o);
  const int window =
      PhaseMonitor::kTimeWarmup + o.adaptive.monitor.time_drift_patience;
  for (int k = 0; k < window + 2; ++k) (void)rt.submit("site", in, out);
  EXPECT_TRUE(rt.site("site").warm_started());
  EXPECT_EQ(rt.site("site").recharacterizations(), 0u);
  EXPECT_EQ(rt.site("site").time_drift_demotions(), 0u);
}

TEST(Runtime, SnapshotPersistsTheReducersPhaseHistory) {
  const auto in = big_sparse_input();
  RuntimeOptions o;
  o.threads = 2;
  o.coeffs = MachineCoeffs::defaults();
  o.adaptive.mispredict_patience = 1 << 30;
  o.adaptive.monitor.time_drift_patience = 1 << 30;
  Runtime rt(o);
  std::vector<double> out(in.pattern.dim, 0.0);
  const int n = 5;
  for (int k = 0; k < n; ++k) (void)rt.submit("site", in, out);
  const auto& hist = rt.site("site").phase_history();
  EXPECT_EQ(hist.size(), static_cast<std::size_t>(n));
  EXPECT_LE(hist.size(), DecisionCache::kMaxPhaseHistory);
  const DecisionCache snap = rt.snapshot_decisions();
  ASSERT_NE(snap.find("site"), nullptr);
  EXPECT_EQ(snap.find("site")->phase_times_s, hist);
}

}  // namespace
}  // namespace sapp
