// Tests for the adaptive core: characterizer, decision models, cost model,
// phase monitor and the AdaptiveReducer feedback loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string>

#include "core/adaptive.hpp"
#include "core/runtime.hpp"
#include "reductions/scheme_lw.hpp"
#include "scoped_temp_dir.hpp"
#include "workloads/paramsets.hpp"
#include "workloads/workload.hpp"

namespace sapp {
namespace {

// Hand-built pattern with exactly known statistics:
//   dim = 10, iterations = 4,
//   iter 0: {0, 1}, iter 1: {1, 2}, iter 2: {2, 3}, iter 3: {3, 3}.
AccessPattern tiny_pattern() {
  AccessPattern p;
  p.dim = 10;
  p.refs = Csr({0, 2, 4, 6, 8}, {0, 1, 1, 2, 2, 3, 3, 3});
  return p;
}

TEST(Characterize, ExactMeasuresOnTinyPattern) {
  const PatternStats s = characterize(tiny_pattern(), 2);
  EXPECT_EQ(s.dim, 10u);
  EXPECT_EQ(s.iterations, 4u);
  EXPECT_EQ(s.refs, 8u);
  EXPECT_EQ(s.distinct, 4u);           // {0,1,2,3}
  EXPECT_DOUBLE_EQ(s.sp, 40.0);        // 4/10
  EXPECT_DOUBLE_EQ(s.con, 2.0);        // 8 refs / 4 distinct
  // Iter distinct counts: 2,2,2,1 -> MO = 7/4.
  EXPECT_DOUBLE_EQ(s.mo, 1.75);
  EXPECT_DOUBLE_EQ(s.chr, 8.0 / (2 * 10));
  EXPECT_TRUE(s.lw_legal);
}

TEST(Characterize, ChHistogramCountsPerElementReferences) {
  const PatternStats s = characterize(tiny_pattern(), 1);
  // Element 0: 1 ref; 1: 2; 2: 2; 3: 3.
  EXPECT_EQ(s.ch[1], 1u);
  EXPECT_EQ(s.ch[2], 2u);
  EXPECT_EQ(s.ch[3], 1u);
}

TEST(Characterize, SharedFractionUnderBlockSchedule) {
  // 2 threads, 4 iterations: thread 0 runs iters {0,1}, thread 1 {2,3}.
  // Touched by t0: {0,1,2}; t1: {2,3}. Shared: {2}.
  const PatternStats s = characterize(tiny_pattern(), 2);
  EXPECT_NEAR(s.shared_fraction, 0.25, 1e-9);
}

TEST(Characterize, SamplingApproximatesExact) {
  workloads::SynthParams p;
  p.dim = 20000;
  p.distinct = 8000;
  p.iterations = 40000;
  p.refs_per_iter = 2;
  p.seed = 5;
  const auto in = workloads::make_synthetic(p);
  const PatternStats exact = characterize(in.pattern, 4);
  CharacterizeOptions opt;
  opt.sample_stride = 16;
  const PatternStats approx = characterize(in.pattern, 4, opt);
  EXPECT_NEAR(approx.mo, exact.mo, 0.05);
  EXPECT_NEAR(static_cast<double>(approx.refs),
              static_cast<double>(exact.refs),
              0.05 * static_cast<double>(exact.refs));
  // Distinct is biased downward by sampling but must stay within 2x.
  EXPECT_GT(approx.distinct * 4, exact.distinct);
}

TEST(Characterize, GiniDetectsSkew) {
  workloads::SynthParams uniform;
  uniform.dim = 5000;
  uniform.distinct = 4000;
  uniform.iterations = 30000;
  uniform.zipf_theta = 0.0;
  uniform.seed = 6;
  workloads::SynthParams skewed = uniform;
  skewed.zipf_theta = 1.1;
  const auto u = characterize(workloads::make_synthetic(uniform).pattern, 4);
  const auto z = characterize(workloads::make_synthetic(skewed).pattern, 4);
  EXPECT_GT(z.chd_gini, u.chd_gini + 0.2);
}

TEST(Characterize, LwReplicationOnSplitPattern) {
  // Every iteration touches both halves of the element space: replication
  // factor must approach 2 under 2 threads.
  std::vector<std::uint64_t> ptr{0};
  std::vector<std::uint32_t> idx;
  for (std::size_t i = 0; i < 100; ++i) {
    idx.push_back(static_cast<std::uint32_t>(i % 50));
    idx.push_back(static_cast<std::uint32_t>(50 + i % 50));
    ptr.push_back(idx.size());
  }
  AccessPattern p;
  p.dim = 100;
  p.refs = Csr(std::move(ptr), std::move(idx));
  const PatternStats s = characterize(p, 2);
  EXPECT_NEAR(s.lw_replication, 2.0, 1e-9);
}

// ---------------- characterize oracle ----------------

// The straightforward characterizer `characterize` must reproduce bit for
// bit: dim-sized count and owner arrays swept three times, a sort per
// iteration, a divide per distinct reference and a sorted copy of every
// nonzero count for the Gini coefficient. Test-only.
PatternStats characterize_reference(const AccessPattern& p, unsigned threads,
                                    std::size_t stride) {
  constexpr std::size_t kCacheBytes = 512 * 1024;
  constexpr std::size_t kChCap = 64;
  PatternStats s;
  s.dim = p.dim;
  s.iterations = p.refs.rows();
  s.refs = p.refs.nnz();
  s.threads = threads;
  s.lw_legal = p.iteration_replication_legal;

  const auto& ptr = p.refs.row_ptr();
  const auto& idx = p.refs.indices();
  const std::size_t n = s.iterations;

  std::vector<std::uint32_t> count(p.dim, 0);
  constexpr std::uint8_t kOwnerNone = 0xFF;
  constexpr std::uint8_t kOwnerShared = 0xFE;
  std::vector<std::uint8_t> owner(p.dim, kOwnerNone);

  std::size_t sampled_iters = 0;
  std::size_t sampled_refs = 0;
  std::size_t sum_iter_distinct = 0;
  std::size_t sum_owner_sets = 0;
  std::vector<std::size_t> lw_work(threads, 0);
  std::vector<std::uint32_t> scratch;

  for (std::size_t i = 0; i < n; i += stride) {
    ++sampled_iters;
    const unsigned tid = static_cast<unsigned>(
        std::min<std::size_t>(threads - 1, i * threads / (n ? n : 1)));
    const unsigned otid = tid < 0xFDu ? tid : 0xFDu;
    scratch.clear();
    for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
      const std::uint32_t e = idx[j];
      ++count[e];
      ++sampled_refs;
      auto& o = owner[e];
      if (o == kOwnerNone)
        o = static_cast<std::uint8_t>(otid);
      else if (o != otid && o != kOwnerShared)
        o = kOwnerShared;
      scratch.push_back(e);
    }
    std::sort(scratch.begin(), scratch.end());
    const auto uniq = static_cast<std::size_t>(
        std::unique(scratch.begin(), scratch.end()) - scratch.begin());
    sum_iter_distinct += uniq;
    std::size_t owners = 0;
    unsigned last_owner = ~0u;
    for (std::size_t k = 0; k < uniq; ++k) {
      const unsigned t =
          LocalWriteScheme<>::owner_of(scratch[k], p.dim, threads);
      if (t != last_owner) {
        ++owners;
        lw_work[t] += 1;
        last_owner = t;
      }
    }
    sum_owner_sets += owners;
  }

  const double scale = static_cast<double>(stride);
  std::size_t distinct = 0, shared = 0;
  for (std::size_t e = 0; e < p.dim; ++e) {
    if (count[e] > 0) ++distinct;
    if (owner[e] == kOwnerShared) ++shared;
  }
  s.distinct = stride == 1
                   ? distinct
                   : std::min<std::size_t>(
                         p.dim, static_cast<std::size_t>(distinct * scale));
  s.refs = stride == 1 ? sampled_refs
                       : static_cast<std::size_t>(sampled_refs * scale);
  s.mo = sampled_iters ? static_cast<double>(sum_iter_distinct) /
                             static_cast<double>(sampled_iters)
                       : 0.0;
  s.con = s.distinct ? static_cast<double>(s.refs) /
                           static_cast<double>(s.distinct)
                     : 0.0;
  s.sp = p.dim ? 100.0 * static_cast<double>(s.distinct) /
                     static_cast<double>(p.dim)
               : 0.0;
  s.dim_ratio = static_cast<double>(p.dim * sizeof(double)) /
                static_cast<double>(kCacheBytes);
  s.chr = p.dim ? static_cast<double>(s.refs) /
                      (static_cast<double>(threads) *
                       static_cast<double>(p.dim))
                : 0.0;

  s.ch.assign(kChCap + 1, 0);
  for (std::size_t e = 0; e < p.dim; ++e) {
    if (count[e] == 0) continue;
    ++s.ch[std::min<std::size_t>(count[e], kChCap)];
  }
  std::vector<std::uint32_t> nz;
  for (auto c : count)
    if (c > 0) nz.push_back(c);
  if (nz.size() >= 2) {
    std::sort(nz.begin(), nz.end());
    const double nn = static_cast<double>(nz.size());
    double cum = 0.0, weighted = 0.0;
    for (std::size_t i = 0; i < nz.size(); ++i) {
      cum += nz[i];
      weighted += static_cast<double>(i + 1) * nz[i];
    }
    if (cum != 0.0)
      s.chd_gini = (2.0 * weighted) / (nn * cum) - (nn + 1.0) / nn;
  }

  const double excl = static_cast<double>(distinct - shared);
  s.touched_per_thread =
      threads ? (excl / threads + static_cast<double>(shared)) * scale : 0.0;
  s.touched_per_thread = std::min(s.touched_per_thread,
                                  static_cast<double>(p.dim));
  s.shared_fraction =
      distinct ? static_cast<double>(shared) / static_cast<double>(distinct)
               : 0.0;
  s.lw_replication = sampled_iters ? static_cast<double>(sum_owner_sets) /
                                         static_cast<double>(sampled_iters)
                                   : 0.0;
  const double lw_total = static_cast<double>(
      std::accumulate(lw_work.begin(), lw_work.end(), std::size_t{0}));
  if (lw_total > 0.0) {
    const double mx =
        static_cast<double>(*std::max_element(lw_work.begin(), lw_work.end()));
    s.lw_imbalance = mx / (lw_total / static_cast<double>(threads));
  }
  return s;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every PatternStats field, doubles compared as bit patterns.
void expect_same_stats(const PatternStats& got, const PatternStats& want,
                       const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.dim, want.dim);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.refs, want.refs);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(bits(got.mo), bits(want.mo));
  EXPECT_EQ(bits(got.con), bits(want.con));
  EXPECT_EQ(bits(got.sp), bits(want.sp));
  EXPECT_EQ(bits(got.dim_ratio), bits(want.dim_ratio));
  EXPECT_EQ(bits(got.chr), bits(want.chr));
  EXPECT_EQ(got.ch, want.ch);
  EXPECT_EQ(bits(got.chd_gini), bits(want.chd_gini));
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_EQ(bits(got.touched_per_thread), bits(want.touched_per_thread));
  EXPECT_EQ(bits(got.shared_fraction), bits(want.shared_fraction));
  EXPECT_EQ(bits(got.lw_replication), bits(want.lw_replication));
  EXPECT_EQ(bits(got.lw_imbalance), bits(want.lw_imbalance));
  EXPECT_EQ(got.lw_legal, want.lw_legal);
}

// 300 exercises the owner byte's clamp; characterize starts no threads.
constexpr unsigned kOracleThreads[] = {1, 2, 3, 4, 5, 300};
constexpr std::size_t kOracleStrides[] = {1, 16};

void expect_matches_reference(const AccessPattern& p, const std::string& name) {
  for (const unsigned threads : kOracleThreads)
    for (const std::size_t stride : kOracleStrides) {
      CharacterizeOptions opt;
      opt.sample_stride = stride;
      expect_same_stats(characterize(p, threads, opt),
                        characterize_reference(p, threads, stride),
                        name + " threads=" + std::to_string(threads) +
                            " stride=" + std::to_string(stride));
    }
}

AccessPattern pattern_of(std::size_t dim, std::vector<std::uint64_t> ptr,
                         std::vector<std::uint32_t> idx) {
  AccessPattern p;
  p.dim = dim;
  p.refs = Csr(std::move(ptr), std::move(idx));
  return p;
}

TEST(CharacterizeOracle, Fig3RowsMatchReferenceBitwise) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2002}})
    for (const auto& r : workloads::fig3_rows(0.05, seed))
      expect_matches_reference(r.workload.input.pattern,
                               r.workload.app + "/" + r.workload.loop + " " +
                                   r.workload.variant +
                                   " seed=" + std::to_string(seed));
}

TEST(CharacterizeOracle, ServingSitesMatchReferenceBitwise) {
  for (std::size_t i = 0; i < 400; ++i)
    expect_matches_reference(
        workloads::make_serving_site(i, 1.0, 1).input.pattern,
        "serve/s" + std::to_string(i));
}

TEST(CharacterizeOracle, DegenerateShapesMatchReferenceBitwise) {
  // Zero iterations, and iterations without references.
  expect_matches_reference(pattern_of(64, {0}, {}), "zero iterations");
  expect_matches_reference(pattern_of(64, {0, 0, 0, 0}, {}), "zero refs");
  expect_matches_reference(pattern_of(0, {0, 0, 0}, {}), "zero dim");
  // One element, referenced by every iteration.
  std::vector<std::uint64_t> ptr{0};
  std::vector<std::uint32_t> idx;
  for (int i = 0; i < 40; ++i) {
    idx.push_back(0);
    ptr.push_back(idx.size());
  }
  expect_matches_reference(pattern_of(1, ptr, idx), "single element dim=1");
  expect_matches_reference(pattern_of(64, ptr, idx), "single element dim=64");
}

TEST(CharacterizeOracle, RepeatsLongIterationsAndUnevenBlocksMatchReference) {
  // dim 1,001 divides by none of 2..5 or 300. Iterations mix repeated
  // elements, a 65- and a 200-reference iteration (past the short-iteration
  // dedup), and elements referenced more than 1,024 times (past the count
  // bins).
  std::vector<std::uint64_t> ptr{0};
  std::vector<std::uint32_t> idx;
  std::uint64_t x = 12345;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(x >> 33);
  };
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::size_t len = i == 7 ? 65 : i == 2500 ? 200 : 1 + next() % 6;
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint32_t e = next() % 4 == 0 ? next() % 2  // hot elements
                              : k > 0 && next() % 3 == 0
                                  ? idx.back()  // repeat within the iteration
                                  : next() % 1001;
      idx.push_back(e);
    }
    ptr.push_back(idx.size());
  }
  expect_matches_reference(pattern_of(1001, ptr, idx), "mixed dim=1001");
  // Every iteration the same 70 elements, each repeated: the sort path on
  // every iteration, and one count per element of 2 · iterations.
  ptr.assign(1, 0);
  idx.clear();
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::uint32_t k = 0; k < 140; ++k) idx.push_back((k * 37) % 70);
    ptr.push_back(idx.size());
  }
  expect_matches_reference(pattern_of(77, ptr, idx), "long repeats dim=77");
}

// ---------------- decision ----------------

PatternStats stats_with(double sp, double chr, double dim_ratio,
                        double shared_frac, double lw_repl = 1.0,
                        double lw_imb = 1.0, bool lw_legal = true) {
  PatternStats s;
  s.threads = 8;
  s.dim = 100000;
  s.iterations = 100000;
  s.refs = 200000;
  s.distinct = 50000;
  s.sp = sp;
  s.chr = chr;
  s.dim_ratio = dim_ratio;
  s.shared_fraction = shared_frac;
  s.lw_replication = lw_repl;
  s.lw_imbalance = lw_imb;
  s.lw_legal = lw_legal;
  s.touched_per_thread = 10000;
  s.mo = 2;
  s.con = 4;
  return s;
}

TEST(DecideRules, VerySparseScatterPicksHash) {
  auto s = stats_with(0.3, 0.1, 10.0, 0.5);
  s.mo = 28;  // wide scatter iterations (the Spice signature)
  const auto d = decide_rules(s);
  EXPECT_EQ(d.recommended, SchemeKind::kHash);
  EXPECT_NE(d.rationale.find("hash"), std::string::npos);
}

TEST(DecideRules, SparseButNarrowIterationsAvoidHash) {
  auto s = stats_with(0.3, 0.1, 10.0, 0.1);
  s.mo = 2;  // sparse, but each iteration touches little: sel territory
  const auto d = decide_rules(s);
  EXPECT_NE(d.recommended, SchemeKind::kHash);
}

TEST(DecideRules, DenseReusePicksRep) {
  const auto d = decide_rules(stats_with(40.0, 3.5, 1.5, 0.6));
  EXPECT_EQ(d.recommended, SchemeKind::kRep);
}

TEST(DecideRules, LocalizedBalancedPicksLw) {
  const auto d = decide_rules(stats_with(5.0, 0.5, 8.0, 0.2, 1.1, 1.1));
  EXPECT_EQ(d.recommended, SchemeKind::kLocalWrite);
}

TEST(DecideRules, HighSharingPicksLl) {
  const auto d =
      decide_rules(stats_with(5.0, 0.5, 8.0, 0.8, 2.0, 3.0));
  EXPECT_EQ(d.recommended, SchemeKind::kLinked);
}

TEST(DecideRules, LowSharingPicksSel) {
  const auto d = decide_rules(stats_with(5.0, 0.5, 8.0, 0.1, 2.0, 3.0));
  EXPECT_EQ(d.recommended, SchemeKind::kSelective);
}

TEST(DecideRules, LwIllegalNeverRecommendsLw) {
  auto s = stats_with(5.0, 0.5, 8.0, 0.2, 1.0, 1.0, /*lw_legal=*/false);
  const auto d = decide_rules(s);
  EXPECT_NE(d.recommended, SchemeKind::kLocalWrite);
}

TEST(CostModel, LwMarkedInapplicableWhenIllegal) {
  auto s = stats_with(5.0, 0.5, 8.0, 0.2);
  s.lw_legal = false;
  const auto c =
      predict_cost(SchemeKind::kLocalWrite, s, 4, MachineCoeffs::defaults());
  EXPECT_FALSE(c.applicable);
}

TEST(CostModel, PredictAllSortsAscending) {
  const auto all =
      predict_all(stats_with(5.0, 0.5, 8.0, 0.2), 4, MachineCoeffs::defaults());
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].applicable) {
      EXPECT_LE(all[i - 1].total(), all[i].total());
    }
  }
}

TEST(CostModel, RepInitMergeScaleWithDim) {
  auto small = stats_with(40.0, 3.0, 1.0, 0.5);
  auto large = small;
  large.dim = 10 * small.dim;
  const auto mc = MachineCoeffs::defaults();
  const auto cs = predict_cost(SchemeKind::kRep, small, 4, mc);
  const auto cl = predict_cost(SchemeKind::kRep, large, 4, mc);
  EXPECT_GT(cl.init_s, 5 * cs.init_s);
  EXPECT_GT(cl.merge_s, 5 * cs.merge_s);
}

TEST(DecideModel, PicksArgminAndExplains) {
  const auto d = decide_model(stats_with(0.2, 0.05, 12.0, 0.3), 4,
                              MachineCoeffs::defaults());
  EXPECT_TRUE(d.predictions.front().applicable);
  EXPECT_EQ(d.recommended, d.predictions.front().scheme);
  EXPECT_FALSE(d.rationale.empty());
}

TEST(DecideModel, SequentialVenueRanksSeqAmongThePaperFive) {
  const MachineCoeffs mc = MachineCoeffs::defaults();
  const auto total = [](const CostPrediction& c) { return c.total(); };
  // A large loop keeps its parallel pick; seq joins the ranking in order.
  PatternStats big = stats_with(0.2, 0.05, 12.0, 0.3);
  Decision d = decide_model(big, 4, mc);
  const SchemeKind parallel_pick = d.recommended;
  add_sequential_venue(d, big, 4, mc);
  ASSERT_EQ(d.predictions.size(), 6u);
  EXPECT_EQ(d.recommended, parallel_pick);
  EXPECT_EQ(std::count_if(d.predictions.begin(), d.predictions.end(),
                          [](const auto& c) {
                            return c.scheme == SchemeKind::kSeq;
                          }),
            1);
  EXPECT_TRUE(std::is_sorted(
      d.predictions.begin(), d.predictions.end(),
      [&](const auto& a, const auto& b) {
        return a.applicable && (!b.applicable || total(a) < total(b));
      }));
  // A tiny loop cannot pay for one region dispatch: seq wins and says so.
  PatternStats tiny = big;
  tiny.dim = 512;
  tiny.iterations = 300;
  tiny.refs = 600;
  tiny.distinct = 256;
  tiny.touched_per_thread = 100;
  d = decide_model(tiny, 4, mc);
  add_sequential_venue(d, tiny, 4, mc);
  EXPECT_EQ(d.recommended, SchemeKind::kSeq);
  EXPECT_EQ(d.predictions.front().scheme, SchemeKind::kSeq);
  EXPECT_EQ(d.rationale.rfind("cost model: seq predicted", 0), 0u);
}

// ---------------- phase monitor ----------------

TEST(PhaseMonitor, StablePatternNeverTriggers) {
  const auto p = tiny_pattern();
  PhaseMonitor mon;
  const auto sig = PatternSignature::of(p);
  mon.rebase(sig);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(mon.observe(sig));
}

TEST(PhaseMonitor, DimensionChangeTriggersImmediately) {
  auto p = tiny_pattern();
  PhaseMonitor mon;
  mon.rebase(PatternSignature::of(p));
  EXPECT_FALSE(mon.observe(PatternSignature::of(p)));
  AccessPattern q = tiny_pattern();
  q.dim = 20;
  EXPECT_TRUE(mon.observe(PatternSignature::of(q)));
}

TEST(PhaseMonitor, GradualDriftAccumulates) {
  PhaseMonitor mon;
  workloads::SynthParams sp;
  sp.dim = 1000;
  sp.distinct = 500;
  sp.iterations = 1000;
  sp.seed = 1;
  auto base = workloads::make_synthetic(sp);
  mon.rebase(PatternSignature::of(base.pattern));
  bool triggered = false;
  for (int step = 1; step <= 30 && !triggered; ++step) {
    sp.iterations = 1000 + 80 * step;  // the loop keeps growing
    sp.seed = 1 + step;
    auto next = workloads::make_synthetic(sp);
    triggered = mon.observe(PatternSignature::of(next.pattern));
  }
  EXPECT_TRUE(triggered);
}

// ---------------- adaptive reducer ----------------

ReductionInput sparse_input() {
  workloads::SynthParams p;
  p.dim = 300000;
  p.distinct = 900;
  p.iterations = 2000;
  p.refs_per_iter = 3;
  p.seed = 77;
  p.lw_legal = false;
  return workloads::make_synthetic(p);
}

TEST(AdaptiveReducer, ProducesCorrectResults) {
  const auto in = sparse_input();
  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);

  ThreadPool pool(4);
  AdaptiveReducer red(pool, MachineCoeffs::defaults());
  std::vector<double> out(in.pattern.dim, 0.0);
  red.invoke(in, out);
  for (std::size_t e = 0; e < ref.size(); e += 503)
    ASSERT_NEAR(ref[e], out[e], 1e-8);
}

TEST(AdaptiveReducer, CharacterizesOnceForStablePattern) {
  const auto in = sparse_input();
  ThreadPool pool(2);
  AdaptiveReducer red(pool, MachineCoeffs::defaults());
  std::vector<double> out(in.pattern.dim, 0.0);
  for (int k = 0; k < 10; ++k) {
    std::fill(out.begin(), out.end(), 0.0);
    red.invoke(in, out);
  }
  EXPECT_EQ(red.invocations(), 10u);
  EXPECT_EQ(red.recharacterizations(), 1u);
}

TEST(AdaptiveReducer, SeqSiteWithNoSampledBlockIsStillCheckedEveryTime) {
  // A small site settles on seq, and its dim samples no block at the
  // serving rate: every invocation still counts one check (the serving
  // benchmark requires 1000 checks per 1k submits), and the output is
  // run_sequential's, bitwise. The loop is short enough that `seq`'s
  // measured minimum stays far below half of what the model predicts for
  // any parallel venue (one region dispatch, ~15 us) even in a sanitizer
  // build, so the trial never times a runner-up and the site stays `seq`.
  constexpr double kRate = 0.05;
  std::size_t dim = 0;
  while (ReductionChecker::count_sampled(kRate, dim + 16) == 0) dim += 16;
  ASSERT_GT(dim, 0u) << "block 0 is sampled at this rate";
  workloads::SynthParams p;
  p.dim = dim;
  p.distinct = dim;
  p.iterations = 40;
  p.refs_per_iter = 3;
  p.seed = 31;
  const auto in = workloads::make_synthetic(p);
  std::vector<double> ref(dim, 0.0);
  run_sequential(in, ref);

  ThreadPool pool(2);
  AdaptiveOptions opt;
  opt.check.enabled = true;
  opt.check.sample_rate = kRate;
  AdaptiveReducer red(pool, MachineCoeffs::defaults(), opt);
  std::vector<double> out(dim);
  for (int k = 0; k < 5; ++k) {
    std::fill(out.begin(), out.end(), 0.0);
    (void)red.invoke(in, out);
    for (std::size_t e = 0; e < dim; ++e)
      ASSERT_EQ(out[e], ref[e]) << "invocation " << k << " element " << e;
  }
  EXPECT_EQ(red.current(), SchemeKind::kSeq);
  EXPECT_EQ(red.scheme_switches(), 0u);
  EXPECT_EQ(red.checks_run(), red.invocations());
  EXPECT_EQ(red.check_failures(), 0u);
  EXPECT_EQ(red.last_check().slots_sampled, 0u);
  EXPECT_EQ(red.last_check().refs_folded, 0u);
}

TEST(AdaptiveReducer, DriftTriggersRecharacterization) {
  ThreadPool pool(2);
  AdaptiveReducer red(pool, MachineCoeffs::defaults());
  workloads::SynthParams p;
  p.dim = 50000;
  p.distinct = 400;
  p.iterations = 1000;
  p.seed = 3;
  auto in = workloads::make_synthetic(p);
  std::vector<double> out(in.pattern.dim, 0.0);
  red.invoke(in, out);
  EXPECT_EQ(red.recharacterizations(), 1u);
  // The loop's extent quadruples: structural drift.
  p.iterations = 8000;
  p.distinct = 4000;
  p.seed = 4;
  in = workloads::make_synthetic(p);
  std::fill(out.begin(), out.end(), 0.0);
  red.invoke(in, out);
  EXPECT_GE(red.recharacterizations(), 2u);
}

/// Deliberately poisoned coefficients that make the model love rep for
/// sparse_input(), where rep is terrible (tiny touched set in a huge
/// array): its measured minimum lands far above what the model predicts
/// for the runner-ups, so the trial after the decision times them.
MachineCoeffs poisoned_for_rep() {
  MachineCoeffs poisoned = MachineCoeffs::defaults();
  poisoned.ns_init = 1e-7;    // model thinks init is free
  poisoned.ns_merge = 1e-7;   // ... and merge too
  poisoned.ns_alloc = 1e-7;   // ... and allocating P full copies
  poisoned.ns_hash = 1e9;     // and that hash is absurdly expensive
  poisoned.ns_slot = 1e9;     // ... and so is sel's indirection
  poisoned.ns_update_far = poisoned.ns_update;
  poisoned.fork_join_us = 0;  // ... and that dispatching a region is free,
                              // so rep also beats the sequential venue
  return poisoned;
}

TEST(AdaptiveReducer, MeasuredTrialLeavesAMispredictedPick) {
  // The trial after the decision times the runner-ups and keeps a faster
  // one than the poisoned model's pick.
  const auto in = sparse_input();
  ThreadPool pool(2);
  AdaptiveReducer red(pool, poisoned_for_rep());
  std::vector<double> out(in.pattern.dim, 0.0);
  const SchemeKind first = [&] {
    red.invoke(in, out);
    return red.current();
  }();
  // The trial has settled by the end of its third window.
  for (int k = 1; k < SchemeTrial::kTrialRuns *
                          (1 + SchemeTrial::kMaxAlternatives);
       ++k) {
    std::fill(out.begin(), out.end(), 0.0);
    red.invoke(in, out);
  }
  EXPECT_EQ(first, SchemeKind::kRep);  // the poisoned model's favourite
  EXPECT_TRUE(red.trial().settled());
  EXPECT_GT(red.scheme_switches(), 0u);
  EXPECT_LE(red.scheme_switches(),
            static_cast<unsigned>(SchemeTrial::kMaxAlternatives));
  EXPECT_NE(red.current(), SchemeKind::kRep);
}

// ---------------- plan identity: no plan runs on a foreign pattern ------

/// Elements of `got` that differ from run_sequential(in) under the
/// differential suite's policy: bitwise for lw (each owner replays its
/// iterations in seq's order), otherwise beyond the reassociated-summation
/// bound (4 + n)·eps·Σ|c| of the element's n contributions.
std::size_t wrong_elements(const ReductionInput& in,
                           const std::vector<double>& got, bool bitwise) {
  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);
  std::vector<double> abs(in.pattern.dim, 0.0);
  std::vector<std::size_t> cnt(in.pattern.dim, 0);
  const auto& ptr = in.pattern.refs.row_ptr();
  const auto& idx = in.pattern.refs.indices();
  for (std::size_t i = 0; i < in.pattern.iterations(); ++i) {
    const double s = iteration_scale(i, in.pattern.body_flops);
    for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
      abs[idx[j]] += std::abs(in.values[j] * s);
      ++cnt[idx[j]];
    }
  }
  constexpr double eps = std::numeric_limits<double>::epsilon();
  std::size_t wrong = 0;
  for (std::size_t e = 0; e < ref.size(); ++e) {
    const bool ok =
        bitwise ? std::memcmp(&got[e], &ref[e], sizeof(double)) == 0
                : std::abs(got[e] - ref[e]) <=
                      (4.0 + static_cast<double>(cnt[e])) * eps * abs[e] +
                          std::numeric_limits<double>::denorm_min();
    wrong += ok ? 0 : 1;
  }
  return wrong;
}

/// `in` with every 100th iteration's references moved by dim/2: the same
/// sizes, and a sampled-index-sum drift far below the re-decide threshold.
ReductionInput move_every_100th(const ReductionInput& in) {
  const auto& ptr = in.pattern.refs.row_ptr();
  std::vector<std::uint32_t> idx = in.pattern.refs.indices();
  const std::size_t dim = in.pattern.dim;
  for (std::size_t i = 0; i < in.pattern.iterations(); i += 100)
    for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j)
      idx[j] = static_cast<std::uint32_t>((idx[j] + dim / 2) % dim);
  ReductionInput out = in;
  out.pattern.refs = Csr(ptr, std::move(idx));
  return out;
}

/// `in` with 10% more iterations: a copy of its first tenth appended.
ReductionInput append_a_tenth(const ReductionInput& in) {
  std::vector<std::uint64_t> ptr = in.pattern.refs.row_ptr();
  std::vector<std::uint32_t> idx = in.pattern.refs.indices();
  ReductionInput out = in;
  const std::size_t iters = in.pattern.iterations();
  for (std::size_t i = 0; i < iters / 10; ++i) {
    for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
      idx.push_back(in.pattern.refs.indices()[j]);
      out.values.push_back(in.values[j]);
    }
    ptr.push_back(idx.size());
  }
  out.pattern.refs = Csr(std::move(ptr), std::move(idx));
  return out;
}

TEST(AdaptiveReducer, DriftBelowTheThresholdRebuildsThePlan) {
  // A warm-started site keeps its scheme through drift too small to
  // re-decide, but never its plan: every submit must match the
  // sequential result. Four threads, because one thread has no partition
  // that can go stale.
  const auto rows = workloads::fig3_rows(0.05);
  ThreadPool pool(4);
  for (const std::size_t r : {0u, 4u, 8u, 12u, 14u}) {
    const ReductionInput& a = rows[r].workload.input;
    const ReductionInput b = move_every_100th(a);
    const ReductionInput c = append_a_tenth(b);
    for (const SchemeKind kind :
         {SchemeKind::kRep, SchemeKind::kLocalWrite, SchemeKind::kLinked,
          SchemeKind::kSelective, SchemeKind::kHash}) {
      const std::string tag =
          "row " + std::to_string(r) + " " + std::string(to_string(kind));
      CachedDecision cached;
      cached.scheme = kind;
      cached.threads = pool.size();
      cached.signature = PatternSignature::of(a.pattern);
      AdaptiveReducer red(pool, MachineCoeffs::defaults());
      red.warm_start(cached);
      const ReductionInput* submits[] = {&a, &b, &c};
      for (int k = 0; k < 3; ++k) {
        const ReductionInput& in = *submits[k];
        std::vector<double> out(in.pattern.dim, 0.0);
        (void)red.invoke(in, out);
        EXPECT_EQ(wrong_elements(in, out, kind == SchemeKind::kLocalWrite),
                  0u)
            << tag << ", submit " << k;
      }
      EXPECT_TRUE(red.warm_started()) << tag;
      EXPECT_EQ(red.recharacterizations(), 0u) << tag;
      EXPECT_EQ(red.current(), kind) << tag;
    }
  }
}

// ---------------- multi-site runtime + decision cache ----------------

RuntimeOptions uncalibrated(unsigned threads) {
  RuntimeOptions o;
  o.threads = threads;
  o.coeffs = MachineCoeffs::defaults();
  // These tests pin the site/cache bookkeeping, not adaptation: no
  // assertion depends on which scheme a trial keeps, and no site runs a
  // full window after settling, so no measured time can demote a decision
  // here (phase_drift_test drives the trial with exact times).
  return o;
}

TEST(Runtime, UntaggedPatternsGetDimensionKeyedAnonymousSites) {
  // Two structurally different untagged loops must not share one site —
  // alternating submissions would thrash the drift monitor otherwise.
  Runtime rt(uncalibrated(2));
  auto a = sparse_input();
  a.pattern.loop_id.clear();
  auto b = sparse_input();
  b.pattern.loop_id.clear();
  b.pattern.dim += 1000;
  b.values.clear();  // keep consistent(): rebuild values for same refs
  b.values.assign(b.pattern.num_refs(), 1.0);
  std::vector<double> out_a(a.pattern.dim, 0.0);
  std::vector<double> out_b(b.pattern.dim, 0.0);
  for (int k = 0; k < 3; ++k) {
    (void)rt.submit(a, out_a);
    (void)rt.submit(b, out_b);
  }
  EXPECT_EQ(rt.site_count(), 2u);
  for (const auto& id : rt.site_ids()) {
    EXPECT_EQ(rt.site(id).invocations(), 3u) << id;
    EXPECT_EQ(rt.site(id).recharacterizations(), 1u) << id;
  }
}

TEST(Runtime, CalibrationProducesPositiveCoefficients) {
  RuntimeOptions o;
  o.threads = 2;  // empty coeffs (calibrate) is the default under test
  Runtime rt(o);
  const MachineCoeffs& mc = rt.coeffs();
  EXPECT_GT(mc.ns_update, 0.0);
  EXPECT_GT(mc.ns_init, 0.0);
  EXPECT_GT(mc.ns_atomic, 0.0);
  EXPECT_GT(mc.fork_join_us, 0.0);
}

TEST(Runtime, SubmitRoutesBySiteIdAndByLoopId) {
  Runtime rt(uncalibrated(2));
  auto in = sparse_input();
  in.pattern.loop_id = "App/loop1";
  std::vector<double> out(in.pattern.dim, 0.0);
  (void)rt.submit(in, out);                  // keyed by pattern.loop_id
  (void)rt.submit("App/loop2", in, out);     // explicit site id wins
  EXPECT_EQ(rt.site_count(), 2u);
  EXPECT_EQ(rt.site("App/loop1").invocations(), 1u);
  EXPECT_EQ(rt.site("App/loop2").invocations(), 1u);
  EXPECT_EQ(rt.site_ids(),
            (std::vector<std::string>{"App/loop1", "App/loop2"}));
  const std::string rep = rt.report();
  EXPECT_NE(rep.find("App/loop1"), std::string::npos);
  EXPECT_NE(rep.find("2 threads"), std::string::npos);
}

TEST(DecisionCache, JsonRoundTripPreservesEntries) {
  DecisionCache cache;
  CachedDecision d;
  d.site = "App/loop";
  d.scheme = SchemeKind::kSelective;
  d.threads = 4;
  d.signature.dim = 1000;
  d.signature.iterations = 500;
  d.signature.refs = 1500;
  d.signature.sampled_index_sum = 0xFFFFFFFFFFFFFFull;  // > 2^53: hex str
  d.min_time_s = 0.00125;
  d.invocations = 7;
  d.rationale = "test \"quoted\" rationale";
  cache.put(d);

  const auto round = DecisionCache::from_json(cache.to_json());
  ASSERT_TRUE(round.has_value());
  const CachedDecision* e = round->find("App/loop");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->scheme, SchemeKind::kSelective);
  EXPECT_EQ(e->threads, 4u);
  EXPECT_EQ(e->signature.sampled_index_sum, d.signature.sampled_index_sum);
  EXPECT_DOUBLE_EQ(e->min_time_s, 0.00125);
  EXPECT_EQ(e->invocations, 7u);
  EXPECT_EQ(e->rationale, d.rationale);
}

TEST(DecisionCache, RejectsMalformedDocuments) {
  std::string err;
  EXPECT_FALSE(DecisionCache::from_json("not json", &err).has_value());
  EXPECT_FALSE(DecisionCache::from_json("{}", &err).has_value());
  EXPECT_FALSE(
      DecisionCache::from_json(R"({"schema_version": 99, "sites": []})", &err)
          .has_value());
  EXPECT_FALSE(err.empty());

  // Shard documents come from disk: a negative, non-integral or
  // out-of-range count anywhere must reject the document (a cold shard),
  // never be cast to an integer.
  const auto shard = [](const std::string& field, const std::string& value) {
    std::map<std::string, std::string> v = {
        {"schema_version", "3"}, {"threads", "2"}, {"dim", "100"},
        {"iterations", "10"},    {"refs", "20"},   {"invocations", "3"}};
    v[field] = value;
    return R"({"schema_version": )" + v["schema_version"] +
           R"(, "sites": [{"site": "s", "scheme": "rep", "threads": )" +
           v["threads"] + R"(, "signature": {"dim": )" + v["dim"] +
           R"(, "iterations": )" + v["iterations"] + R"(, "refs": )" +
           v["refs"] +
           R"(, "index_sum": "0x1", "index_xor": "0x2"}, "min_time_s": )"
           R"(1e-3, "invocations": )" +
           v["invocations"] + "}]}";
  };
  ASSERT_TRUE(DecisionCache::from_json(shard("dim", "100")).has_value())
      << "the unmodified document must parse";
  for (const char* field : {"schema_version", "threads", "dim", "iterations",
                            "refs", "invocations"}) {
    for (const char* bad : {"-1", "2.5", "1e20", "1e300"}) {
      err.clear();
      EXPECT_FALSE(DecisionCache::from_json(shard(field, bad), &err)
                       .has_value())
          << field << " = " << bad;
      EXPECT_FALSE(err.empty()) << field << " = " << bad;
    }
  }
}

TEST(DecisionCache, MatchEnforcesDimThreadsAndTolerance) {
  CachedDecision d;
  d.threads = 2;
  d.signature.dim = 100;
  d.signature.iterations = 1000;
  d.signature.refs = 2000;
  d.signature.sampled_index_sum = 10000;
  PatternSignature same = d.signature;
  EXPECT_TRUE(DecisionCache::matches(d, same, 2, 0.1));
  EXPECT_FALSE(DecisionCache::matches(d, same, 4, 0.1));  // threads differ
  PatternSignature other = same;
  other.dim = 101;  // structural change: never matches
  EXPECT_FALSE(DecisionCache::matches(d, other, 2, 0.1));
  PatternSignature drifted = same;
  drifted.refs = 2150;  // 7% drift: inside a 10% tolerance
  EXPECT_TRUE(DecisionCache::matches(d, drifted, 2, 0.1));
  drifted.refs = 2500;  // 20% drift: outside
  EXPECT_FALSE(DecisionCache::matches(d, drifted, 2, 0.1));
}

/// Options of a Runtime persisting to the sharded store under `dir`: the
/// learner's destructor drains its decisions there, and a fresh Runtime on
/// the same directory is a restart that reloads them.
RuntimeOptions persisted(unsigned threads, const ScopedTempDir& dir) {
  RuntimeOptions o = uncalibrated(threads);
  o.decision_cache_dir = dir.path();
  return o;
}

TEST(Runtime, WarmStartAdoptsCachedSchemeAndSkipsCharacterization) {
  const auto in = sparse_input();
  const ScopedTempDir dir;
  std::vector<double> out(in.pattern.dim, 0.0);
  SchemeKind learned{};
  {
    Runtime learner(persisted(2, dir));
    (void)learner.submit("site", in, out);
    learned = learner.site("site").current();
  }
  Runtime rt(persisted(2, dir));
  EXPECT_EQ(rt.decision_store().size(), 1u);
  std::fill(out.begin(), out.end(), 0.0);
  (void)rt.submit("site", in, out);
  const AdaptiveReducer& r = rt.site("site");
  EXPECT_TRUE(r.warm_started());
  EXPECT_EQ(r.current(), learned);
  EXPECT_EQ(r.recharacterizations(), 0u);  // characterize was skipped
  // And the warm-started site still computes the right answer.
  std::vector<double> ref(in.pattern.dim, 0.0);
  run_sequential(in, ref);
  for (std::size_t e = 0; e < ref.size(); e += 503)
    ASSERT_NEAR(ref[e], out[e], 1e-8);
}

TEST(Runtime, WarmStartFallsBackToColdPathOnSignatureMismatch) {
  const auto in = sparse_input();
  const ScopedTempDir dir;
  std::vector<double> out(in.pattern.dim, 0.0);
  {
    Runtime learner(persisted(2, dir));
    (void)learner.submit("site", in, out);
  }
  // Same site id, structurally different pattern (dim changed).
  workloads::SynthParams p;
  p.dim = 120000;
  p.distinct = 700;
  p.iterations = 1500;
  p.refs_per_iter = 3;
  p.seed = 78;
  const auto other = workloads::make_synthetic(p);
  Runtime rt(persisted(2, dir));
  std::vector<double> out2(other.pattern.dim, 0.0);
  (void)rt.submit("site", other, out2);
  const AdaptiveReducer& r = rt.site("site");
  EXPECT_FALSE(r.warm_started());
  EXPECT_EQ(r.recharacterizations(), 1u);  // cold path taken
}

TEST(Runtime, WarmSnapshotCarriesEvidenceAndMinimumForward) {
  const auto in = sparse_input();
  const ScopedTempDir dir;
  std::vector<double> out(in.pattern.dim, 0.0);
  std::string original_rationale;
  unsigned learned = 0;
  {
    Runtime learner(persisted(2, dir));
    do {
      (void)learner.submit("site", in, out);
    } while (!learner.site("site").trial().settled());
    learned = learner.site("site").invocations();
    original_rationale = learner.site("site").decision().rationale;
  }
  Runtime rt(persisted(2, dir));
  const auto saved = rt.decision_store().get("site");
  ASSERT_TRUE(saved.has_value());
  EXPECT_GT(saved->min_time_s, 0.0);
  EXPECT_EQ(saved->invocations, learned);

  // A warm-started run must accumulate evidence and keep the original
  // decider rationale and the settled minimum, not reset them. Fewer
  // submits than one window: nothing is judged yet.
  for (int k = 0; k < SchemeTrial::kTrialRuns - 1; ++k)
    (void)rt.submit("site", in, out);
  ASSERT_TRUE(rt.site("site").warm_started());
  const DecisionCache resaved = rt.snapshot_decisions();
  EXPECT_EQ(resaved.find("site")->invocations,
            learned + SchemeTrial::kTrialRuns - 1);
  EXPECT_EQ(resaved.find("site")->rationale, original_rationale);
  EXPECT_EQ(resaved.find("site")->min_time_s, saved->min_time_s);
}

TEST(Runtime, MidTrialSnapshotPersistsThePickNotTheRunnerUp) {
  // A snapshot (eviction, periodic drain, destructor drain) can land while
  // a runner-up's window is open. It must persist the scheme the trial
  // keeps so far — the pick — not the runner-up being timed: a warm start
  // adopts the cached scheme without a trial, so a runner-up persisted
  // here would stay for good, however slow it measured.
  const auto in = sparse_input();
  RuntimeOptions o = uncalibrated(2);
  o.coeffs = poisoned_for_rep();
  std::vector<double> out(in.pattern.dim, 0.0);
  Runtime rt(o);
  for (int k = 0; k < SchemeTrial::kTrialRuns + 1; ++k)
    (void)rt.submit("site", in, out);
  const AdaptiveReducer& r = rt.site("site");
  ASSERT_EQ(r.decision().recommended, SchemeKind::kRep);
  ASSERT_EQ(r.scheme_switches(), 1u);  // the first runner-up is running
  ASSERT_FALSE(r.trial().settled());
  ASSERT_NE(r.current(), SchemeKind::kRep);
  const DecisionCache snap = rt.snapshot_decisions();
  ASSERT_NE(snap.find("site"), nullptr);
  EXPECT_EQ(snap.find("site")->scheme, SchemeKind::kRep);
  EXPECT_EQ(snap.find("site")->min_time_s, 0.0);  // nothing settled yet

  Runtime restarted(o);
  restarted.decision_store().put(*snap.find("site"));
  (void)restarted.submit("site", in, out);
  EXPECT_TRUE(restarted.site("site").warm_started());
  EXPECT_EQ(restarted.site("site").current(), SchemeKind::kRep);
}

TEST(Runtime, ThreadCountMismatchInvalidatesCachedDecision) {
  const auto in = sparse_input();
  const ScopedTempDir dir;
  std::vector<double> out(in.pattern.dim, 0.0);
  {
    Runtime learner(persisted(2, dir));
    (void)learner.submit("site", in, out);
  }
  Runtime rt(persisted(4, dir));  // decision was learned under 2
  (void)rt.submit("site", in, out);
  EXPECT_FALSE(rt.site("site").warm_started());
  EXPECT_EQ(rt.site("site").recharacterizations(), 1u);
}

TEST(Runtime, AnonymousSameShapeLoopsAlternateCorrectly) {
  // Two untagged loops of one shape share the `<anonymous dim=N>` site,
  // so each submit presents the other loop's pattern: the site must
  // rebuild its plan (or re-decide) every time, never run the other's.
  const auto rows_a = workloads::fig3_rows(0.05, 2002);
  const auto rows_b = workloads::fig3_rows(0.05, 2003);
  for (const std::size_t r : {5u, 8u}) {
    ReductionInput a = rows_a[r].workload.input;
    ReductionInput b = rows_b[r].workload.input;
    a.pattern.loop_id.clear();
    b.pattern.loop_id.clear();
    ASSERT_EQ(a.pattern.dim, b.pattern.dim) << "row " << r;
    Runtime rt(uncalibrated(4));
    for (int k = 0; k < 10; ++k) {
      const ReductionInput& in = k % 2 == 0 ? a : b;
      std::vector<double> out(in.pattern.dim, 0.0);
      (void)rt.submit(in, out);
      EXPECT_EQ(wrong_elements(in, out, false), 0u)
          << "row " << r << ", submit " << k;
    }
    EXPECT_EQ(rt.site_count(), 1u);
  }
}

}  // namespace
}  // namespace sapp
