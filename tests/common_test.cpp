// Unit tests for the common substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/csr.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace sapp {
namespace {

// ---------------- Rng ----------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i)
    if (a2() != c()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(8);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ZipfZeroThetaIsRoughlyUniform) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[r.zipf(10, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 600);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng r(10);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[r.zipf(100, 0.9)];
  // Rank 0 much more popular than rank 50.
  EXPECT_GT(counts[0], counts[50] * 3);
  EXPECT_GT(counts[0], counts[99] * 3);
}

// ---------------- stats ----------------

TEST(Stats, MeanStddevMedian) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  const std::vector<double> even{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, HarmonicMeanMatchesPaperUsage) {
  // Harmonic mean of {4.0, 14.0, 6.1, 9.9, 15.6} — the Fig. 6 Hw speedups —
  // should land near the paper's reported 7.6 average.
  const std::vector<double> hw{4.0, 14.0, 6.1, 9.9, 15.6};
  EXPECT_NEAR(harmonic_mean(hw), 7.6, 0.35);
}

TEST(Stats, HarmonicMeanRejectsNonPositive) {
  const std::vector<double> bad{1.0, 0.0};
  EXPECT_DEATH(harmonic_mean(bad), "positive");
}

TEST(Stats, Speedup) { EXPECT_DOUBLE_EQ(speedup(10.0, 2.5), 4.0); }

// ---------------- Table ----------------

TEST(Table, AlignsColumns) {
  Table t({"a", "long-header", "c"});
  t.add_row({"xx", "1", "2"});
  t.add_row({"y", "12345678901234", "3"});
  const std::string s = t.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("12345678901234"), std::string::npos);
  // All lines same length for fully populated rows.
  EXPECT_DEATH(t.add_row({"only-two", "cells"}), "width");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(42)), "42");
}

// ---------------- static_block ----------------

TEST(StaticBlock, CoversRangeExactly) {
  for (std::size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    for (unsigned p : {1u, 2u, 3u, 8u, 16u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (unsigned t = 0; t < p; ++t) {
        const Range r = static_block(n, t, p);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(prev_end, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(StaticBlock, BalancedWithinOne) {
  for (unsigned t = 0; t < 7; ++t) {
    const auto sz = static_block(23, t, 7).size();
    EXPECT_GE(sz, 3u);
    EXPECT_LE(sz, 4u);
  }
}

TEST(StaticBlock, ZeroThreadsYieldsEmptyRange) {
  const Range r = static_block(100, 0, 0);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
}

TEST(StaticBlock, TidBeyondPoolYieldsEmptyRange) {
  EXPECT_TRUE(static_block(100, 4, 4).empty());
  EXPECT_TRUE(static_block(100, 99, 4).empty());
}

TEST(StaticBlock, FewerItemsThanThreads) {
  // n < nthreads: the first n threads get exactly one iteration each, the
  // rest get empty ranges; the union still covers [0, n) exactly once.
  constexpr std::size_t n = 3;
  constexpr unsigned p = 8;
  for (unsigned t = 0; t < p; ++t) {
    const Range r = static_block(n, t, p);
    if (t < n) {
      EXPECT_EQ(r.begin, t);
      EXPECT_EQ(r.size(), 1u);
    } else {
      EXPECT_TRUE(r.empty());
    }
  }
}

TEST(StaticBlock, RemainderGoesToLeadingThreads) {
  // 10 items over 4 threads: sizes 3,3,2,2.
  EXPECT_EQ(static_block(10, 0, 4).size(), 3u);
  EXPECT_EQ(static_block(10, 1, 4).size(), 3u);
  EXPECT_EQ(static_block(10, 2, 4).size(), 2u);
  EXPECT_EQ(static_block(10, 3, 4).size(), 2u);
}

// ---------------- ThreadPool ----------------

TEST(ThreadPool, RunsEveryWorkerOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  pool.run([&](unsigned tid) { counts[tid].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](unsigned, Range r) {
    for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int k = 0; k < 200; ++k)
    pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, EmptyRangeDoesNotInvokeBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](unsigned, Range) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, CallerParticipatesAsWorkerZero) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id tid0{};
  std::set<std::thread::id> others;
  std::mutex mu;
  pool.run([&](unsigned tid) {
    if (tid == 0) {
      tid0 = std::this_thread::get_id();
    } else {
      std::scoped_lock lk(mu);
      others.insert(std::this_thread::get_id());
    }
  });
  EXPECT_EQ(tid0, caller);
  EXPECT_EQ(others.size(), 3u);
  EXPECT_EQ(others.count(caller), 0u);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  std::thread::id seen{};
  pool.run([&](unsigned tid) {
    EXPECT_EQ(tid, 0u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, std::this_thread::get_id());
}

TEST(ThreadPool, ManyBackToBackRegions) {
  // The regression the spin-then-block design targets: thousands of tiny
  // regions in a row must all dispatch and join correctly whether workers
  // are caught spinning or have parked.
  ThreadPool pool(3);
  std::atomic<std::uint64_t> total{0};
  constexpr int kRegions = 5000;
  for (int k = 0; k < kRegions; ++k)
    pool.run([&](unsigned tid) { total.fetch_add(tid + 1); });
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kRegions) * (1 + 2 + 3));
}

TEST(ThreadPool, RegionsInterleavedWithSleepPark) {
  // Let the workers exhaust their spin budget and park between regions;
  // the next dispatch must wake them.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int k = 0; k < 3; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.run([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 6);
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> invocations{0};
  pool.parallel_for(3, [&](unsigned, Range r) {
    invocations.fetch_add(1);
    for (std::size_t i = r.begin; i < r.end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(invocations.load(), 3);  // empty ranges are skipped
}

TEST(ThreadPool, RunAcceptsStdFunction) {
  // The templated front end must still take a pre-built std::function
  // (type-erased callers).
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  const std::function<void(unsigned)> f = [&](unsigned) {
    calls.fetch_add(1);
  };
  pool.run(f);
  EXPECT_EQ(calls.load(), 2);
}

// ---------------- Csr ----------------

TEST(Csr, FromPairsGroupsByRow) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs{
      {2, 7}, {0, 1}, {2, 9}, {0, 3}};
  const Csr csr = Csr::from_pairs(3, pairs);
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.nnz(), 4u);
  ASSERT_EQ(csr.row(0).size(), 2u);
  EXPECT_EQ(csr.row(0)[0], 1u);
  EXPECT_EQ(csr.row(0)[1], 3u);
  EXPECT_EQ(csr.row(1).size(), 0u);
  ASSERT_EQ(csr.row(2).size(), 2u);
  EXPECT_EQ(csr.row(2)[0], 7u);
  EXPECT_EQ(csr.row(2)[1], 9u);
}

TEST(Csr, RejectsMalformedRowPtr) {
  EXPECT_DEATH(Csr({0, 5}, {1, 2}), "malformed");
}

TEST(Csr, IdIsExactIdentity) {
  // A copy is the same rows, so it keeps the id; equal arrays built twice
  // are two constructions and read two ids.
  const Csr a({0, 2, 3}, {4, 5, 6});
  const Csr copy = a;
  const Csr twin({0, 2, 3}, {4, 5, 6});
  EXPECT_NE(a.id(), 0u);
  EXPECT_EQ(copy.id(), a.id());
  EXPECT_NE(twin.id(), a.id());
  EXPECT_NE(twin.id(), 0u);
  Csr assigned;
  assigned = a;
  EXPECT_EQ(assigned.id(), a.id());
}

TEST(Csr, MoveHandsTheIdOverAndLeavesAnEmptyZero) {
  Csr src({0, 1, 3}, {7, 8, 9});
  const std::uint64_t id = src.id();
  Csr moved(std::move(src));
  EXPECT_EQ(moved.id(), id);
  EXPECT_EQ(moved.nnz(), 3u);
  EXPECT_EQ(src.id(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(src.rows(), 0u);
  EXPECT_EQ(src.nnz(), 0u);
  Csr assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.id(), id);
  EXPECT_EQ(moved.id(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.rows(), 0u);
  EXPECT_EQ(moved.nnz(), 0u);
  EXPECT_EQ(Csr{}.id(), 0u);
  EXPECT_EQ(Csr{}.rows(), 0u);
}

// ---------------- aligned ----------------

TEST(Aligned, PaddedOccupiesFullCacheLine) {
  static_assert(sizeof(Padded<int>) == kCacheLine);
  static_assert(alignof(Padded<int>) == kCacheLine);
  Padded<int> arr[4];
  for (int i = 0; i < 4; ++i) *arr[i] = i;
  EXPECT_EQ(*arr[3], 3);
}

TEST(Aligned, VectorDataCacheAligned) {
  CacheAlignedVector<double> v(100, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLine, 0u);
  EXPECT_DOUBLE_EQ(std::accumulate(v.begin(), v.end(), 0.0), 100.0);
}

// ---------------- Timer ----------------

TEST(Timer, MonotonicAndRestartable) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(b, a);
  t.restart();
  EXPECT_LT(t.seconds(), 0.5);
}

TEST(Timer, PhaseTimesAccumulate) {
  PhaseTimes a{1.0, 2.0, 3.0}, b{0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.total(), 7.5);
}

}  // namespace
}  // namespace sapp
