// Tests for feedback-guided block scheduling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "sched/feedback_sched.hpp"

namespace sapp {
namespace {

TEST(FeedbackGuided, InitialPartitionIsBlockSchedule) {
  FeedbackGuided fg(100, 4);
  std::size_t covered = 0;
  for (unsigned t = 0; t < 4; ++t) {
    const Range r = fg.block(t);
    covered += r.size();
    EXPECT_EQ(r.size(), 25u);
  }
  EXPECT_EQ(covered, 100u);
}

TEST(FeedbackGuided, BlocksStayContiguousAndComplete) {
  FeedbackGuided fg(997, 5, 1.0);
  Rng rng(3);
  for (int round = 0; round < 10; ++round) {
    for (unsigned t = 0; t < 5; ++t)
      fg.record(t, 0.001 + rng.uniform() * 0.01);
    fg.adapt();
    std::size_t prev = 0;
    for (unsigned t = 0; t < 5; ++t) {
      const Range r = fg.block(t);
      EXPECT_EQ(r.begin, prev);
      prev = r.end;
    }
    EXPECT_EQ(prev, 997u);
  }
}

// The core property (paper §3): with a persistently imbalanced iteration
// cost profile, repartitioning from measured block times converges toward
// equal block times.
TEST(FeedbackGuided, ConvergesOnSkewedCost) {
  constexpr std::size_t kN = 10000;
  constexpr unsigned kP = 4;
  // True cost: first 10% of iterations are 20x as expensive.
  auto iter_cost = [](std::size_t i) { return i < kN / 10 ? 20.0 : 1.0; };

  FeedbackGuided fg(kN, kP, 1.0);
  double final_imbalance = 0.0;
  for (int round = 0; round < 8; ++round) {
    double mx = 0.0, sum = 0.0;
    for (unsigned t = 0; t < kP; ++t) {
      const Range r = fg.block(t);
      double time = 0.0;
      for (std::size_t i = r.begin; i < r.end; ++i) time += iter_cost(i);
      time *= 1e-6;
      fg.record(t, time);
      mx = std::max(mx, time);
      sum += time;
    }
    final_imbalance = mx / (sum / kP);
    fg.adapt();
  }
  // Perfectly balanced would be 1.0; static blocks give ~2.75.
  EXPECT_LT(final_imbalance, 1.15);
}

TEST(FeedbackGuided, ImbalanceMetric) {
  FeedbackGuided fg(100, 2);
  fg.record(0, 0.3);
  fg.record(1, 0.1);
  EXPECT_NEAR(fg.imbalance(), 1.5, 1e-9);
}

TEST(FeedbackGuided, SmoothingDampsSingleOutlier) {
  // The same transient hiccup on thread 0 moves the cut much further with
  // smoothing 1.0 (trust only the last measurement) than with 0.3.
  constexpr std::size_t kN = 1000;
  auto cut_after_spike = [&](double smoothing) {
    FeedbackGuided fg(kN, 2, smoothing);
    fg.record(0, 1.0);   // 10x hiccup
    fg.record(1, 0.1);
    fg.adapt();
    return fg.block(0).end;
  };
  const std::size_t jumpy = cut_after_spike(1.0);
  const std::size_t damped = cut_after_spike(0.3);
  const auto dist = [&](std::size_t cut) {
    return cut > kN / 2 ? cut - kN / 2 : kN / 2 - cut;
  };
  EXPECT_LT(dist(damped), dist(jumpy));
  // Full trust: equal-cost cut under a 10:1 step profile sits at 275.
  EXPECT_NEAR(static_cast<double>(jumpy), 275.0, 5.0);
  // Damped: the cut barely moves off the middle.
  EXPECT_GT(damped, 450u);
}

TEST(FeedbackGuided, RejectsBadArguments) {
  EXPECT_DEATH(FeedbackGuided(0, 2), "iterations");
  EXPECT_DEATH(FeedbackGuided(10, 0), "thread");
  FeedbackGuided fg(10, 2);
  EXPECT_DEATH((void)fg.block(5), "tid");
  EXPECT_DEATH(fg.record(0, -1.0), "non-negative");
}

}  // namespace
}  // namespace sapp
