// Property tests of the cluster-level machine model (sim/comm.hpp,
// sim/cluster.hpp, core/distributed_cost.hpp): fabric port contention,
// bitwise run-to-run determinism, single-node degeneration to the
// intra-node cost surface, zero-size and one-element-per-node edge cases,
// and bandwidth monotonicity of every strategy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/distributed_cost.hpp"
#include "sim/cluster.hpp"
#include "workloads/workload.hpp"

namespace sapp::sim {
namespace {

const MachineCoeffs kMc = MachineCoeffs::defaults();

ClusterConfig cluster_of(unsigned nodes, LinkConfig link = {}) {
  return {nodes, 8, link, kMc};
}

ReductionInput synth_input(std::size_t dim, std::size_t iterations,
                          unsigned refs_per_iter, std::uint64_t seed) {
  workloads::SynthParams p;
  p.dim = dim;
  p.distinct = std::max<std::size_t>(1, dim / 3);
  p.iterations = iterations;
  p.refs_per_iter = refs_per_iter;
  p.zipf_theta = 0.3;
  p.locality = 0.6;
  p.sort_iterations = false;
  p.body_flops = 3;
  p.seed = seed;
  return workloads::make_synthetic(p);
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(CommFabric, ArrivalIsReadyPlusOccupancyPlusLatency) {
  const LinkConfig link{1e-6, 1e9, 2e-6};
  CommFabric f(3, link);
  // occupancy = 2us software + 1000 B / 1 GB/s = 1us -> 3us on the ports.
  EXPECT_DOUBLE_EQ(f.transfer(0, 1, 1000, 0.0), 4e-6);
  EXPECT_EQ(f.messages(), 1u);
  EXPECT_EQ(f.bytes_on_wire(), 1000u);
}

TEST(CommFabric, SourcePortSerializesDistinctDestinations) {
  const LinkConfig link{1e-6, 1e9, 2e-6};
  CommFabric f(3, link);
  ASSERT_DOUBLE_EQ(f.transfer(0, 1, 1000, 0.0), 4e-6);
  // Same source: waits for the send port (busy until 3us), then 3us + 1us.
  EXPECT_DOUBLE_EQ(f.transfer(0, 2, 1000, 0.0), 7e-6);
}

TEST(CommFabric, DestinationPortSerializesDistinctSources) {
  const LinkConfig link{1e-6, 1e9, 2e-6};
  CommFabric f(3, link);
  ASSERT_DOUBLE_EQ(f.transfer(0, 1, 1000, 0.0), 4e-6);
  // Different source, same destination: waits for 1's receive port.
  EXPECT_DOUBLE_EQ(f.transfer(2, 1, 1000, 0.0), 7e-6);
}

TEST(CommFabric, NodeLocalTransferIsFree) {
  CommFabric f(2, {});
  EXPECT_DOUBLE_EQ(f.transfer(1, 1, 1 << 20, 0.125), 0.125);
  EXPECT_EQ(f.messages(), 0u);
  EXPECT_EQ(f.bytes_on_wire(), 0u);
}

TEST(OwnerOf, BlockPartitionCoversTheArray) {
  // dim=10 over 4 nodes: blocks of 3 -> owners 0,0,0,1,1,1,2,2,2,3.
  const unsigned expect[10] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3};
  for (std::size_t e = 0; e < 10; ++e)
    EXPECT_EQ(owner_of(e, 10, 4), expect[e]) << "element " << e;
  // dim < nodes: one element per node, trailing nodes own nothing.
  for (std::size_t e = 0; e < 3; ++e) EXPECT_EQ(owner_of(e, 3, 8), e);
}

TEST(SliceWork, ConservesRefsAndDistinct) {
  const ReductionInput in = synth_input(600, 4000, 2, 99);
  for (const unsigned nodes : {1u, 3u, 8u}) {
    const DistWork w = slice_work(in.pattern, nodes);
    ASSERT_EQ(w.nodes(), nodes);
    std::size_t refs = 0;
    for (unsigned n = 0; n < nodes; ++n) {
      refs += w.slices[n].refs;
      std::uint64_t row = 0;
      for (unsigned d = 0; d < nodes; ++d) row += w.refs_to[n * nodes + d];
      EXPECT_EQ(row, w.slices[n].refs) << "node " << n;
      EXPECT_LE(w.slices[n].distinct, w.distinct_total);
    }
    EXPECT_EQ(refs, in.pattern.num_refs());
    EXPECT_EQ(w.distinct_total, count_distinct(in.pattern));
  }
}

TEST(Cluster, RunToRunDeterminismIsBitwise) {
  const ReductionInput in = synth_input(512, 3000, 2, 7);
  const ClusterConfig cfg = cluster_of(5);
  for (const DistStrategy s : all_dist_strategies()) {
    for (const CombineOp op :
         {CombineOp::kAdd, CombineOp::kMin, CombineOp::kMax}) {
      const DistRunResult a = simulate_distributed(in, op, s, cfg);
      const DistRunResult b = simulate_distributed(in, op, s, cfg);
      EXPECT_EQ(std::memcmp(&a.total_s, &b.total_s, sizeof(double)), 0)
          << to_string(s);
      EXPECT_EQ(std::memcmp(&a.partial_s, &b.partial_s, sizeof(double)), 0);
      EXPECT_EQ(a.messages, b.messages);
      EXPECT_EQ(a.bytes, b.bytes);
      EXPECT_TRUE(bitwise_equal(a.w, b.w)) << to_string(s);
    }
  }
}

TEST(Cluster, SingleNodeDegeneratesToIntraNodeCost) {
  const ReductionInput in = synth_input(400, 2500, 2, 3);
  const DistWork work = slice_work(in.pattern, 1);
  const ClusterConfig cfg = cluster_of(1);
  for (const DistStrategy s : all_dist_strategies()) {
    const DistRunResult r = simulate_strategy(work, s, cfg);
    // No peers: zero communication, and the total IS the local phase —
    // which is priced straight off the intra-node predict_cost surface.
    EXPECT_EQ(r.messages, 0u) << to_string(s);
    EXPECT_EQ(r.bytes, 0u) << to_string(s);
    EXPECT_DOUBLE_EQ(r.total_s, r.partial_s) << to_string(s);
    EXPECT_DOUBLE_EQ(r.total_s, partial_cost(s, work, 0, cfg))
        << to_string(s);
  }
  const PatternStats st = node_stats(work, 0, cfg.cores_per_node);
  const unsigned flops = in.pattern.body_flops;
  EXPECT_DOUBLE_EQ(
      simulate_strategy(work, DistStrategy::kReplication, cfg).total_s,
      predict_cost(SchemeKind::kRep, st, flops, kMc).total());
  EXPECT_DOUBLE_EQ(
      simulate_strategy(work, DistStrategy::kCombining, cfg).total_s,
      predict_cost(SchemeKind::kHash, st, flops, kMc).total() +
          1e-9 * static_cast<double>(work.slices[0].distinct) * kMc.ns_slot);
}

TEST(Cluster, ZeroSizeReductionHasNoDivisionByZero) {
  ReductionInput in;  // dim 0, no iterations, no values
  for (const unsigned nodes : {1u, 2u, 4u}) {
    const ClusterConfig cfg = cluster_of(nodes);
    const DistWork work = slice_work(in.pattern, nodes);
    EXPECT_EQ(work.distinct_total, 0u);
    for (const DistStrategy s : all_dist_strategies()) {
      const DistRunResult r = simulate_distributed(in, CombineOp::kAdd, s, cfg);
      EXPECT_TRUE(std::isfinite(r.total_s)) << to_string(s);
      EXPECT_GE(r.total_s, 0.0) << to_string(s);
      EXPECT_TRUE(r.w.empty());
    }
  }
}

TEST(Cluster, OneElementPerNodeIsExact) {
  // dim == nodes, iteration i references element i once: every strategy
  // must land values[i] * iteration_scale(i) at element i.
  const unsigned nodes = 4;
  ReductionInput in;
  in.pattern.dim = nodes;
  in.pattern.refs = Csr({0, 1, 2, 3, 4}, {0, 1, 2, 3});
  in.pattern.body_flops = 2;
  in.values = {1.5, -2.0, 3.25, 0.5};
  std::vector<double> want(nodes, 0.0);
  run_sequential(in, want);

  for (const unsigned cluster : {nodes, 2 * nodes /* empty slices */}) {
    const ClusterConfig cfg = cluster_of(cluster);
    for (const DistStrategy s : all_dist_strategies()) {
      const DistRunResult r =
          simulate_distributed(in, CombineOp::kAdd, s, cfg);
      ASSERT_EQ(r.w.size(), nodes);
      // One contribution per element: no reassociation, so exact.
      EXPECT_TRUE(bitwise_equal(r.w, want))
          << to_string(s) << " on " << cluster << " nodes";
    }
  }
}

TEST(Cluster, DoublingBandwidthNeverSlowsAnyStrategy) {
  const ReductionInput in = synth_input(800, 5000, 2, 11);
  for (const unsigned nodes : {2u, 5u, 8u}) {
    const DistWork work = slice_work(in.pattern, nodes);
    for (const DistStrategy s : all_dist_strategies()) {
      LinkConfig link{10e-6, 0.5e9, 5e-6};
      double prev = simulate_strategy(work, s, cluster_of(nodes, link)).total_s;
      for (int step = 0; step < 6; ++step) {
        link.bytes_per_s *= 2.0;
        const double now =
            simulate_strategy(work, s, cluster_of(nodes, link)).total_s;
        EXPECT_LE(now, prev)
            << to_string(s) << " nodes=" << nodes << " step=" << step;
        prev = now;
      }
    }
  }
}

TEST(DistributedCostModel, RankingIsSortedAndMatchesTheSimulation) {
  const DistributedCostModel model(cluster_of(6, LinkConfig::hpc_100g()));
  const DistQuery q{1 << 15, 100'000, 200'000, 0.5, 4};
  const auto ranked = model.predict_all(q);
  ASSERT_EQ(ranked.size(), all_dist_strategies().size());
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].total_s, ranked[i].total_s);
  EXPECT_EQ(model.best(q), ranked.front().strategy);
  // The model IS the simulation: per-strategy totals agree bitwise.
  const DistWork work =
      synth_work(q.dim, q.iterations, q.refs, q.sparsity, q.body_flops, 6);
  for (const auto& pr : ranked) {
    const DistRunResult r =
        simulate_strategy(work, pr.strategy, model.config());
    EXPECT_EQ(std::memcmp(&pr.total_s, &r.total_s, sizeof(double)), 0)
        << to_string(pr.strategy);
  }
}

TEST(DistributedCostModel, MorePartialWorkRaisesEveryStrategy) {
  const DistributedCostModel model(cluster_of(4));
  const DistQuery small{1 << 14, 50'000, 100'000, 0.5, 4};
  DistQuery big = small;
  big.iterations *= 8;
  big.refs *= 8;
  const auto a = model.predict_all(small);
  const auto b = model.predict_all(big);
  for (const auto& pb : b) {
    for (const auto& pa : a) {
      if (pa.strategy == pb.strategy) {
        EXPECT_GT(pb.total_s, pa.total_s);
      }
    }
  }
}

}  // namespace
}  // namespace sapp::sim
