// "lw" — local write, an owner-computes method (§4, after Han & Tseng).
//
// The reduction array is block-partitioned across threads; every thread
// executes (a replica of) each iteration that touches its partition but
// writes only the elements it owns. There is no private storage, no init
// and no merge — the cost is iteration replication: an iteration whose
// references span k partitions is executed k times. Requires the loop body
// to be side-effect free apart from the reduction updates
// (`AccessPattern::iteration_replication_legal`).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/compiler.hpp"
#include "reductions/kernels.hpp"
#include "reductions/reduction_op.hpp"
#include "reductions/scheme.hpp"

namespace sapp {

template <typename Op = SumOp<double>>
  requires ReductionOp<Op, double>
class LocalWriteScheme final : public Scheme {
 public:
  [[nodiscard]] SchemeKind kind() const override {
    return SchemeKind::kLocalWrite;
  }

  [[nodiscard]] bool applicable(const AccessPattern& p) const override {
    return p.iteration_replication_legal;
  }

  struct Plan final : SchemePlan {
    // Per-thread iteration lists on their own cache lines: each list is
    // streamed read-only by exactly one worker during the loop phase.
    std::vector<CacheAlignedVector<std::uint32_t>> iters;
    std::size_t replicated_executions = 0;  // Σ_t |iters[t]|
    unsigned nthreads = 0;
  };

  /// Owner of element e under a block partition of [0, dim).
  [[nodiscard]] static unsigned owner_of(std::size_t e, std::size_t dim,
                                         unsigned nthreads) {
    const std::size_t blk = (dim + nthreads - 1) / nthreads;
    const auto t = static_cast<unsigned>(e / blk);
    return t < nthreads ? t : nthreads - 1;
  }

  [[nodiscard]] std::unique_ptr<SchemePlan> plan(
      const AccessPattern& p, unsigned nthreads) const override {
    auto pl = std::make_unique<Plan>();
    pl->nthreads = nthreads;
    pl->iters.resize(nthreads);
    const auto& ptr = p.refs.row_ptr();
    const auto& idx = p.refs.indices();
    std::vector<std::uint64_t> last_seen(nthreads, ~std::uint64_t{0});
    for (std::size_t i = 0; i < p.refs.rows(); ++i) {
      for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
        const unsigned t = owner_of(idx[j], p.dim, nthreads);
        if (last_seen[t] != i) {  // first ref of iteration i into partition t
          last_seen[t] = i;
          pl->iters[t].push_back(static_cast<std::uint32_t>(i));
        }
      }
    }
    for (const auto& v : pl->iters) pl->replicated_executions += v.size();
    return pl;
  }

  SchemeResult execute(const SchemePlan* plan_base, const ReductionInput& in,
                       ThreadPool& pool, std::span<double> out) const override {
    SAPP_REQUIRE(applicable(in.pattern),
                 "lw: iteration replication not legal for this loop");
    const auto* pl = dynamic_cast<const Plan*>(plan_base);
    SAPP_REQUIRE(pl != nullptr && pl->nthreads == pool.size(),
                 "lw: plan missing or built for a different thread count");
    const std::size_t dim = in.pattern.dim;
    const auto& ptr = in.pattern.refs.row_ptr();
    const auto& idx = in.pattern.refs.indices();
    const auto* vals = in.values.data();
    const unsigned flops = in.pattern.body_flops;
    const kernels::KernelOps& K = kernels::active();
    const unsigned P = pool.size();
    const std::size_t blk = (dim + P - 1) / P;

    SchemeResult r;
    for (const auto& v : pl->iters)
      r.private_bytes += v.size() * sizeof(std::uint32_t);

    Timer t;
    pool.run([&](unsigned tid) {
      const std::size_t lo = static_cast<std::size_t>(tid) * blk;
      const std::size_t hi = lo + blk < dim ? lo + blk : dim;
      const std::size_t len = hi > lo ? hi - lo : 0;
      const std::uint32_t* SAPP_RESTRICT my_iters = pl->iters[tid].data();
      const std::size_t my_count = pl->iters[tid].size();
      const std::uint64_t* SAPP_RESTRICT rp = ptr.data();
      const std::uint32_t* SAPP_RESTRICT ix = idx.data();
      const double* SAPP_RESTRICT v = vals;
      double* SAPP_RESTRICT o = out.data();
      // Every replica runs the body again: replicated body work.
      kernels::for_each_scaled_ids(
          K, my_iters, my_count, flops,
          [rp, ix, v, o, lo, len](std::uint32_t i, double s) {
            for (std::uint64_t j = rp[i]; j < rp[i + 1]; ++j) {
              const std::uint32_t e = ix[j];
              // Single-compare ownership test: e in [lo, hi) iff e-lo < len.
              if (e - lo < len) o[e] = Op::apply(o[e], v[j] * s);
            }
          });
    });
    r.phases.loop_s = t.seconds();
    return r;
  }
};

}  // namespace sapp
