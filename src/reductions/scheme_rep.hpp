// "rep" — private accumulation and global update in replicated private
// arrays (§4).
//
// Each thread owns a full private copy of the reduction array. Phases:
//   Init : fill every private copy with the neutral element,
//   Loop : accumulate locally, no synchronization,
//   Merge: fold the P partial copies into `w`.
// This is also exactly the Sw baseline of the hardware evaluation (§6.2),
// whose Init and Merge costs PCLR eliminates.
//
// Init and Merge run on the active kernel backend (reductions/kernels.hpp:
// scalar or AVX2/AVX-512 via runtime dispatch) over 64-byte-aligned
// private buffers that are first-touch-initialized by their owning worker.
// The merge folds per element ((out ⊕ p0) ⊕ p1)… in ascending thread
// order on every host. That order is deterministic, and vectorization
// never changes a bit: per element the operator applications happen in
// the same sequence on every backend.
#pragma once

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
class RepScheme final : public Scheme {
 public:
  [[nodiscard]] SchemeKind kind() const override { return SchemeKind::kRep; }

  /// The plan only carries the reusable private arrays so repeated
  /// invocations don't pay allocation (they still pay Init: the arrays must
  /// be re-neutralized every time, which is the point of the scheme's cost
  /// model). Buffers are raw aligned storage — allocation touches no pages,
  /// so the owning worker's Init fill doubles as first-touch placement.
  struct Plan final : SchemePlan {
    mutable std::vector<AlignedBuffer<double>> priv;
  };

  [[nodiscard]] std::unique_ptr<SchemePlan> plan(
      const AccessPattern& p, unsigned nthreads) const override {
    auto pl = std::make_unique<Plan>();
    pl->priv.resize(nthreads);
    for (auto& v : pl->priv) v.reset(p.dim);
    return pl;
  }

  SchemeResult execute(const SchemePlan* plan_base, const ReductionInput& in,
                       ThreadPool& pool, std::span<double> out) const override {
    const auto* pl = dynamic_cast<const Plan*>(plan_base);
    SAPP_REQUIRE(pl != nullptr && pl->priv.size() == pool.size(),
                 "rep: plan missing or built for a different thread count");
    const std::size_t dim = in.pattern.dim;
    const auto& ptr = in.pattern.refs.row_ptr();
    const auto& idx = in.pattern.refs.indices();
    const auto* vals = in.values.data();
    const unsigned flops = in.pattern.body_flops;
    const unsigned P = pool.size();

    const kernels::KernelOps& K = kernels::active();
    const kernels::MergeFn merge = kernels::merge_fn<Op>(K);
    // acc[k] = Op(acc[k], src[k]) over a contiguous span: the backend
    // kernel when the operator has one, the generic loop otherwise.
    const auto fold = [&](double* SAPP_RESTRICT acc,
                          const double* SAPP_RESTRICT src, std::size_t len) {
      if (merge != nullptr) {
        merge(acc, src, len);
      } else {
        for (std::size_t k = 0; k < len; ++k)
          acc[k] = Op::apply(acc[k], src[k]);
      }
    };

    SchemeResult r;
    r.private_bytes = static_cast<std::size_t>(P) * dim * sizeof(double);

    Timer t;
    pool.run([&](unsigned tid) {
      auto& mine = pl->priv[tid];
      SAPP_ASSERT_ALIGNED(mine.data());
      kernels::fill_neutral<Op>(K, mine.data(), mine.size());
    });
    r.phases.init_s = t.seconds();

    t.restart();
    pool.parallel_for(in.pattern.iterations(), [&](unsigned tid, Range rg) {
      double* SAPP_RESTRICT mine = pl->priv[tid].data();
      const std::uint64_t* SAPP_RESTRICT rp = ptr.data();
      const std::uint32_t* SAPP_RESTRICT ix = idx.data();
      const double* SAPP_RESTRICT v = vals;
      kernels::for_each_scaled(
          K, rg.begin, rg.end, flops,
          [mine, rp, ix, v](std::size_t i, double s) {
            for (std::uint64_t j = rp[i]; j < rp[i + 1]; ++j) {
              const std::uint32_t e = ix[j];
              mine[e] = Op::apply(mine[e], v[j] * s);
            }
          });
    });
    r.phases.loop_s = t.seconds();

    // Merge: tile the element space so each private row streams through a
    // tile contiguously (unit stride — the kernel backend's merge) instead
    // of striding one element across all P copies.
    t.restart();
    constexpr std::size_t kTile = 1024;  // 8 KiB of `out` per tile
    pool.parallel_for(dim, [&](unsigned, Range rg) {
      double* SAPP_RESTRICT o = out.data();
      for (std::size_t t0 = rg.begin; t0 < rg.end; t0 += kTile) {
        const std::size_t t1 = t0 + kTile < rg.end ? t0 + kTile : rg.end;
        for (unsigned q = 0; q < P; ++q)
          fold(o + t0, pl->priv[q].data() + t0, t1 - t0);
      }
    });
    r.phases.merge_s = t.seconds();
    return r;
  }
};

}  // namespace sapp
