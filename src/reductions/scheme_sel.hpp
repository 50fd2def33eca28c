// "sel" — selective privatization (§4).
//
// An inspector pass classifies each referenced element as *exclusive*
// (referenced by exactly one thread under the block schedule) or *shared*
// (referenced by two or more). Only the shared elements are privatized,
// into compact per-thread buffers with a slot map; exclusive elements are
// written straight into the shared array with no synchronization. Init and
// merge cost scale with the number of shared elements only.
//
// The compact private rows are 64-byte-aligned uninitialized storage
// (common/aligned.hpp) first-touched by their owning worker, and the Init
// fill plus the merge's contiguous row folds run on the active kernel
// backend (reductions/kernels.hpp). The merge folds each shared slot in
// ascending thread order, the same order as rep's merge.
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
class SelectiveScheme final : public Scheme {
 public:
  [[nodiscard]] SchemeKind kind() const override {
    return SchemeKind::kSelective;
  }

  struct Plan final : SchemePlan {
    std::vector<std::int32_t> slot;          // element -> compact slot or -1
    std::vector<std::uint32_t> shared_elems; // slot -> element
    mutable std::vector<AlignedBuffer<double>> priv;  // [thread][slot]
    unsigned nthreads = 0;
  };

  /// Inspector: one sweep over the references under the same static block
  /// schedule the loop phase will use.
  [[nodiscard]] std::unique_ptr<SchemePlan> plan(
      const AccessPattern& p, unsigned nthreads) const override {
    auto pl = std::make_unique<Plan>();
    pl->nthreads = nthreads;
    constexpr std::uint8_t kNone = 0xFF;
    constexpr std::uint8_t kShared = 0xFE;
    SAPP_REQUIRE(nthreads < kShared, "thread count too large for inspector");
    std::vector<std::uint8_t> cls(p.dim, kNone);
    const auto& ptr = p.refs.row_ptr();
    const auto& idx = p.refs.indices();
    const std::size_t n = p.refs.rows();
    for (unsigned t = 0; t < nthreads; ++t) {
      const Range rg = static_block(n, t, nthreads);
      for (std::size_t i = rg.begin; i < rg.end; ++i)
        for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
          auto& c = cls[idx[j]];
          if (c == kNone)
            c = static_cast<std::uint8_t>(t);
          else if (c != t && c != kShared)
            c = kShared;
        }
    }
    pl->slot.assign(p.dim, -1);
    for (std::size_t e = 0; e < p.dim; ++e)
      if (cls[e] == kShared) {
        pl->slot[e] = static_cast<std::int32_t>(pl->shared_elems.size());
        pl->shared_elems.push_back(static_cast<std::uint32_t>(e));
      }
    pl->priv.resize(nthreads);
    for (auto& v : pl->priv) v.reset(pl->shared_elems.size());
    return pl;
  }

  SchemeResult execute(const SchemePlan* plan_base, const ReductionInput& in,
                       ThreadPool& pool, std::span<double> out) const override {
    const auto* pl = dynamic_cast<const Plan*>(plan_base);
    SAPP_REQUIRE(pl != nullptr && pl->nthreads == pool.size(),
                 "sel: plan missing or built for a different thread count");
    const auto& ptr = in.pattern.refs.row_ptr();
    const auto& idx = in.pattern.refs.indices();
    const auto* vals = in.values.data();
    const unsigned flops = in.pattern.body_flops;
    const unsigned P = pool.size();
    const std::size_t nshared = pl->shared_elems.size();

    const kernels::KernelOps& K = kernels::active();
    const kernels::MergeFn merge = kernels::merge_fn<Op>(K);
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
    r.private_bytes = static_cast<std::size_t>(P) * nshared * sizeof(double) +
                      pl->slot.size() * sizeof(std::int32_t);

    Timer t;
    pool.run([&](unsigned tid) {
      auto& mine = pl->priv[tid];
      if (mine.empty()) return;
      SAPP_ASSERT_ALIGNED(mine.data());
      kernels::fill_neutral<Op>(K, mine.data(), mine.size());
    });
    r.phases.init_s = t.seconds();

    t.restart();
    pool.parallel_for(in.pattern.iterations(), [&](unsigned tid, Range rg) {
      double* SAPP_RESTRICT mine = pl->priv[tid].data();
      const std::int32_t* SAPP_RESTRICT slot = pl->slot.data();
      const std::uint64_t* SAPP_RESTRICT rp = ptr.data();
      const std::uint32_t* SAPP_RESTRICT ix = idx.data();
      const double* SAPP_RESTRICT v = vals;
      kernels::for_each_scaled(
          K, rg.begin, rg.end, flops,
          [mine, slot, rp, ix, v, o = out.data()](std::size_t i, double s) {
            for (std::uint64_t j = rp[i]; j < rp[i + 1]; ++j) {
              const std::uint32_t e = ix[j];
              const std::int32_t sl = slot[e];
              const double contrib = v[j] * s;
              if (sl >= 0)
                mine[sl] = Op::apply(mine[sl], contrib);
              else  // exclusive to this thread under the block schedule
                o[e] = Op::apply(o[e], contrib);
            }
          });
    });
    r.phases.loop_s = t.seconds();

    // Merge: gather a tile of shared elements into a stack buffer once,
    // stream each private row through the tile with unit stride (the
    // backend merge kernel) in ascending thread order, then scatter back.
    t.restart();
    constexpr std::size_t kTile = 1024;  // 8 KiB stack buffer
    pool.parallel_for(nshared, [&](unsigned, Range rg) {
      double acc[kTile];
      const std::uint32_t* SAPP_RESTRICT se = pl->shared_elems.data();
      for (std::size_t t0 = rg.begin; t0 < rg.end; t0 += kTile) {
        const std::size_t len =
            (rg.end - t0 < kTile) ? rg.end - t0 : kTile;
        for (std::size_t k = 0; k < len; ++k) acc[k] = out[se[t0 + k]];
        for (unsigned q = 0; q < P; ++q)
          fold(acc, pl->priv[q].data() + t0, len);
        for (std::size_t k = 0; k < len; ++k) out[se[t0 + k]] = acc[k];
      }
    });
    r.phases.merge_s = t.seconds();
    return r;
  }
};

}  // namespace sapp
