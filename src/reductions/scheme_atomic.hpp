// Atomic read-modify-write baseline.
//
// Not in the paper's library, but the natural modern baseline: every update
// lands in the shared array via a CAS loop. Works for any pattern with no
// private storage, at the cost of coherence traffic on contended elements.
#pragma once

#include "reductions/kernels.hpp"
#include "reductions/reduction_op.hpp"
#include "reductions/scheme.hpp"

namespace sapp {

template <typename Op = SumOp<double>>
  requires ReductionOp<Op, double>
class AtomicScheme final : public Scheme {
 public:
  [[nodiscard]] SchemeKind kind() const override {
    return SchemeKind::kAtomic;
  }

  SchemeResult execute(const SchemePlan*, const ReductionInput& in,
                       ThreadPool& pool, std::span<double> out) const override {
    SchemeResult r;
    const auto* vals = in.values.data();
    const unsigned flops = in.pattern.body_flops;
    const kernels::KernelOps& K = kernels::active();
    const std::uint64_t* rp = in.pattern.refs.row_ptr().data();
    const std::uint32_t* ix = in.pattern.refs.indices().data();
    double* o = out.data();

    Timer t;
    pool.parallel_for(in.pattern.iterations(), [&](unsigned, Range rg) {
      kernels::for_each_scaled(
          K, rg.begin, rg.end, flops,
          [rp, ix, vals, o](std::size_t i, double s) {
            for (std::uint64_t j = rp[i]; j < rp[i + 1]; ++j)
              atomic_accumulate<Op>(o + ix[j], vals[j] * s);
          });
    });
    r.phases.loop_s = t.seconds();
    return r;
  }
};

}  // namespace sapp
