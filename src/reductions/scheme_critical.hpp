// Striped-lock critical-section baseline.
//
// The "unoptimized compiler output" the paper's techniques replace: each
// update takes a lock guarding a stripe of the shared array.
#pragma once

#include <array>
#include <memory>
#include <mutex>

#include "reductions/kernels.hpp"
#include "reductions/reduction_op.hpp"
#include "reductions/scheme.hpp"

namespace sapp {

template <typename Op = SumOp<double>>
  requires ReductionOp<Op, double>
class CriticalScheme final : public Scheme {
 public:
  static constexpr std::size_t kStripes = 256;

  [[nodiscard]] SchemeKind kind() const override {
    return SchemeKind::kCritical;
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
    auto locks = std::make_unique<std::array<std::mutex, kStripes>>();
    auto& stripes = *locks;

    Timer t;
    pool.parallel_for(in.pattern.iterations(), [&](unsigned, Range rg) {
      kernels::for_each_scaled(
          K, rg.begin, rg.end, flops,
          [rp, ix, vals, o, &stripes](std::size_t i, double s) {
            for (std::uint64_t j = rp[i]; j < rp[i + 1]; ++j) {
              const std::uint32_t e = ix[j];
              std::scoped_lock lk(stripes[e % kStripes]);
              o[e] = Op::apply(o[e], vals[j] * s);
            }
          });
    });
    r.phases.loop_s = t.seconds();
    return r;
  }
};

}  // namespace sapp
