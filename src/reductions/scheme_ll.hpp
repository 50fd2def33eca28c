// "ll" — replicated buffer with links (§4).
//
// Like rep, each thread has a full-size private buffer, but entries are
// initialized lazily on first touch and threaded onto a per-thread linked
// list. Re-initialization between invocations and the merge both walk only
// the touched entries, so the scheme's overhead scales with the touched set
// rather than with the array dimension.
//
// Merge partitions the element space: each worker walks every thread's
// touched list and folds in only the elements it owns, in ascending thread
// order. That trades a P-fold walk amplification (cheap: ll is selected
// when touched « dim) for a merge with no atomics and a deterministic
// floating-point combine order — the previous CAS-based merge was neither.
#pragma once

#include <algorithm>
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
class LinkedScheme final : public Scheme {
 public:
  [[nodiscard]] SchemeKind kind() const override {
    return SchemeKind::kLinked;
  }

  /// Buffers are uninitialized aligned storage: `val` is only ever read
  /// after the loop's first-touch neutralization, and `next` gets its bulk
  /// kUntouched sweep from the owning worker on first Init — which under
  /// first-touch placement also puts the pages on that worker's node.
  struct Plan final : SchemePlan {
    struct ThreadBuf {
      AlignedBuffer<double> val;
      AlignedBuffer<std::int32_t> next;  // kUntouched / kNil / element id
      std::int32_t head = kNil;
      bool virgin = true;  // next not yet bulk-initialized
    };
    mutable std::vector<ThreadBuf> bufs;
  };

  static constexpr std::int32_t kNil = -1;
  static constexpr std::int32_t kUntouched = -2;

  [[nodiscard]] std::unique_ptr<SchemePlan> plan(
      const AccessPattern& p, unsigned nthreads) const override {
    auto pl = std::make_unique<Plan>();
    pl->bufs.resize(nthreads);
    for (auto& b : pl->bufs) {
      b.val.reset(p.dim);
      b.next.reset(p.dim);
      b.virgin = true;
      b.head = kNil;
    }
    return pl;
  }

  SchemeResult execute(const SchemePlan* plan_base, const ReductionInput& in,
                       ThreadPool& pool, std::span<double> out) const override {
    const auto* pl = dynamic_cast<const Plan*>(plan_base);
    SAPP_REQUIRE(pl != nullptr && pl->bufs.size() == pool.size(),
                 "ll: plan missing or built for a different thread count");
    const std::size_t dim = in.pattern.dim;
    const auto& ptr = in.pattern.refs.row_ptr();
    const auto& idx = in.pattern.refs.indices();
    const auto* vals = in.values.data();
    const unsigned flops = in.pattern.body_flops;
    const kernels::KernelOps& K = kernels::active();

    SchemeResult r;
    r.private_bytes = static_cast<std::size_t>(pool.size()) * dim *
                      (sizeof(double) + sizeof(std::int32_t));

    // Init: first invocation pays a bulk flag sweep; later invocations only
    // unlink the entries the previous run touched.
    Timer t;
    pool.run([&](unsigned tid) {
      auto& b = pl->bufs[tid];
      SAPP_ASSERT_ALIGNED(b.val.data());
      if (b.virgin) {
        std::fill_n(b.next.data(), b.next.size(), kUntouched);
        b.virgin = false;
      } else {
        std::int32_t e = b.head;
        while (e != kNil) {
          const std::int32_t nxt = b.next[e];
          b.next[e] = kUntouched;
          e = nxt;
        }
      }
      b.head = kNil;
    });
    r.phases.init_s = t.seconds();

    t.restart();
    pool.parallel_for(in.pattern.iterations(), [&](unsigned tid, Range rg) {
      auto& b = pl->bufs[tid];
      double* SAPP_RESTRICT val = b.val.data();
      std::int32_t* SAPP_RESTRICT next = b.next.data();
      const std::uint64_t* SAPP_RESTRICT rp = ptr.data();
      const std::uint32_t* SAPP_RESTRICT ix = idx.data();
      const double* SAPP_RESTRICT v = vals;
      kernels::for_each_scaled(
          K, rg.begin, rg.end, flops,
          [val, next, rp, ix, v, &b](std::size_t i, double s) {
            for (std::uint64_t j = rp[i]; j < rp[i + 1]; ++j) {
              const std::uint32_t e = ix[j];
              if (next[e] == kUntouched) {  // first touch: link + neutralize
                val[e] = Op::neutral();
                next[e] = b.head;
                b.head = static_cast<std::int32_t>(e);
              }
              val[e] = Op::apply(val[e], v[j] * s);
            }
          });
    });
    r.phases.loop_s = t.seconds();

    // Merge: each worker owns a block of the element space and walks every
    // thread's touched list in ascending thread order, folding in only the
    // owned elements — synchronization-free and deterministic (see file
    // comment).
    t.restart();
    const unsigned P = pool.size();
    pool.run([&](unsigned tid) {
      const Range own = static_block(dim, tid, P);
      for (unsigned q = 0; q < P; ++q) {
        const auto& b = pl->bufs[q];
        const double* SAPP_RESTRICT val = b.val.data();
        const std::int32_t* SAPP_RESTRICT next = b.next.data();
        for (std::int32_t e = b.head; e != kNil; e = next[e]) {
          const auto ue = static_cast<std::size_t>(e);
          if (ue - own.begin < own.size())
            out[ue] = Op::apply(out[ue], val[ue]);
        }
      }
    });
    r.phases.merge_s = t.seconds();
    return r;
  }
};

}  // namespace sapp
