// "hash" — sparse reductions with privatization in hash tables (§4).
//
// Each thread accumulates into a private open-addressing hash table keyed by
// element index. Private space, init and merge all scale with the number of
// elements the thread actually touches — for very sparse patterns (the
// paper's Spice, SP « 1) this shrinks the working set so much that it wins
// despite the per-access probe cost.
#pragma once

#include <bit>
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
class HashScheme final : public Scheme {
 public:
  [[nodiscard]] SchemeKind kind() const override { return SchemeKind::kHash; }

  /// Per-thread linear-probing table. Grows by doubling at 70% load.
  /// Storage is cache-line-aligned and allocated lazily on the first Init
  /// by the owning worker, so the pages land on that worker's node.
  struct Table {
    CacheAlignedVector<std::uint32_t> key;
    CacheAlignedVector<double> val;
    std::size_t mask = 0;
    std::size_t used = 0;

    static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

    void reset(std::size_t capacity) {
      const std::size_t cap = std::bit_ceil(capacity < 16 ? 16 : capacity);
      key.assign(cap, kEmpty);
      val.assign(cap, Op::neutral());
      mask = cap - 1;
      used = 0;
    }

    static std::size_t hash(std::uint32_t k) {
      std::uint64_t z = (static_cast<std::uint64_t>(k) + 1) *
                        0x9E3779B97F4A7C15ull;
      return static_cast<std::size_t>(z >> 32);
    }

    void accumulate(std::uint32_t k, double v) {
      std::size_t h = hash(k) & mask;
      for (;;) {
        if (key[h] == k) {
          val[h] = Op::apply(val[h], v);
          return;
        }
        if (key[h] == kEmpty) {
          key[h] = k;
          val[h] = Op::apply(Op::neutral(), v);
          if (++used * 10 > (mask + 1) * 7) grow();
          return;
        }
        h = (h + 1) & mask;
      }
    }

    void grow() {
      CacheAlignedVector<std::uint32_t> ok = std::move(key);
      CacheAlignedVector<double> ov = std::move(val);
      key.assign((mask + 1) * 2, kEmpty);
      val.assign((mask + 1) * 2, Op::neutral());
      mask = key.size() - 1;
      for (std::size_t i = 0; i < ok.size(); ++i) {
        if (ok[i] == kEmpty) continue;
        std::size_t h = hash(ok[i]) & mask;
        while (key[h] != kEmpty) h = (h + 1) & mask;
        key[h] = ok[i];
        val[h] = ov[i];
      }
    }

    [[nodiscard]] std::size_t capacity_bytes() const {
      return key.size() * (sizeof(std::uint32_t) + sizeof(double));
    }
  };

  struct Plan final : SchemePlan {
    mutable std::vector<Table> tables;
    std::size_t per_thread_refs = 0;
    std::size_t initial_capacity = 0;
    unsigned nthreads = 0;
  };

  [[nodiscard]] std::unique_ptr<SchemePlan> plan(
      const AccessPattern& p, unsigned nthreads) const override {
    auto pl = std::make_unique<Plan>();
    pl->nthreads = nthreads;
    pl->tables.resize(nthreads);
    // Size for the worst case of all-distinct refs per thread, capped by the
    // array dimension; the table grows if the estimate is beaten. The tables
    // themselves are allocated on first Init by their owning workers
    // (first-touch placement), not here.
    pl->per_thread_refs = p.num_refs() / nthreads + 1;
    pl->initial_capacity =
        2 * (pl->per_thread_refs < p.dim ? pl->per_thread_refs : p.dim);
    return pl;
  }

  SchemeResult execute(const SchemePlan* plan_base, const ReductionInput& in,
                       ThreadPool& pool, std::span<double> out) const override {
    const auto* pl = dynamic_cast<const Plan*>(plan_base);
    SAPP_REQUIRE(pl != nullptr && pl->nthreads == pool.size(),
                 "hash: plan missing or built for a different thread count");
    const auto& ptr = in.pattern.refs.row_ptr();
    const auto& idx = in.pattern.refs.indices();
    const auto* vals = in.values.data();
    const unsigned flops = in.pattern.body_flops;
    const kernels::KernelOps& K = kernels::active();

    SchemeResult r;

    Timer t;
    pool.run([&](unsigned tid) {
      auto& tb = pl->tables[tid];
      if (tb.key.empty()) {  // first invocation: owner allocates + touches
        tb.reset(pl->initial_capacity);
      } else {
        // Keep the grown capacity across invocations; just clear contents.
        std::fill(tb.key.begin(), tb.key.end(), Table::kEmpty);
        tb.used = 0;
      }
      SAPP_ASSERT_ALIGNED(tb.val.data());
    });
    r.phases.init_s = t.seconds();

    t.restart();
    pool.parallel_for(in.pattern.iterations(), [&](unsigned tid, Range rg) {
      auto& tb = pl->tables[tid];
      const std::uint64_t* SAPP_RESTRICT rp = ptr.data();
      const std::uint32_t* SAPP_RESTRICT ix = idx.data();
      const double* SAPP_RESTRICT v = vals;
      kernels::for_each_scaled(
          K, rg.begin, rg.end, flops,
          [rp, ix, v, &tb](std::size_t i, double s) {
            for (std::uint64_t j = rp[i]; j < rp[i + 1]; ++j)
              tb.accumulate(ix[j], v[j] * s);
          });
    });
    r.phases.loop_s = t.seconds();

    // Merge: each worker owns a block of the element space and scans every
    // thread's table in ascending thread order, folding in only the owned
    // keys — no atomics, and the per-element combine order is fixed, so the
    // result is deterministic. The P-fold scan amplification is cheap:
    // tables scale with the touched set, which is small whenever hash is
    // the right scheme.
    t.restart();
    const unsigned P = pool.size();
    pool.run([&](unsigned tid) {
      const Range own = static_block(in.pattern.dim, tid, P);
      for (unsigned q = 0; q < P; ++q) {
        const auto& tb = pl->tables[q];
        const std::uint32_t* SAPP_RESTRICT key = tb.key.data();
        const double* SAPP_RESTRICT val = tb.val.data();
        const std::size_t cap = tb.key.size();
        for (std::size_t h = 0; h < cap; ++h) {
          const std::uint32_t k = key[h];
          if (k != Table::kEmpty && k - own.begin < own.size())
            out[k] = Op::apply(out[k], val[h]);
        }
      }
    });
    r.phases.merge_s = t.seconds();

    for (const auto& tb : pl->tables) r.private_bytes += tb.capacity_bytes();
    return r;
  }
};

}  // namespace sapp
