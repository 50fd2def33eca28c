#include "core/cost_model.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "reductions/kernels.hpp"
#include "reductions/registry.hpp"
#include "reductions/scheme_hash.hpp"

namespace sapp {

namespace {

/// ns per op of `body(n)` measured over enough repetitions to exceed ~2 ms.
template <typename F>
double measure_ns(std::size_t n, F&& body) {
  Timer t;
  std::size_t reps = 0;
  do {
    body(n);
    ++reps;
  } while (t.seconds() < 2e-3);
  return t.seconds() * 1e9 / static_cast<double>(reps * n);
}

}  // namespace

MachineCoeffs MachineCoeffs::calibrate(ThreadPool& pool) {
  MachineCoeffs mc;
  constexpr std::size_t kN = 1 << 16;
  std::vector<double> a(kN, 1.0), b(kN, 2.0);
  std::vector<std::uint32_t> ix(kN);
  for (std::size_t i = 0; i < kN; ++i) ix[i] = static_cast<std::uint32_t>(
      (i * 2654435761u) % kN);

  // Init and Merge are exactly the kernel-backend primitives the schemes
  // execute, so calibrate through the dispatched backend: an AVX-512 host
  // gets AVX-512 Init/Merge coefficients and the ranking shifts with it.
  const kernels::KernelOps& K = kernels::active();
  mc.ns_init = measure_ns(kN, [&](std::size_t n) {
    K.fill(a.data(), n, 0.0);
  });
  mc.ns_update = measure_ns(kN, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) a[ix[i]] += b[i];
  });
  // Strided/random updates over a working set larger than cache.
  static std::vector<double> big(1 << 22, 0.0);
  mc.ns_update_far = measure_ns(kN, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      big[(i * 40503u + 77u) % big.size()] += b[i];
  });
  mc.ns_merge = measure_ns(kN, [&](std::size_t n) {
    K.merge_sum(a.data(), b.data(), n);
  }) * 2.0;  // merge reads a remote copy and writes: ~2 streams
  // 3 streams per merged element: read acc, read src, write acc.
  mc.merge_gbps = 3.0 * sizeof(double) / (mc.ns_merge / 2.0);
  // Body cost: the per-iteration scale chain, per step, timed through the
  // dispatched body kernel in the Loop phases' kBodyBlock blocks. The
  // chain is as long as the Fig. 3 bodies (40-56 steps): short chains
  // overlap inside the out-of-order window and read cheaper per step
  // than the sites' bodies run.
  constexpr unsigned kBodyFlops = 48;
  mc.ns_flop = measure_ns(kN, [&](std::size_t n) {
    for (std::size_t b = 0; b < n; b += kernels::kBodyBlock)
      K.body(a.data() + b, b, std::min(kernels::kBodyBlock, n - b),
             kBodyFlops);
  }) / kBodyFlops;
  std::atomic<double> acc{0.0};
  mc.ns_atomic = measure_ns(kN, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      double cur = acc.load(std::memory_order_relaxed);
      while (!acc.compare_exchange_weak(cur, cur + 1.0,
                                        std::memory_order_relaxed)) {
      }
    }
  });
  // Hash probe cost: measured on the library's real open-addressing table
  // at a realistic size/load instead of guessed.
  {
    HashScheme<>::Table tb;
    tb.reset(std::size_t{1} << 15);
    mc.ns_hash = measure_ns(kN, [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i)
        tb.accumulate(ix[i] & 0x2FFF, 1.0);
    });
  }
  mc.ns_link = mc.ns_update * 0.6;
  mc.ns_slot = mc.ns_update * 0.4;
  mc.ns_inspect = mc.ns_update * 1.6;
  mc.ns_alloc = mc.ns_init * 1.2;

  // Fork-join dispatch, per phase. A parallel invocation runs its phases
  // as back-to-back regions: the first finds the helpers parked whenever
  // the pool sat idle for longer than their spin (sites taking turns with
  // sequential work in between), the others catch them still spinning.
  // Price a phase as the mean of one parked and two spinning dispatches,
  // each a median over empty regions, so neither a preempted region nor
  // the slow first regions of a fresh pool move the coefficient.
  const auto region_us = [&pool] {
    Timer t;
    pool.run([](unsigned) {});
    return t.seconds() * 1e6;
  };
  std::vector<double> spinning(25), parked(9);
  for (double& us : spinning) us = region_us();
  for (double& us : parked) {
    // Idle for several times a helper's spin, so every helper parks.
    for (Timer idle; idle.seconds() < 200e-6;) {
    }
    us = region_us();
  }
  mc.fork_join_us = (median(parked) + 2.0 * median(spinning)) / 3.0;
  return mc;
}

CostPrediction predict_cost(SchemeKind kind, const PatternStats& s,
                            unsigned body_flops, const MachineCoeffs& mc) {
  CostPrediction c;
  c.scheme = kind;
  const double P = static_cast<double>(s.threads);
  const double refs = static_cast<double>(s.refs);
  const double iters = static_cast<double>(s.iterations);
  const double dim = static_cast<double>(s.dim);
  const double touched = s.touched_per_thread;
  const double flops = static_cast<double>(body_flops);
  const double body_ns = iters / P * flops * mc.ns_flop;
  const double fj = mc.fork_join_us * 1e3;  // ns per phase dispatch

  // Work per reference depends on whether the accumulation target fits in
  // cache: private full-size copies of a large array thrash, compact
  // buffers do not.
  const auto update_cost = [&](double working_set_elems) {
    return working_set_elems * sizeof(double) >
                   256.0 * 1024  // roughly per-core L2 share
               ? mc.ns_update_far
               : mc.ns_update;
  };

  switch (kind) {
    case SchemeKind::kRep:
      // Plan: allocate P full private copies.
      c.plan_s = P * dim * mc.ns_alloc * 1e-9;
      // Every thread initializes and merges a full copy; concurrent threads
      // share memory bandwidth, modeled as sqrt(P) effective parallelism
      // for the bandwidth-bound phases.
      // Init: each thread sweeps its own full copy concurrently; the
      // bandwidth factor max(1, P/2) models the shared memory system.
      c.init_s = (dim * mc.ns_init * std::max(1.0, P / 2) / P + fj) * 1e-9;
      c.loop_s = (refs / P * update_cost(dim) + body_ns + fj) * 1e-9;
      // Merge: dim*P element-reads spread over P threads = dim per thread,
      // again bandwidth-scaled.
      c.merge_s = (dim * mc.ns_merge * std::max(1.0, P / 2) + fj) * 1e-9;
      break;
    case SchemeKind::kLinked:
      // Plan: allocate P value+link copies (1.5x the data of rep).
      c.plan_s = P * dim * mc.ns_alloc * 1.5 * 1e-9;
      c.init_s = (touched * mc.ns_init + fj) * 1e-9;
      c.loop_s =
          (refs / P * (update_cost(dim) + mc.ns_link) + body_ns + fj) * 1e-9;
      c.merge_s = (touched * mc.ns_atomic + fj) * 1e-9;
      break;
    case SchemeKind::kSelective: {
      const double nshared = s.shared_fraction * static_cast<double>(s.distinct);
      // Plan: classify every reference + build the slot map + compact
      // buffers.
      c.plan_s =
          (refs * mc.ns_inspect + dim * mc.ns_init + P * nshared * mc.ns_alloc) *
          1e-9;
      c.init_s = (nshared * mc.ns_init + fj) * 1e-9;
      c.loop_s =
          (refs / P * (update_cost(nshared + dim / P) + mc.ns_slot) +
           body_ns + fj) *
          1e-9;
      c.merge_s = (nshared * mc.ns_merge + fj) * 1e-9;
      break;
    }
    case SchemeKind::kLocalWrite: {
      c.applicable = s.lw_legal;
      if (!c.applicable) break;
      // Plan: per-owner iteration lists (one inspector sweep).
      c.plan_s = refs * mc.ns_inspect * 1e-9;
      // Replicated iterations: each owner replica re-runs the body and
      // scans all references of the iteration; imbalance stretches the
      // critical path.
      const double repl = std::max(1.0, s.lw_replication);
      const double scan =
          refs * repl / P * (mc.ns_update * 0.5) /* scan-only refs */ +
          refs / P * update_cost(dim / P);
      c.loop_s = ((body_ns * repl + scan) * s.lw_imbalance + fj) * 1e-9;
      break;
    }
    case SchemeKind::kHash: {
      const double cap = std::min(dim, 2.0 * refs / P);
      // Probes get colder as the table outgrows the cache.
      const double probe =
          mc.ns_hash + (update_cost(cap * 1.5) - mc.ns_update);
      c.plan_s = P * cap * mc.ns_alloc * 1.5 * 1e-9;
      c.init_s = (cap * mc.ns_init + fj) * 1e-9;
      c.loop_s = (refs / P * probe + body_ns + fj) * 1e-9;
      c.merge_s = (touched * mc.ns_atomic + fj) * 1e-9;
      break;
    }
    case SchemeKind::kAtomic:
      c.loop_s = (refs / P * mc.ns_atomic * (1.0 + s.chd_gini * P) +
                  body_ns + fj) *
                 1e-9;
      break;
    case SchemeKind::kCritical:
      c.loop_s = (refs / P * mc.ns_atomic * 4.0 * P + body_ns + fj) * 1e-9;
      break;
    case SchemeKind::kSeq:
      c.loop_s = (refs * update_cost(dim) + iters * flops * mc.ns_flop) * 1e-9;
      break;
  }
  return c;
}

std::vector<CostPrediction> predict_all(const PatternStats& s,
                                        unsigned body_flops,
                                        const MachineCoeffs& mc) {
  std::vector<CostPrediction> out;
  for (SchemeKind k : candidate_scheme_kinds())
    out.push_back(predict_cost(k, s, body_flops, mc));
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    const double ta = a.applicable ? a.total()
                                   : std::numeric_limits<double>::infinity();
    const double tb = b.applicable ? b.total()
                                   : std::numeric_limits<double>::infinity();
    return ta < tb;
  });
  return out;
}

}  // namespace sapp
