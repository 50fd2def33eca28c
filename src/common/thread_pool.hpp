// Persistent low-overhead fork-join thread pool.
//
// Every parallel region in the library runs on this pool: the reduction
// schemes, the speculative-runtime substrate and the examples. Keeping the
// workers alive across invocations removes thread create/join cost from the
// measured phase times — the same property the paper's run-time library has.
//
// The dispatch path is built for very small regions (the Init/Merge phases
// the paper's schemes try to shrink are often microseconds):
//   - the calling thread participates as worker 0, so a pool of P uses
//     exactly P hardware contexts and a pool of 1 never synchronizes;
//   - `run`/`parallel_for` are templates that erase the body to one raw
//     function pointer + context pointer — no std::function, no heap
//     allocation, no virtual call per region;
//   - helper threads wait with a bounded spin (cpu_relax) before falling
//     back to a futex-backed std::atomic wait, so back-to-back regions
//     never pay a sleep/wake round trip;
//   - fork/join state lives on dedicated cache lines (alignas(kCacheLine))
//     so the epoch broadcast and the join counter never false-share.
// The `overhead` experiment (src/repro/exp_overhead.cpp) measures its
// per-region dispatch latency; CI holds it under an absolute ceiling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/aligned.hpp"

namespace sapp {

/// Half-open iteration range assigned to one worker.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin >= end; }
};

/// Contiguous block of a [0, n) iteration space owned by thread `tid` out of
/// `nthreads`, with remainder iterations spread over the leading threads.
///
/// Edge cases are explicit: `nthreads == 0` (or `tid >= nthreads`) yields an
/// empty range, and when `n < nthreads` the first `n` threads receive one
/// iteration each while the rest receive empty ranges — so the union over
/// tids always covers [0, n) exactly once.
[[nodiscard]] constexpr Range static_block(std::size_t n, unsigned tid,
                                           unsigned nthreads) {
  if (nthreads == 0 || tid >= nthreads) return Range{n, n};
  const std::size_t per = n / nthreads;
  const std::size_t rem = n % nthreads;
  const std::size_t lo =
      static_cast<std::size_t>(tid) * per + (tid < rem ? tid : rem);
  const std::size_t len = per + (tid < rem ? 1 : 0);
  return Range{lo, lo + len};
}

/// Fixed-size fork-join pool of `size()` workers, one of which is the
/// calling thread.
///
/// `run(f)` invokes `f(tid)` once for each tid in [0, size()) and returns
/// when all have finished; tid 0 always executes on the calling thread.
/// `parallel_for` partitions an index range statically in blocks.
///
/// Regions must be dispatched from one thread at a time (the owner of the
/// fork-join structure), must not throw, and must not recursively dispatch
/// onto the same pool.
class ThreadPool {
 public:
  /// Create a pool with `nthreads` workers (>=1). `nthreads - 1` helper
  /// threads are spawned; the calling thread is worker 0 of every region.
  explicit ThreadPool(unsigned nthreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return nthreads_; }

  /// Execute `f(tid)` once per worker; blocks until all complete. The body
  /// is captured by reference for the duration of the region only — no
  /// copy, no allocation. Exceptions escaping `f` terminate (parallel
  /// regions must not throw, matching the no-throw discipline of the
  /// schemes).
  template <typename F>
  void run(F&& f) {
    using Fn = std::remove_reference_t<F>;
    dispatch(
        [](void* ctx, unsigned tid) { (*static_cast<Fn*>(ctx))(tid); },
        const_cast<void*>(static_cast<const void*>(std::addressof(f))));
  }

  /// Statically blocked parallel loop over [0, n):
  /// each worker receives one contiguous `Range` (empty ranges skipped).
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    run([&](unsigned tid) {
      const Range r = static_block(n, tid, nthreads_);
      if (!r.empty()) body(tid, r);
    });
  }

 private:
  using RawFn = void (*)(void* ctx, unsigned tid);

  /// Type-erased region dispatch: publish (fn, ctx), release the helpers,
  /// run worker 0 inline, then join. Defined in thread_pool.cpp.
  void dispatch(RawFn fn, void* ctx);
  void worker_main(unsigned tid);

  unsigned nthreads_;
  /// Spin budget before parking: full when every worker can own a
  /// hardware context, ~zero when the pool oversubscribes the machine
  /// (spinning would steal the quantum the other workers need).
  int spin_iters_ = 1;
  std::vector<std::thread> helpers_;  // nthreads_ - 1 threads, tids 1..P-1

  // Fork side. `fn_`/`ctx_` are plain: they are written by the dispatching
  // thread before the epoch release-store and read by helpers only after
  // an acquire-load observes the new epoch.
  RawFn fn_ = nullptr;
  void* ctx_ = nullptr;
  bool stop_ = false;
  alignas(kCacheLine) std::atomic<std::uint64_t> epoch_{0};
  /// Helpers currently parked in epoch_.wait (gates the futex wake).
  alignas(kCacheLine) std::atomic<unsigned> sleepers_{0};

  // Join side.
  alignas(kCacheLine) std::atomic<unsigned> remaining_{0};
  /// Caller parked in remaining_.wait (gates the helpers' futex wake).
  alignas(kCacheLine) std::atomic<bool> caller_waiting_{false};
};

}  // namespace sapp
