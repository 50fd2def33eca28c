#include "common/thread_pool.hpp"

#include "common/assert.hpp"
#include "common/compiler.hpp"

namespace sapp {

namespace {

// Bounded spin before parking on the futex. Sized so back-to-back regions
// (the common case: a scheme issues Init, Loop and Merge within
// microseconds of each other) are caught in the spin phase.
constexpr int kSpinIters = 1 << 10;

}  // namespace

ThreadPool::ThreadPool(unsigned nthreads) : nthreads_(nthreads) {
  SAPP_REQUIRE(nthreads >= 1, "pool needs at least one worker");
  // Spinning only helps when every worker owns a hardware context. On an
  // oversubscribed pool (more workers than the machine has contexts — the
  // paper-compat SAPP_THREADS=8 on a small container) a spinning thread
  // burns exactly the scheduler quantum the other workers need, so park
  // on the futex immediately instead.
  const unsigned hw = std::thread::hardware_concurrency();
  spin_iters_ = (hw == 0 || nthreads_ <= hw) ? kSpinIters : 1;
  helpers_.reserve(nthreads_ - 1);
  for (unsigned t = 1; t < nthreads_; ++t)
    helpers_.emplace_back([this, t] { worker_main(t); });
}

ThreadPool::~ThreadPool() {
  if (helpers_.empty()) return;
  stop_ = true;  // published by the epoch release-store below
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  epoch_.notify_all();
  for (auto& h : helpers_) h.join();
}

void ThreadPool::worker_main(unsigned tid) {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin-then-block until the epoch moves past the last region we ran.
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    int spins = 0;
    while (e == seen) {
      if (++spins < spin_iters_) {
        cpu_relax();
      } else {
        // Park. atomic::wait re-checks the value against `seen` before
        // blocking, so a bump between our load and the wait cannot be
        // lost; `sleepers_` only gates the dispatcher's futex wake. The
        // seq_cst register/recheck pair forms the store-buffering Dekker
        // with the dispatcher's seq_cst bump + sleepers_ load.
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        epoch_.wait(seen, std::memory_order_seq_cst);
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        spins = 0;
      }
      e = epoch_.load(std::memory_order_acquire);
    }
    seen = e;
    if (stop_) return;
    fn_(ctx_, tid);
    // Last helper out wakes the caller iff it actually went to sleep.
    // seq_cst pairs with the caller's flag-store / counter-load so at
    // least one side observes the other (plain store-load ordering).
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        caller_waiting_.load(std::memory_order_seq_cst))
      remaining_.notify_all();
  }
}

void ThreadPool::dispatch(RawFn fn, void* ctx) {
  if (helpers_.empty()) {  // pool of one: no fork-join state at all
    fn(ctx, 0);
    return;
  }

  fn_ = fn;
  ctx_ = ctx;
  remaining_.store(nthreads_ - 1, std::memory_order_relaxed);
  // Release the helpers. The release ordering publishes fn_/ctx_ and the
  // join counter; seq_cst additionally orders the bump against the
  // sleepers_ load (Dekker with the helpers' park sequence).
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) epoch_.notify_all();

  fn(ctx, 0);  // the caller is worker 0

  // Join: spin briefly — helpers finishing a balanced region land within
  // nanoseconds of worker 0 — then park on the counter.
  unsigned r = remaining_.load(std::memory_order_acquire);
  int spins = 0;
  while (r != 0) {
    if (++spins < spin_iters_) {
      cpu_relax();
      r = remaining_.load(std::memory_order_acquire);
    } else {
      // seq_cst flag-store / counter-load pairs with the helpers'
      // seq_cst decrement / flag-load (Dekker; see worker_main).
      caller_waiting_.store(true, std::memory_order_seq_cst);
      while ((r = remaining_.load(std::memory_order_seq_cst)) != 0)
        remaining_.wait(r, std::memory_order_seq_cst);
      caller_waiting_.store(false, std::memory_order_relaxed);
    }
  }
}

}  // namespace sapp
