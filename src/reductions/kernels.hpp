// Execution-backend abstraction for the scheme hot kernels.
//
// The privatizing schemes spend their Init and Merge phases in two dense
// primitives: broadcast-filling a private buffer with the operator's
// neutral element, and folding one contiguous buffer into another
// (`acc[i] = op(acc[i], src[i])`). Both are data-parallel with no
// reassociation freedom per element, so they can be vectorized without
// changing a single result bit — the per-element sequence of operator
// applications is identical whether elements advance one at a time or
// eight per instruction.
//
// Every scheme's Loop phase (and `run_sequential`) also evaluates the
// loop body — `iteration_scale`, a dependent chain of `flops`
// multiply-then-add steps per iteration. No iteration's chain depends on
// another's, so the `body` kernels run 32 chains side by side and hide
// the chain's latency; each lane performs exactly the scalar steps, so
// every scale is bitwise `iteration_scale(i, flops)`.
//
// A `KernelOps` table bundles one implementation of these primitives.
// Three backends are compiled on x86-64 (scalar, AVX2, AVX-512); runtime
// dispatch picks the widest one the CPU supports at first use, and
// `SAPP_BACKEND` (or `set_backend`, the test/ablation hook) overrides it.
// The table is deliberately tiny and layout-free — a hierarchical GPU
// backend (PAPERS.md: "A Fast and Generic GPU-Based Parallel Reduction
// Implementation", arXiv:1710.07358) slots in by providing the same
// entry points plus its own combine tree; see docs/backends.md.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "reductions/reduction_op.hpp"

namespace sapp::kernels {

/// Identity of one compiled backend, widest last (dispatch preference
/// order is the reverse of this enum).
enum class Backend { kScalar, kAvx2, kAvx512 };

[[nodiscard]] constexpr const char* to_string(Backend b) {
  switch (b) {
    case Backend::kScalar: return "scalar";
    case Backend::kAvx2: return "avx2";
    case Backend::kAvx512: return "avx512";
  }
  return "?";
}

/// dst[i] = value for i in [0, n).
using FillFn = void (*)(double* dst, std::size_t n, double value);
/// acc[i] = op(acc[i], src[i]) for i in [0, n); acc and src must not alias.
using MergeFn = void (*)(double* acc, const double* src, std::size_t n);
/// dst[k] = iteration_scale(first + k, flops) for k in [0, n), bitwise.
using BodyFn = void (*)(double* dst, std::uint64_t first, std::size_t n,
                        unsigned flops);
/// dst[k] = iteration_scale(ids[k], flops) for k in [0, n), bitwise; the
/// ids need not be sorted.
using BodyIdsFn = void (*)(double* dst, const std::uint32_t* ids,
                           std::size_t n, unsigned flops);

/// One backend's kernel table. All functions accept any alignment (the
/// vector paths use unaligned loads, which cost nothing when the buffers
/// come from common/aligned.hpp), and n == 0.
struct KernelOps {
  Backend backend = Backend::kScalar;
  const char* name = "scalar";  ///< SAPP_BACKEND spelling
  const char* isa = "portable";  ///< human ISA description for metadata
  FillFn fill = nullptr;
  MergeFn merge_sum = nullptr;
  MergeFn merge_prod = nullptr;
  MergeFn merge_min = nullptr;
  MergeFn merge_max = nullptr;
  BodyFn body = nullptr;
  BodyIdsFn body_ids = nullptr;
};

/// The portable backend (always compiled). On x86 its loops carry a
/// no-autovectorize attribute so "scalar" genuinely means one element per
/// instruction — it is the ablation baseline, not the production path,
/// there. Elsewhere the compiler may still auto-vectorize it (it is the
/// production path and should be as fast as the toolchain allows).
[[nodiscard]] const KernelOps& scalar_ops();

/// True when this build contains code for `b` (scalar always; AVX paths
/// on x86-64 GCC/Clang builds only).
[[nodiscard]] bool compiled(Backend b);
/// True when the running CPU can execute `b`.
[[nodiscard]] bool cpu_supports(Backend b);
/// Backends that are both compiled and executable on this host, in
/// ascending width order (scalar first).
[[nodiscard]] std::span<const Backend> usable_backends();
/// Widest usable backend — what dispatch picks absent an override.
[[nodiscard]] Backend detect_best();

/// The active backend's kernel table. First use resolves `SAPP_BACKEND`
/// (scalar | avx2 | avx512; unusable or unknown values abort with a
/// message listing the usable ones) and falls back to detect_best().
[[nodiscard]] const KernelOps& active();
[[nodiscard]] inline Backend active_backend() { return active().backend; }

/// Force the active backend (test / ablation hook; not thread-safe with
/// concurrent scheme execution). Returns false and leaves the selection
/// unchanged when `b` is not usable on this host.
bool set_backend(Backend b);

/// Parse a SAPP_BACKEND spelling. Returns true and sets `out` on success.
[[nodiscard]] bool parse_backend(std::string_view name, Backend& out);

/// One-line description of the dispatch decision for result metadata,
/// e.g. "avx512 (detected: avx512, compiled: scalar,avx2,avx512)".
[[nodiscard]] std::string dispatch_summary();

/// The backend merge kernel for a reduction operator, or nullptr when the
/// operator has no kernel (exotic ops fall back to the schemes' generic
/// Op::apply loops).
template <typename Op>
[[nodiscard]] inline MergeFn merge_fn(const KernelOps& k) {
  if constexpr (std::is_same_v<Op, SumOp<double>>) return k.merge_sum;
  else if constexpr (std::is_same_v<Op, ProdOp<double>>) return k.merge_prod;
  else if constexpr (std::is_same_v<Op, MinOp<double>>) return k.merge_min;
  else if constexpr (std::is_same_v<Op, MaxOp<double>>) return k.merge_max;
  else return nullptr;
}

/// Backend-accelerated neutral fill — the software analogue of the PCLR
/// hardware's "line of neutral elements" (same contract as the scalar
/// fill_neutral in reduction_op.hpp).
template <typename Op>
  requires ReductionOp<Op, double>
inline void fill_neutral(const KernelOps& k, double* p, std::size_t n) {
  if (n == 0) return;
  k.fill(p, n, Op::neutral());
}

/// Iterations per body-kernel call in the Loop phases: the scales live in
/// a 512-byte stack block between the kernel and the reference scatter.
inline constexpr std::size_t kBodyBlock = 64;

/// f(i, iteration_scale(i, flops)) for i in [begin, end), in order, with
/// the scales computed kBodyBlock at a time by the backend body kernel.
template <typename F>
inline void for_each_scaled(const KernelOps& k, std::size_t begin,
                            std::size_t end, unsigned flops, F&& f) {
  double scale[kBodyBlock];
  for (std::size_t b = begin; b < end; b += kBodyBlock) {
    const std::size_t len = std::min(kBodyBlock, end - b);
    k.body(scale, b, len, flops);
    for (std::size_t q = 0; q < len; ++q) f(b + q, scale[q]);
  }
}

/// f(ids[q], iteration_scale(ids[q], flops)) for q in [0, n), in order
/// (the iteration-id-list form, for replicated iteration lists).
template <typename F>
inline void for_each_scaled_ids(const KernelOps& k, const std::uint32_t* ids,
                                std::size_t n, unsigned flops, F&& f) {
  double scale[kBodyBlock];
  for (std::size_t b = 0; b < n; b += kBodyBlock) {
    const std::size_t len = std::min(kBodyBlock, n - b);
    k.body_ids(scale, ids + b, len, flops);
    for (std::size_t q = 0; q < len; ++q) f(ids[b + q], scale[q]);
  }
}

}  // namespace sapp::kernels
