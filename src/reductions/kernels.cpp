// Kernel backends and runtime dispatch (docs/backends.md).
//
// The AVX2/AVX-512 paths are compiled with per-function `target`
// attributes, so the whole file builds with the project's baseline flags
// and nothing vectorized executes unless CPUID said the ISA is there.
// Per-element combine order is identical across backends — lanes are
// independent, so scalar and vector backends produce bitwise-identical
// merges (tests/kernels_test.cpp pins this).
#include "reductions/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "reductions/access_pattern.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SAPP_X86_BACKENDS 1
#include <immintrin.h>
#endif

namespace sapp::kernels {

namespace {

// ------------------------------------------------------------- scalar
// On x86 the scalar loops forbid auto-vectorization: there the SIMD
// backends are the production path and "scalar" is the one-element-per-
// instruction ablation baseline the kernels experiment measures against.
// On other architectures the attribute is omitted — scalar IS the
// production path and the compiler should do whatever it can with it.
#if defined(SAPP_X86_BACKENDS) && defined(__GNUC__) && !defined(__clang__)
#define SAPP_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define SAPP_NO_AUTOVEC
#endif

SAPP_NO_AUTOVEC void scalar_fill(double* dst, std::size_t n, double value) {
  if (n == 0) return;
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  if (bits == 0) {
    std::memset(dst, 0, n * sizeof(double));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] = value;
}

SAPP_NO_AUTOVEC void scalar_merge_sum(double* acc, const double* src,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] + src[i];
}

SAPP_NO_AUTOVEC void scalar_merge_prod(double* acc, const double* src,
                                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] * src[i];
}

// min/max spell out the operator's exact select — `a < b ? a : b` with
// a = acc, b = src — which is also precisely what VMINPD/VMAXPD compute
// (false and NaN both select the second operand), so the vector paths
// agree bitwise even on NaN and signed-zero inputs.
SAPP_NO_AUTOVEC void scalar_merge_min(double* acc, const double* src,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] < src[i] ? acc[i] : src[i];
}

SAPP_NO_AUTOVEC void scalar_merge_max(double* acc, const double* src,
                                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] > src[i] ? acc[i] : src[i];
}

// The scalar body kernels are the reference itself: one chain at a time.
SAPP_NO_AUTOVEC void scalar_body(double* dst, std::uint64_t first,
                                 std::size_t n, unsigned flops) {
  for (std::size_t k = 0; k < n; ++k)
    dst[k] = iteration_scale(first + k, flops);
}

SAPP_NO_AUTOVEC void scalar_body_ids(double* dst, const std::uint32_t* ids,
                                     std::size_t n, unsigned flops) {
  for (std::size_t k = 0; k < n; ++k) dst[k] = iteration_scale(ids[k], flops);
}

#undef SAPP_NO_AUTOVEC

constexpr KernelOps kScalarOps{
    Backend::kScalar, "scalar",     "portable (no explicit SIMD)",
    scalar_fill,      scalar_merge_sum, scalar_merge_prod,
    scalar_merge_min, scalar_merge_max, scalar_body,
    scalar_body_ids,
};

#ifdef SAPP_X86_BACKENDS

// --------------------------------------------------------------- AVX2
// 256-bit lanes, 2x unrolled main loop, scalar tail (<= 7 elements).

__attribute__((target("avx2"))) void avx2_fill(double* dst, std::size_t n,
                                               double value) {
  const __m256d v = _mm256_set1_pd(value);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(dst + i, v);
    _mm256_storeu_pd(dst + i + 4, v);
  }
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(dst + i, v);
  for (; i < n; ++i) dst[i] = value;
}

#define SAPP_AVX2_MERGE(NAME, COMBINE, SCALAR_TAIL)                          \
  __attribute__((target("avx2"))) void NAME(double* acc, const double* src,  \
                                            std::size_t n) {                 \
    std::size_t i = 0;                                                       \
    for (; i + 8 <= n; i += 8) {                                             \
      const __m256d a0 = _mm256_loadu_pd(acc + i);                           \
      const __m256d a1 = _mm256_loadu_pd(acc + i + 4);                       \
      const __m256d s0 = _mm256_loadu_pd(src + i);                           \
      const __m256d s1 = _mm256_loadu_pd(src + i + 4);                       \
      _mm256_storeu_pd(acc + i, COMBINE(a0, s0));                            \
      _mm256_storeu_pd(acc + i + 4, COMBINE(a1, s1));                        \
    }                                                                        \
    for (; i + 4 <= n; i += 4) {                                             \
      const __m256d a = _mm256_loadu_pd(acc + i);                            \
      const __m256d s = _mm256_loadu_pd(src + i);                            \
      _mm256_storeu_pd(acc + i, COMBINE(a, s));                              \
    }                                                                        \
    for (; i < n; ++i) acc[i] = SCALAR_TAIL;                                 \
  }

SAPP_AVX2_MERGE(avx2_merge_sum, _mm256_add_pd, acc[i] + src[i])
SAPP_AVX2_MERGE(avx2_merge_prod, _mm256_mul_pd, acc[i] * src[i])
SAPP_AVX2_MERGE(avx2_merge_min, _mm256_min_pd,
                acc[i] < src[i] ? acc[i] : src[i])
SAPP_AVX2_MERGE(avx2_merge_max, _mm256_max_pd,
                acc[i] > src[i] ? acc[i] : src[i])
#undef SAPP_AVX2_MERGE

// Body kernels: 32 iteration chains at once, so the chain's multiply-add
// latency overlaps across chains (eight 4-lane registers here, four
// 8-lane ones in the AVX-512 kernels). The seeds are made in registers as
// four 8 x int32 vectors: only `iter % 1024` matters, which wrapping
// 32-bit arithmetic preserves. Storing them from scalar code and
// reloading them as vectors would fail store forwarding on every load. A
// short block computes all 32 lanes and stores only the first n, so no
// scalar epilogue runs after the vector code.

/// The four 8 x int32 seed vectors of one 32-iteration block. Passed and
/// returned by value, so they stay in registers.
struct Seeds {
  __m256i v[4];
};

/// Seeds of the 8 iterations base + off, base + off + 1, ...
__attribute__((target("avx2"))) inline __m256i range_lanes(std::uint32_t base,
                                                           std::uint32_t off) {
  return _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base + off)),
                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Seeds of the 32 iterations first, first + 1, ...
__attribute__((target("avx2"))) inline Seeds range_seeds(std::uint64_t first) {
  const auto base = static_cast<std::uint32_t>(first);
  return {{range_lanes(base, 0), range_lanes(base, 8), range_lanes(base, 16),
           range_lanes(base, 24)}};
}

/// Seeds of ids[lane0, min(len, lane0 + 8)) through a lane mask:
/// masked-off lanes neither load nor fault, and chain a 0 seed.
__attribute__((target("avx2"))) inline __m256i id_lanes(
    const std::uint32_t* ids, std::size_t len, std::size_t lane0) {
  const int rem = len > lane0 ? static_cast<int>(len - lane0) : 0;
  const __m256i mask =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(rem),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  return _mm256_maskload_epi32(reinterpret_cast<const int*>(ids + lane0),
                               mask);
}

/// Seeds of ids[0, min(len, 32)).
__attribute__((target("avx2"))) inline Seeds id_seeds(const std::uint32_t* ids,
                                                      std::size_t len) {
  const auto* p = reinterpret_cast<const __m256i*>(ids);
  if (len >= 32)
    return {{_mm256_loadu_si256(p), _mm256_loadu_si256(p + 1),
             _mm256_loadu_si256(p + 2), _mm256_loadu_si256(p + 3)}};
  return {{id_lanes(ids, len, 0), id_lanes(ids, len, 8),
           id_lanes(ids, len, 16), id_lanes(ids, len, 24)}};
}

/// Lanes [lane0, lane0 + 4) of a block of n, as a 64-bit-lane mask.
__attribute__((target("avx2"))) inline __m256i avx2_lanes(std::size_t n,
                                                          std::size_t lane0) {
  const long long rem = n > lane0 ? static_cast<long long>(n - lane0) : 0;
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(rem),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// Chain the 32 seeds through `flops` steps; store the first n (<= 32)
/// scales to dst.
__attribute__((target("avx2"))) inline void avx2_chain32(
    double* dst, Seeds seeds, std::size_t n, unsigned flops) {
  const __m256i period = _mm256_set1_epi32(1023);
  const __m256d step = _mm256_set1_pd(kBodySeedStep);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d mul = _mm256_set1_pd(kBodyMul);
  const __m256d add = _mm256_set1_pd(kBodyAdd);
  __m256d x[8];
#pragma GCC unroll 4
  for (unsigned v = 0; v < 4; ++v) {
    const __m256i s = _mm256_and_si256(seeds.v[v], period);
    x[2 * v] = _mm256_add_pd(
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(s)), step),
        one);
    x[2 * v + 1] = _mm256_add_pd(
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(s, 1)),
                      step),
        one);
  }
  for (unsigned k = 0; k < flops; ++k) {
#pragma GCC unroll 8
    for (unsigned v = 0; v < 8; ++v)
      x[v] = _mm256_add_pd(_mm256_mul_pd(x[v], mul), add);
  }
  if (n >= 32) {
#pragma GCC unroll 8
    for (unsigned v = 0; v < 8; ++v) _mm256_storeu_pd(dst + 4 * v, x[v]);
  } else {
#pragma GCC unroll 8
    for (unsigned v = 0; v < 8; ++v)
      _mm256_maskstore_pd(dst + 4 * v, avx2_lanes(n, 4 * v), x[v]);
  }
}

__attribute__((target("avx2"))) void avx2_body(double* dst,
                                               std::uint64_t first,
                                               std::size_t n, unsigned flops) {
  for (std::size_t i = 0; i < n; i += 32)
    avx2_chain32(dst + i, range_seeds(first + i), n - i, flops);
}

__attribute__((target("avx2"))) void avx2_body_ids(double* dst,
                                                   const std::uint32_t* ids,
                                                   std::size_t n,
                                                   unsigned flops) {
  for (std::size_t i = 0; i < n; i += 32)
    avx2_chain32(dst + i, id_seeds(ids + i, n - i), n - i, flops);
}

constexpr KernelOps kAvx2Ops{
    Backend::kAvx2, "avx2",         "AVX2 (256-bit)",
    avx2_fill,      avx2_merge_sum, avx2_merge_prod,
    avx2_merge_min, avx2_merge_max, avx2_body,
    avx2_body_ids,
};

// ------------------------------------------------------------ AVX-512
// GCC 12's AVX-512 intrinsics seed their pass-through operand with
// `_mm512_undefined_*`, which -Wuninitialized misreports (GCC PR 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
// 512-bit lanes; the tail is a single masked iteration (AVX-512F masked
// loads/stores), so there is no scalar epilogue at all.

__attribute__((target("avx512f"))) void avx512_fill(double* dst,
                                                    std::size_t n,
                                                    double value) {
  const __m512d v = _mm512_set1_pd(value);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm512_storeu_pd(dst + i, v);
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(dst + i, m, v);
  }
}

#define SAPP_AVX512_MERGE(NAME, COMBINE)                                     \
  __attribute__((target("avx512f"))) void NAME(                              \
      double* acc, const double* src, std::size_t n) {                       \
    std::size_t i = 0;                                                       \
    for (; i + 16 <= n; i += 16) {                                           \
      const __m512d a0 = _mm512_loadu_pd(acc + i);                           \
      const __m512d a1 = _mm512_loadu_pd(acc + i + 8);                       \
      const __m512d s0 = _mm512_loadu_pd(src + i);                           \
      const __m512d s1 = _mm512_loadu_pd(src + i + 8);                       \
      _mm512_storeu_pd(acc + i, COMBINE(a0, s0));                            \
      _mm512_storeu_pd(acc + i + 8, COMBINE(a1, s1));                        \
    }                                                                        \
    for (; i + 8 <= n; i += 8) {                                             \
      const __m512d a = _mm512_loadu_pd(acc + i);                            \
      const __m512d s = _mm512_loadu_pd(src + i);                            \
      _mm512_storeu_pd(acc + i, COMBINE(a, s));                              \
    }                                                                        \
    if (i < n) {                                                             \
      const __mmask8 m = static_cast<__mmask8>((1u << (n - i)) - 1u);        \
      const __m512d a = _mm512_maskz_loadu_pd(m, acc + i);                   \
      const __m512d s = _mm512_maskz_loadu_pd(m, src + i);                   \
      _mm512_mask_storeu_pd(acc + i, m, COMBINE(a, s));                      \
    }                                                                        \
  }

SAPP_AVX512_MERGE(avx512_merge_sum, _mm512_add_pd)
SAPP_AVX512_MERGE(avx512_merge_prod, _mm512_mul_pd)
SAPP_AVX512_MERGE(avx512_merge_min, _mm512_min_pd)
SAPP_AVX512_MERGE(avx512_merge_max, _mm512_max_pd)
#undef SAPP_AVX512_MERGE

// Body kernels: the AVX2 kernels' seeds and structure, four 8-lane
// chains wide, short blocks stored through lane masks.

/// Mask of lanes [lane0, lane0 + 8) of a block of n.
inline __mmask8 avx512_lanes(std::size_t n, std::size_t lane0) {
  const std::size_t rem = n > lane0 ? n - lane0 : 0;
  return rem >= 8 ? __mmask8{0xFF} : static_cast<__mmask8>((1u << rem) - 1u);
}

__attribute__((target("avx512f"))) inline void avx512_chain32(
    double* dst, Seeds seeds, std::size_t n, unsigned flops) {
  const __m256i period = _mm256_set1_epi32(1023);
  const __m512d step = _mm512_set1_pd(kBodySeedStep);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d mul = _mm512_set1_pd(kBodyMul);
  const __m512d add = _mm512_set1_pd(kBodyAdd);
  __m512d x[4];
#pragma GCC unroll 4
  for (unsigned v = 0; v < 4; ++v)
    x[v] = _mm512_add_pd(
        _mm512_mul_pd(
            _mm512_cvtepi32_pd(_mm256_and_si256(seeds.v[v], period)), step),
        one);
  for (unsigned k = 0; k < flops; ++k) {
#pragma GCC unroll 4
    for (unsigned v = 0; v < 4; ++v)
      x[v] = _mm512_add_pd(_mm512_mul_pd(x[v], mul), add);
  }
  if (n >= 32) {
#pragma GCC unroll 4
    for (unsigned v = 0; v < 4; ++v) _mm512_storeu_pd(dst + 8 * v, x[v]);
  } else {
#pragma GCC unroll 4
    for (unsigned v = 0; v < 4; ++v)
      _mm512_mask_storeu_pd(dst + 8 * v, avx512_lanes(n, 8 * v), x[v]);
  }
}

__attribute__((target("avx512f"))) void avx512_body(double* dst,
                                                    std::uint64_t first,
                                                    std::size_t n,
                                                    unsigned flops) {
  for (std::size_t i = 0; i < n; i += 32)
    avx512_chain32(dst + i, range_seeds(first + i), n - i, flops);
}

__attribute__((target("avx512f"))) void avx512_body_ids(
    double* dst, const std::uint32_t* ids, std::size_t n, unsigned flops) {
  for (std::size_t i = 0; i < n; i += 32)
    avx512_chain32(dst + i, id_seeds(ids + i, n - i), n - i, flops);
}

#pragma GCC diagnostic pop

constexpr KernelOps kAvx512Ops{
    Backend::kAvx512, "avx512",         "AVX-512F (512-bit, masked tail)",
    avx512_fill,      avx512_merge_sum, avx512_merge_prod,
    avx512_merge_min, avx512_merge_max, avx512_body,
    avx512_body_ids,
};

#endif  // SAPP_X86_BACKENDS

const KernelOps* ops_for(Backend b) {
  switch (b) {
    case Backend::kScalar: return &kScalarOps;
#ifdef SAPP_X86_BACKENDS
    case Backend::kAvx2: return &kAvx2Ops;
    case Backend::kAvx512: return &kAvx512Ops;
#else
    default: break;
#endif
  }
  return nullptr;
}

/// The selection — written once at first use (or by set_backend), read by
/// every scheme execution. Relaxed atomics keep TSan quiet if a test
/// flips the backend while helper threads are parked.
std::atomic<const KernelOps*> g_active{nullptr};

const KernelOps* resolve_from_env_or_cpu() {
  if (const char* env = std::getenv("SAPP_BACKEND");
      env != nullptr && *env != '\0') {
    Backend b{};
    std::string usable;
    for (Backend u : usable_backends()) {
      if (!usable.empty()) usable += ',';
      usable += to_string(u);
    }
    if (!parse_backend(env, b)) {
      const std::string msg = "SAPP_BACKEND='" + std::string(env) +
                              "' is not a known backend (usable here: " +
                              usable + ")";
      SAPP_REQUIRE(false, msg.c_str());
    }
    if (!compiled(b) || !cpu_supports(b)) {
      const std::string msg = "SAPP_BACKEND='" + std::string(env) +
                              "' is not usable on this host (usable: " +
                              usable + ")";
      SAPP_REQUIRE(false, msg.c_str());
    }
    return ops_for(b);
  }
  return ops_for(detect_best());
}

}  // namespace

const KernelOps& scalar_ops() { return kScalarOps; }

bool compiled(Backend b) {
#ifdef SAPP_X86_BACKENDS
  (void)b;
  return true;
#else
  return b == Backend::kScalar;
#endif
}

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar: return true;
#ifdef SAPP_X86_BACKENDS
    case Backend::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    case Backend::kAvx512: return __builtin_cpu_supports("avx512f") != 0;
#else
    default: break;
#endif
  }
  return false;
}

std::span<const Backend> usable_backends() {
  static const std::vector<Backend> usable = [] {
    std::vector<Backend> v;
    for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512})
      if (compiled(b) && cpu_supports(b)) v.push_back(b);
    return v;
  }();
  return usable;
}

Backend detect_best() {
  const auto usable = usable_backends();
  return usable.back();  // ascending width; scalar is always present
}

const KernelOps& active() {
  const KernelOps* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve_from_env_or_cpu();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

bool set_backend(Backend b) {
  if (!compiled(b) || !cpu_supports(b)) return false;
  g_active.store(ops_for(b), std::memory_order_release);
  return true;
}

bool parse_backend(std::string_view name, Backend& out) {
  for (Backend b : {Backend::kScalar, Backend::kAvx2, Backend::kAvx512})
    if (name == to_string(b)) {
      out = b;
      return true;
    }
  return false;
}

std::string dispatch_summary() {
  std::string s = active().name;
  s += " (detected: ";
  s += to_string(detect_best());
  s += ", usable:";
  for (Backend b : usable_backends()) {
    s += ' ';
    s += to_string(b);
  }
  s += ')';
  return s;
}

}  // namespace sapp::kernels
