// Kernel backends, aligned buffers and the topology reader.
//
// The contracts pinned here:
//   * every compiled+usable backend's fill/merge matches a plain C++ loop
//     bitwise on every length (SIMD main loops, unrolled bodies and tail
//     handling included) and on adversarial values (NaN, +-0, +-inf);
//   * every backend's body kernels match iteration_scale bitwise on every
//     length, across the 1024-iteration period and for ids >= 2^31, and
//     write nothing past the block; every scheme's output is bitwise the
//     same under every backend on Fig. 3 rows;
//   * AlignedBuffer delivers 64-byte storage (the backends' assumption);
//   * the sysfs cpulist parser and the host probe behind result metadata.
// The rep/sel merge order itself is pinned bitwise in determinism_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/topology.hpp"
#include "reductions/kernels.hpp"
#include "reductions/registry.hpp"
#include "workloads/paramsets.hpp"

namespace sapp {
namespace {

// ------------------------------------------------------- AlignedBuffer

TEST(AlignedBuffer, DeliversCacheLineAlignment) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u, 4096u}) {
    AlignedBuffer<double> b(n);
    EXPECT_EQ(b.size(), n);
    EXPECT_FALSE(b.empty());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kCacheLine, 0u);
    SAPP_ASSERT_ALIGNED(b.data());  // the macro itself must accept it
  }
  AlignedBuffer<std::int32_t> ints(33);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ints.data()) % kCacheLine, 0u);
}

TEST(AlignedBuffer, MoveTransfersOwnershipAndEmptyIsEmpty) {
  AlignedBuffer<double> a(16);
  a[0] = 42.0;
  double* p = a.data();
  AlignedBuffer<double> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42.0);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.empty());

  AlignedBuffer<double> c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.data(), nullptr);
  c = std::move(b);
  EXPECT_EQ(c.data(), p);
}

// ------------------------------------------------------------- kernels

using kernels::Backend;

TEST(Kernels, ScalarIsAlwaysUsableAndListedFirst) {
  const auto usable = kernels::usable_backends();
  ASSERT_FALSE(usable.empty());
  EXPECT_EQ(usable.front(), Backend::kScalar);
  EXPECT_TRUE(kernels::compiled(Backend::kScalar));
  EXPECT_TRUE(kernels::cpu_supports(Backend::kScalar));
  // detect_best is the widest usable backend.
  EXPECT_EQ(kernels::detect_best(), usable.back());
}

TEST(Kernels, ParseBackendRoundTripsAndRejectsJunk) {
  for (const Backend b :
       {Backend::kScalar, Backend::kAvx2, Backend::kAvx512}) {
    Backend out{};
    ASSERT_TRUE(kernels::parse_backend(kernels::to_string(b), out));
    EXPECT_EQ(out, b);
  }
  Backend out{};
  EXPECT_FALSE(kernels::parse_backend("", out));
  EXPECT_FALSE(kernels::parse_backend("sse9", out));
  EXPECT_FALSE(kernels::parse_backend("AVX2", out));  // spellings are lower
}

TEST(Kernels, SetBackendRoundTripsOverUsableAndRefusesUnusable) {
  const Backend original = kernels::active_backend();
  for (const Backend b : kernels::usable_backends()) {
    ASSERT_TRUE(kernels::set_backend(b));
    EXPECT_EQ(kernels::active_backend(), b);
    EXPECT_STREQ(kernels::active().name, kernels::to_string(b));
  }
#ifndef __x86_64__
  EXPECT_FALSE(kernels::set_backend(Backend::kAvx2));
#endif
  ASSERT_TRUE(kernels::set_backend(original));
  // The summary names the active backend.
  EXPECT_NE(kernels::dispatch_summary().find(kernels::active().name),
            std::string::npos);
}

/// Reference implementations the backends must match bitwise.
enum class OpRefKind { kSum, kProd, kMin, kMax };
void ref_merge_apply(OpRefKind op, double* acc, const double* src,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    switch (op) {
      case OpRefKind::kSum: acc[i] = acc[i] + src[i]; break;
      case OpRefKind::kProd: acc[i] = acc[i] * src[i]; break;
      case OpRefKind::kMin: acc[i] = acc[i] < src[i] ? acc[i] : src[i]; break;
      case OpRefKind::kMax: acc[i] = acc[i] > src[i] ? acc[i] : src[i]; break;
    }
  }
}

kernels::MergeFn pick(const kernels::KernelOps& k, OpRefKind op) {
  switch (op) {
    case OpRefKind::kSum: return k.merge_sum;
    case OpRefKind::kProd: return k.merge_prod;
    case OpRefKind::kMin: return k.merge_min;
    case OpRefKind::kMax: return k.merge_max;
  }
  return nullptr;
}

TEST(Kernels, EveryBackendMatchesTheReferenceBitwiseOnEveryLength) {
  constexpr std::size_t kMax = 67;  // covers 512-bit x2, 512, 256, tails
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  AlignedBuffer<double> acc0(kMax), src(kMax), got(kMax), want(kMax);
  Rng rng(0xFEEDu);
  for (std::size_t i = 0; i < kMax; ++i) {
    acc0[i] = rng.uniform(-3.0, 3.0);
    src[i] = rng.uniform(-3.0, 3.0);
  }
  // Adversarial values at positions straddling vector-width boundaries.
  acc0[3] = qnan;  src[5] = qnan;
  acc0[8] = -0.0;  src[8] = +0.0;
  acc0[9] = +0.0;  src[9] = -0.0;
  acc0[17] = inf;  src[18] = -inf;
  acc0[33] = qnan; src[33] = qnan;
  // Unsorted iteration ids for body_ids, ids >= 2^31 included (the
  // kernels treat them as signed 32-bit lanes before masking the period).
  std::vector<std::uint32_t> ids(kMax);
  for (std::size_t i = 0; i < kMax; ++i)
    ids[i] = static_cast<std::uint32_t>(rng.uniform(0.0, 4294967295.0));
  ids[0] = 0x80000000u;
  ids[1] = 0xFFFFFFFFu;
  ids[2] = 1023;
  ids[3] = 1024;

  for (const Backend b : kernels::usable_backends()) {
    const kernels::KernelOps* k = nullptr;
    {
      const Backend original = kernels::active_backend();
      ASSERT_TRUE(kernels::set_backend(b));
      k = &kernels::active();
      ASSERT_TRUE(kernels::set_backend(original));
    }
    for (std::size_t n = 0; n <= kMax; ++n) {
      // fill: exact bit pattern, including negative zero and NaN payloads.
      for (const double v : {0.0, -0.0, 1.5, qnan}) {
        k->fill(got.data(), n, v);
        for (std::size_t i = 0; i < n; ++i) want[i] = v;
        EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)),
                  0)
            << kernels::to_string(b) << " fill n=" << n << " v=" << v;
      }
      for (const OpRefKind op : {OpRefKind::kSum, OpRefKind::kProd,
                                 OpRefKind::kMin, OpRefKind::kMax}) {
        std::memcpy(got.data(), acc0.data(), kMax * sizeof(double));
        std::memcpy(want.data(), acc0.data(), kMax * sizeof(double));
        pick(*k, op)(got.data(), src.data(), n);
        ref_merge_apply(op, want.data(), src.data(), n);
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), kMax * sizeof(double)), 0)
            << kernels::to_string(b) << " merge op="
            << static_cast<int>(op) << " n=" << n;
      }
      // body: dst[k] = iteration_scale(first + k, flops) bitwise, and not
      // one store past dst[n - 1] (the vector kernels store full blocks
      // through lane masks). The firsts straddle multiples of 1024 — the
      // seed period — and the 2^32 wrap of the kernels' 32-bit seeds.
      constexpr double kGuard = -7.0;
      for (const unsigned flops : {0u, 1u, 7u, 48u, 56u, 200u}) {
        for (const std::uint64_t first :
             {std::uint64_t{0}, std::uint64_t{1000}, std::uint64_t{1023},
              std::uint64_t{4090}, (std::uint64_t{1} << 32) - 30,
              (std::uint64_t{5} << 31) + 1001}) {
          for (std::size_t i = 0; i < kMax; ++i) got[i] = kGuard;
          k->body(got.data(), first, n, flops);
          for (std::size_t i = 0; i < kMax; ++i)
            want[i] = i < n ? iteration_scale(first + i, flops) : kGuard;
          EXPECT_EQ(
              std::memcmp(got.data(), want.data(), kMax * sizeof(double)), 0)
              << kernels::to_string(b) << " body n=" << n
              << " first=" << first << " flops=" << flops;
        }
        // body_ids over an unsorted list, ids >= 2^31 included.
        for (std::size_t i = 0; i < kMax; ++i) got[i] = kGuard;
        k->body_ids(got.data(), ids.data(), n, flops);
        for (std::size_t i = 0; i < kMax; ++i)
          want[i] = i < n ? iteration_scale(ids[i], flops) : kGuard;
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), kMax * sizeof(double)), 0)
            << kernels::to_string(b) << " body_ids n=" << n
            << " flops=" << flops;
      }
    }
  }
}

TEST(Kernels, EverySchemeIsBitwiseEqualAcrossBackendsOnFig3Rows) {
  // Three Fig. 3 rows with different body lengths (8, 40 and 56 flops).
  // atomic and critical combine in thread-arrival order, so they run on
  // one thread to be deterministic; the other schemes run on three.
  const auto rows = workloads::fig3_rows(0.05);
  ThreadPool pool1(1), pool3(3);
  const kernels::Backend original = kernels::active_backend();
  for (const std::size_t r : {0u, 8u, 14u}) {
    const ReductionInput& in = rows[r].workload.input;
    for (const SchemeKind kind : all_scheme_kinds()) {
      const auto scheme = make_scheme(kind);
      if (!scheme->applicable(in.pattern)) continue;
      ThreadPool& pool =
          kind == SchemeKind::kAtomic || kind == SchemeKind::kCritical
              ? pool1
              : pool3;
      std::vector<double> ref;
      for (const Backend b : kernels::usable_backends()) {
        ASSERT_TRUE(kernels::set_backend(b));
        std::vector<double> out(in.pattern.dim, 0.0);
        (void)scheme->run(in, pool, out);
        if (ref.empty()) {
          ref = std::move(out);
          continue;
        }
        EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                              ref.size() * sizeof(double)),
                  0)
            << in.pattern.loop_id << " row " << r << " "
            << to_string(kind) << " under " << kernels::to_string(b);
      }
    }
  }
  ASSERT_TRUE(kernels::set_backend(original));
}

TEST(Kernels, MergeFnMapsOperatorsAndFillNeutralFills) {
  const kernels::KernelOps& k = kernels::scalar_ops();
  EXPECT_EQ(kernels::merge_fn<SumOp<double>>(k), k.merge_sum);
  EXPECT_EQ(kernels::merge_fn<ProdOp<double>>(k), k.merge_prod);
  EXPECT_EQ(kernels::merge_fn<MinOp<double>>(k), k.merge_min);
  EXPECT_EQ(kernels::merge_fn<MaxOp<double>>(k), k.merge_max);

  AlignedBuffer<double> buf(13);
  kernels::fill_neutral<MaxOp<double>>(k, buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_EQ(buf[i], MaxOp<double>::neutral()) << i;
  kernels::fill_neutral<SumOp<double>>(k, buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0) << i;
}

// ------------------------------------------------------------ topology

TEST(Topology, ParseCpulistHandlesSysfsShapes) {
  EXPECT_EQ(parse_cpulist("0-3,8-11"),
            (std::vector<unsigned>{0, 1, 2, 3, 8, 9, 10, 11}));
  EXPECT_EQ(parse_cpulist("0"), (std::vector<unsigned>{0}));
  EXPECT_EQ(parse_cpulist("5,7"), (std::vector<unsigned>{5, 7}));
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist("garbage").empty());
  EXPECT_EQ(parse_cpulist("3-1,4"), (std::vector<unsigned>{4}));  // hi < lo
  EXPECT_EQ(parse_cpulist("4-2"), (std::vector<unsigned>{}));     // hi < lo
  EXPECT_EQ(parse_cpulist("x,2"), (std::vector<unsigned>{2}));
  // Overlapping chunks are legal sysfs output: each CPU exactly once,
  // sorted, no matter how the kernel phrased the list.
  EXPECT_EQ(parse_cpulist("0-2,2,1"), (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(parse_cpulist("2,0-1"), (std::vector<unsigned>{0, 1, 2}));
  EXPECT_TRUE(parse_cpulist("-3").empty());  // malformed range
}

TEST(Topology, HostProbeIsSaneAndSummarizes) {
  const CpuTopology& t = CpuTopology::host();
  EXPECT_GE(t.total_cpus, 1u);
  ASSERT_FALSE(t.nodes.empty());
  unsigned cpus = 0;
  for (const auto& n : t.nodes) cpus += static_cast<unsigned>(n.cpus.size());
  EXPECT_EQ(cpus, t.total_cpus);
  EXPECT_FALSE(t.summary().empty());
}

}  // namespace
}  // namespace sapp
