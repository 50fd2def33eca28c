// Bitwise determinism of the parallel reduction schemes.
//
// The deterministic schemes (seq, rep, lw, sel, ll, hash) must produce
// bitwise-identical output run over run for a fixed RNG seed and thread
// count — floating-point combine order is part of their contract, and the
// pool rewrite / kernel tiling must not perturb it. For rep, sel and lw the
// test also checks against a straightforward serial emulation of the seed
// implementation's combine order (per-thread partials under the static
// block schedule, folded in ascending thread order), which pins the exact
// FP ordering the optimized kernels must preserve. ll and hash, whose seed
// merges used racy atomic accumulation (no defined order to preserve), are
// checked against the ascending-thread-order reference their rewritten
// sync-free merges promise. atomic and critical remain order-nondeterministic
// by construction and are covered by the tolerance suite in
// reductions_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reductions/registry.hpp"
#include "reductions/scheme_lw.hpp"

namespace sapp {
namespace {

ReductionInput build_input(std::size_t dim, std::size_t iterations,
                           unsigned refs_per_iter, double theta,
                           unsigned body_flops, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> ptr{0};
  std::vector<std::uint32_t> idx;
  for (std::size_t i = 0; i < iterations; ++i) {
    for (unsigned r = 0; r < refs_per_iter; ++r)
      idx.push_back(static_cast<std::uint32_t>(rng.zipf(dim, theta)));
    ptr.push_back(idx.size());
  }
  ReductionInput in;
  in.pattern.dim = dim;
  in.pattern.refs = Csr(std::move(ptr), std::move(idx));
  in.pattern.body_flops = body_flops;
  in.values.resize(in.pattern.num_refs());
  for (auto& v : in.values) v = rng.uniform(-2.0, 2.0);
  return in;
}

std::vector<double> run_scheme(SchemeKind kind, const ReductionInput& in,
                               ThreadPool& pool) {
  std::vector<double> out(in.pattern.dim, 0.0);
  const auto scheme = make_scheme(kind);
  (void)scheme->run(in, pool, out);
  return out;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e)
    ASSERT_EQ(std::memcmp(&a[e], &b[e], sizeof(double)), 0)
        << what << ": element " << e << " differs: " << a[e] << " vs "
        << b[e];
}

// Per-thread dense partial accumulation under the static block schedule —
// the loop-phase order every privatizing scheme uses. `touched[t][e]`
// records first-touch so lazily initialized schemes (ll, hash) can skip
// never-touched elements in the reference fold.
struct SerialPartials {
  std::vector<std::vector<double>> val;
  std::vector<std::vector<bool>> touched;
};

SerialPartials serial_partials(const ReductionInput& in, unsigned P) {
  SerialPartials sp;
  sp.val.assign(P, std::vector<double>(in.pattern.dim, 0.0));
  sp.touched.assign(P, std::vector<bool>(in.pattern.dim, false));
  const auto& ptr = in.pattern.refs.row_ptr();
  const auto& idx = in.pattern.refs.indices();
  for (unsigned t = 0; t < P; ++t) {
    const Range rg = static_block(in.pattern.iterations(), t, P);
    for (std::size_t i = rg.begin; i < rg.end; ++i) {
      const double s = iteration_scale(i, in.pattern.body_flops);
      for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
        const std::uint32_t e = idx[j];
        sp.val[t][e] += in.values[j] * s;
        sp.touched[t][e] = true;
      }
    }
  }
  return sp;
}

const SchemeKind kDeterministic[] = {SchemeKind::kSeq,      SchemeKind::kRep,
                                     SchemeKind::kLocalWrite,
                                     SchemeKind::kSelective, SchemeKind::kLinked,
                                     SchemeKind::kHash};

TEST(Determinism, RunToRunBitwiseIdentical) {
  const ReductionInput in = build_input(600, 2500, 3, 0.7, 2, 1234);
  for (const unsigned P : {1u, 3u, 4u}) {
    ThreadPool pool(P);
    for (const SchemeKind kind : kDeterministic) {
      const auto a = run_scheme(kind, in, pool);
      const auto b = run_scheme(kind, in, pool);
      expect_bitwise_equal(
          a, b,
          (std::string(to_string(kind)) + " P=" + std::to_string(P)).c_str());
    }
  }
}

TEST(Determinism, PlanReuseBitwiseIdentical) {
  // Reusing the inspector plan across invocations (the adaptive runtime's
  // steady state) must not change the result either.
  const ReductionInput in = build_input(400, 1500, 2, 0.5, 1, 77);
  ThreadPool pool(3);
  for (const SchemeKind kind : kDeterministic) {
    const auto scheme = make_scheme(kind);
    const auto plan = scheme->plan(in.pattern, pool.size());
    std::vector<double> a(in.pattern.dim, 0.0), b(in.pattern.dim, 0.0);
    (void)scheme->execute(plan.get(), in, pool, a);
    (void)scheme->execute(plan.get(), in, pool, b);
    expect_bitwise_equal(a, b, to_string(kind).data());
  }
}

TEST(Determinism, RepMatchesSeedCombineOrder) {
  // Seed rep: out[e], then private copies folded in ascending thread
  // order. The tiled merge must reproduce this bitwise at every thread
  // count CI runs: this is the one merge order rep has.
  const ReductionInput in = build_input(700, 3000, 3, 0.6, 2, 42);
  for (const unsigned P : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    ThreadPool pool(P);
    const auto got = run_scheme(SchemeKind::kRep, in, pool);
    const SerialPartials sp = serial_partials(in, P);
    std::vector<double> ref(in.pattern.dim, 0.0);
    for (std::size_t e = 0; e < ref.size(); ++e)
      for (unsigned q = 0; q < P; ++q) ref[e] += sp.val[q][e];
    expect_bitwise_equal(got, ref, "rep vs seed order");
  }
}

TEST(Determinism, LinkedAndHashMatchAscendingThreadOrder) {
  // The rewritten sync-free merges promise: per element, touched partial
  // copies fold into out in ascending thread order.
  const ReductionInput in = build_input(500, 2000, 2, 0.9, 0, 7);
  for (const unsigned P : {1u, 3u}) {
    ThreadPool pool(P);
    const SerialPartials sp = serial_partials(in, P);
    std::vector<double> ref(in.pattern.dim, 0.0);
    for (std::size_t e = 0; e < ref.size(); ++e)
      for (unsigned q = 0; q < P; ++q)
        if (sp.touched[q][e]) ref[e] += sp.val[q][e];
    for (const SchemeKind kind : {SchemeKind::kLinked, SchemeKind::kHash}) {
      const auto got = run_scheme(kind, in, pool);
      expect_bitwise_equal(got, ref, to_string(kind).data());
    }
  }
}

TEST(Determinism, SelectiveMatchesSeedCombineOrder) {
  // Seed sel: exclusive elements accumulate straight into out in the
  // owning thread's iteration order; shared elements privatize and fold in
  // ascending thread order, at every thread count CI runs.
  const ReductionInput in = build_input(300, 2000, 3, 0.4, 1, 9);
  const auto& ptr = in.pattern.refs.row_ptr();
  const auto& idx = in.pattern.refs.indices();
  for (const unsigned P : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    ThreadPool pool(P);
    const auto got = run_scheme(SchemeKind::kSelective, in, pool);

    // Classify shared elements exactly as the inspector does.
    std::vector<int> owner(in.pattern.dim, -1);
    std::vector<bool> shared(in.pattern.dim, false);
    for (unsigned t = 0; t < P; ++t) {
      const Range rg = static_block(in.pattern.iterations(), t, P);
      for (std::size_t i = rg.begin; i < rg.end; ++i)
        for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
          const std::uint32_t e = idx[j];
          if (owner[e] < 0)
            owner[e] = static_cast<int>(t);
          else if (owner[e] != static_cast<int>(t))
            shared[e] = true;
        }
    }
    std::vector<double> ref(in.pattern.dim, 0.0);
    std::vector<std::vector<double>> priv(
        P, std::vector<double>(in.pattern.dim, 0.0));
    for (unsigned t = 0; t < P; ++t) {
      const Range rg = static_block(in.pattern.iterations(), t, P);
      for (std::size_t i = rg.begin; i < rg.end; ++i) {
        const double s = iteration_scale(i, in.pattern.body_flops);
        for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
          const std::uint32_t e = idx[j];
          if (shared[e])
            priv[t][e] += in.values[j] * s;
          else
            ref[e] += in.values[j] * s;
        }
      }
    }
    for (std::size_t e = 0; e < ref.size(); ++e)
      if (shared[e])
        for (unsigned q = 0; q < P; ++q) ref[e] += priv[q][e];
    expect_bitwise_equal(got, ref, "sel vs seed order");
  }
}

TEST(Determinism, LocalWriteMatchesSeedCombineOrder) {
  // Seed lw: each thread replays its relevant iterations in ascending
  // order and writes only owned elements.
  const ReductionInput in = build_input(256, 1500, 2, 0.3, 1, 11);
  const unsigned P = 3;
  ThreadPool pool(P);
  const auto got = run_scheme(SchemeKind::kLocalWrite, in, pool);

  const auto& ptr = in.pattern.refs.row_ptr();
  const auto& idx = in.pattern.refs.indices();
  std::vector<double> ref(in.pattern.dim, 0.0);
  for (unsigned t = 0; t < P; ++t) {
    for (std::size_t i = 0; i < in.pattern.iterations(); ++i) {
      bool relevant = false;
      for (std::uint64_t j = ptr[i]; j < ptr[i + 1] && !relevant; ++j)
        relevant = LocalWriteScheme<>::owner_of(idx[j], in.pattern.dim, P) == t;
      if (!relevant) continue;
      const double s = iteration_scale(i, in.pattern.body_flops);
      for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
        const std::uint32_t e = idx[j];
        if (LocalWriteScheme<>::owner_of(e, in.pattern.dim, P) == t)
          ref[e] += in.values[j] * s;
      }
    }
  }
  expect_bitwise_equal(got, ref, "lw vs seed order");
}

}  // namespace
}  // namespace sapp
