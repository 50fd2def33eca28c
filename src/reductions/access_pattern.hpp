// The reduction access pattern — the common IR of the repository.
//
// Both of the paper's techniques act on the *memory reference pattern* of a
// reduction loop `for i: w[x[i][k]] += e(i,k)`. `AccessPattern` captures that
// pattern as a CSR of iteration → referenced elements. It feeds
//   (a) the software schemes (src/reductions),
//   (b) the pattern characterizer and decision model (src/core), and
//   (c) the simulator's Sw/Hw/Flex trace generators (src/sim).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/csr.hpp"

namespace sapp {

/// Reference pattern of one reduction loop.
struct AccessPattern {
  /// Stable identity of the loop site this pattern belongs to (e.g.
  /// "Moldyn/ComputeForces"). The multi-site runtime keys its site table
  /// and persistent decision cache on this; empty means anonymous.
  /// Workload generators tag it with "<App>/<loop>".
  std::string loop_id;

  /// Dimension of the reduction array `w` (number of elements).
  std::size_t dim = 0;

  /// refs.row(i) = element indices updated by iteration i (may repeat).
  Csr refs;

  /// Extra floating-point work per iteration emulating the non-reduction
  /// body of the loop (Table 2 reports 118–1880 instructions/iteration).
  /// The body computes a deterministic per-iteration scale factor; see
  /// `iteration_scale`.
  unsigned body_flops = 0;

  /// Whether iteration replication is legal, i.e. the loop body has no side
  /// effects besides the reduction updates. Local-write requires this
  /// (paper: "no experiments with the Local Write method because iteration
  /// replication is very difficult due to the modification of shared arrays
  /// inside the loop body").
  bool iteration_replication_legal = true;

  [[nodiscard]] std::size_t iterations() const { return refs.rows(); }
  [[nodiscard]] std::size_t num_refs() const { return refs.nnz(); }
};

/// A pattern plus per-reference contribution values: reference j (in CSR
/// order) contributes `values[j] * iteration_scale(i, body_flops)` to
/// element refs.indices()[j].
struct ReductionInput {
  AccessPattern pattern;
  std::vector<double> values;  // size == pattern.num_refs()

  [[nodiscard]] bool consistent() const {
    return values.size() == pattern.num_refs();
  }
};

/// Constants of the loop-body chain (`iteration_scale`); the backend body
/// kernels (reductions/kernels.hpp) use the same ones.
inline constexpr double kBodySeedStep = 0x1p-11;
inline constexpr double kBodyMul = 0.9999694824218750;
inline constexpr double kBodyAdd = 0x1p-13;

/// Deterministic stand-in for the loop body's non-reduction computation:
/// a dependent chain of `flops` multiply-then-add steps (never contracted
/// into an FMA) seeded by `iter % 1024`. Returns a scale factor in roughly
/// [0.5, 2).
///
/// This is the contract, not the execution path: the schemes and
/// `run_sequential` evaluate it through the dispatched backend's `body`
/// kernels, which run 32 iterations' chains side by side and must return
/// exactly these bits (tests/kernels_test.cpp pins it on every backend).
/// Every iteration still performs all `flops` steps — no backend may
/// table, cache or reuse scales across the 1024-iteration period. The
/// in-flight checker's recomputation is the one place that tables them.
/// The differential and determinism tests compute their references with
/// this function.
inline double iteration_scale(std::uint64_t iter, unsigned flops) {
  double x = 1.0 + static_cast<double>(iter % 1024) * kBodySeedStep;
  for (unsigned k = 0; k < flops; ++k) {
    x = x * kBodyMul + kBodyAdd;  // a multiplier < 1 keeps x bounded
  }
  return x;
}

/// Reference sequential execution: the ground truth every parallel scheme
/// must reproduce (up to floating-point reassociation). Accumulates into
/// `out` (size pattern.dim) in iteration order.
void run_sequential(const ReductionInput& in, std::span<double> out);

/// Number of *distinct* elements referenced by the whole pattern.
std::size_t count_distinct(const AccessPattern& p);

/// Per-iteration distinct-element count summed over iterations (used for
/// the Mobility measure; repeats within one iteration count once).
std::size_t sum_iteration_distinct(const AccessPattern& p);

}  // namespace sapp
