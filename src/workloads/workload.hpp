// Workload descriptors for the paper's applications.
//
// The paper evaluates on real FORTRAN/C codes (Irreg, Nbf, Moldyn, Spark98,
// Charmm, Spice for the software study; Euler, Equake, Vml, Charmm, Nbf for
// the hardware study). We cannot ship those inputs, so each application is
// reproduced as a *generator* that builds a reduction loop whose reference
// pattern matches the published statistics (MO/DIM/SP/CON plus iteration,
// instruction and reduction-op counts). DESIGN.md §2 documents this
// substitution; tests in tests/workloads_test.cpp assert the generated
// stats land in the intended regime.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "frontend/loop_ir.hpp"
#include "reductions/access_pattern.hpp"

namespace sapp::workloads {

/// Paper-published expectations for one Fig. 3 row (for side-by-side
/// printing; empty strings when the paper does not report a value).
struct PaperRow {
  std::string recommended;     ///< paper's "Recom. Scheme" column
  std::string measured_order;  ///< paper's experimental ordering, best first
};

/// One generated reduction workload.
struct Workload {
  std::string app;      ///< application ("Irreg", "Nbf", ...)
  std::string loop;     ///< loop name from the paper ("do100", "smvp", ...)
  std::string variant;  ///< input-size label (e.g. "dim=100000")
  ReductionInput input;
  PaperRow paper;

  /// Instructions per iteration (Table 2) — used by the simulator's trace
  /// generator to size the compute portion of each iteration.
  unsigned instr_per_iter = 0;
  /// Loop invocations in one program run (Table 2).
  unsigned invocations = 1;
  /// Bytes of input data (index/pair lists) streamed per iteration by the
  /// simulator traces. Varies enormously across the codes: an Euler edge
  /// reads two node ids (8 B) while an Nbf charge group streams its whole
  /// pair list (~800 B). 0 = default of 4 B per reference.
  unsigned input_bytes_per_iter = 0;
};

/// Stamp the pattern with its stable loop-site id ("<App>/<loop>") so the
/// multi-site runtime (sapp::Runtime) can key its site table and persistent
/// decision cache on it. Every generator calls this last.
inline void tag_site(Workload& w) {
  w.input.pattern.loop_id = w.app + "/" + w.loop;
}

/// Common knobs of the synthetic reference-pattern engine. Every app
/// generator is a differently-shaped instantiation of this.
struct SynthParams {
  std::size_t dim = 0;        ///< reduction array elements
  std::size_t distinct = 0;   ///< elements actually referenced
  std::size_t iterations = 0;
  unsigned refs_per_iter = 1; ///< the MO target
  double zipf_theta = 0.0;    ///< reference histogram skew (0 = uniform)
  double locality = 0.9;      ///< P(later ref close to the iteration's first)
  std::size_t window = 256;   ///< "close" = within this many active elements
  bool sort_iterations = true;///< order iterations by first element (mesh order)
  unsigned body_flops = 4;
  bool lw_legal = true;
  std::uint64_t seed = 12345;
};

/// Build a pattern+values from the synthetic engine.
[[nodiscard]] ReductionInput make_synthetic(const SynthParams& p);

// ---- Application generators (software study, Fig. 3) -------------------

/// IRREG: CFD-style edge list over an irregular mesh, MO=2, good spatial
/// locality after mesh renumbering.
[[nodiscard]] Workload make_irreg(std::size_t dim, std::size_t distinct,
                                  std::size_t edges, std::uint64_t seed);

/// NBF (GROMOS nonbonded force, loop do50): pair list accumulating into one
/// partner per interaction (MO=1), heavily skewed reference histogram.
[[nodiscard]] Workload make_nbf(std::size_t dim, std::size_t distinct,
                                std::size_t pairs, std::uint64_t seed);

/// MOLDYN ComputeForces: neighbor pairs of a 3-D particle lattice, MO=2,
/// high cross-thread sharing of the touched set.
[[nodiscard]] Workload make_moldyn(std::size_t dim, std::size_t distinct,
                                   std::size_t pairs, std::uint64_t seed);

/// SPARK98 smvp: symmetric sparse matrix-vector product accumulation,
/// MO=1, row-banded locality.
[[nodiscard]] Workload make_spark98(std::size_t dim, std::size_t distinct,
                                    std::size_t nnz, std::uint64_t seed);

/// CHARMM dynamc do78: bonded-force interaction lists, MO=2, large arrays,
/// heavy per-iteration body.
[[nodiscard]] Workload make_charmm(std::size_t dim, std::size_t distinct,
                                   std::size_t interactions,
                                   std::uint64_t seed);

/// SPICE bjt100 device loading: each device stamps ~28 scattered matrix
/// entries; tiny touched set inside a huge index space; iteration
/// replication illegal (device model updates shared state).
[[nodiscard]] Workload make_spice(std::size_t dim, std::size_t devices,
                                  std::uint64_t seed);

// ---- Drifting inputs (phase-aware runtime, §4 dynamic applications) ----

/// The two phases of a mid-run connectivity reshuffle on one loop site
/// (same dim, same loop_id — only the pattern moves between them).
struct DriftPhases {
  Workload dense;   ///< pre-reshuffle: mesh covering most of the array
  Workload sparse;  ///< post-reshuffle: scatter into a tiny active region
};

/// IRREG whose mesh is reshuffled mid-run: `dense` sweeps `dense_edges`
/// mesh edges over ~60% of the array per invocation (reuse — rep
/// territory); `sparse` scatters `sparse_edges` edges into ~dim/256 nodes
/// of the same array (sel/hash territory). Feeding dense×k then sparse×k
/// through one site is the drift the phase-aware runtime must catch —
/// see `sapp_repro phase_drift`.
[[nodiscard]] DriftPhases make_irreg_reshuffle(std::size_t dim,
                                               std::size_t dense_edges,
                                               std::size_t sparse_edges,
                                               std::uint64_t seed);

// ---- Frontend loop workloads (reduction simplification pass) -----------

/// A workload kept at the LoopNest level: the nested accumulation shape
/// the simplification pass (frontend/simplify.hpp) consumes. The
/// flattened ReductionInput of the adaptive runtime hides exactly the
/// cross-iteration reuse the pass exploits, so these generators hand out
/// the loop itself plus its runtime bindings.
struct LoopWorkload {
  std::string app;    ///< "PrefixSum" / "SlidingWindow"
  std::string loop;   ///< loop name (doubles as the fallback site id stem)
  frontend::LoopNest nest;
  frontend::Bindings bindings;
  std::string target;   ///< the reduction array
  std::size_t dim = 0;  ///< extent of the target
};

/// Prefix-sum shape with maximal reuse: `out[i] ⊕= in[j]` for 0 <= j <= i
/// over n outer iterations — O(n²) contributions naively, O(n) once the
/// pass rewrites it to a running scan. Input values are positive
/// (drawn in [0.5, 1.5)) so the rewritten forms stay numerically benign.
[[nodiscard]] LoopWorkload make_prefix_sum(
    std::size_t n, std::uint64_t seed,
    frontend::Statement::Op op = frontend::Statement::Op::kPlusAssign);

/// Sliding-window shape: `out[i] ⊕= in[j]` for i <= j < i+w — O(n·w)
/// contributions naively, O(n) as add–subtract (⊕ = +) or a monotonic
/// deque (⊕ = min/max). The input array carries n-1+w elements so every
/// window is fully in range.
[[nodiscard]] LoopWorkload make_sliding_window(
    std::size_t n, std::size_t w, std::uint64_t seed,
    frontend::Statement::Op op = frontend::Statement::Op::kPlusAssign);

// ---- Serving mix (serving-scale stress harness) ------------------------

/// One site of the serving-mix population: a randomized instantiation of
/// the synthetic engine whose shape (dim, iterations, refs/iter, skew,
/// locality, body flops, lw legality) is drawn deterministically from
/// (seed, index), so the same (seed, index) always regenerates the same
/// site. Sites span the regimes of every scheme — dense sweeps, sparse
/// scatters, skewed histograms — and are tagged "serve/s<index>".
/// `scale` multiplies the iteration count (request cost), not the
/// population shape. See sapp_bench's serving workloads / docs/serving.md.
[[nodiscard]] Workload make_serving_site(std::size_t index, double scale,
                                         std::uint64_t seed);

// ---- Cluster mix (distributed strategy sweep) --------------------------

/// The three workload regimes the `distributed` experiment sweeps across
/// node count × link class — chosen to straddle the strategy crossovers
/// (see docs/distributed.md).
enum class ClusterShape {
  kDense,   ///< touches ~the whole array, heavy reuse → replication regime
  kMid,     ///< moderate sparsity, balanced refs/dim → contested middle
  kSparse,  ///< tiny touched set in a huge array → combining/owner regime
};

[[nodiscard]] constexpr const char* to_string(ClusterShape s) {
  switch (s) {
    case ClusterShape::kDense: return "dense";
    case ClusterShape::kMid: return "mid";
    case ClusterShape::kSparse: return "sparse";
  }
  return "?";
}

/// Synthetic-engine instantiation of one cluster regime, scaled by the
/// repro harness's `--scale` (iteration count and reference volume shrink;
/// the regime's sparsity signature is preserved). Tagged "cluster/<shape>".
[[nodiscard]] Workload make_cluster_workload(ClusterShape shape, double scale,
                                             std::uint64_t seed);

// ---- Application generators (hardware study, Table 2) ------------------

/// EULER dflux do100 (HPF-2): flux accumulation over unstructured-mesh
/// edges.
[[nodiscard]] Workload make_euler(double scale, std::uint64_t seed);
/// EQUAKE smvp (SPECfp2000): sparse matrix-vector with 3 dofs per node.
[[nodiscard]] Workload make_equake(double scale, std::uint64_t seed);
/// VML VecMult CAB (Sparse BLAS): small dense-ish accumulation target.
[[nodiscard]] Workload make_vml(double scale, std::uint64_t seed);
/// CHARMM dynamc (hardware-study sizing).
[[nodiscard]] Workload make_charmm_hw(double scale, std::uint64_t seed);
/// NBF do50 (hardware-study sizing).
[[nodiscard]] Workload make_nbf_hw(double scale, std::uint64_t seed);

}  // namespace sapp::workloads
