// In-flight probabilistic reduction checking (ROADMAP item 5).
//
// A parallel reduction scheme is trusted to compute, for every element e,
//     out[e] = before[e] ⊕ c_1 ⊕ c_2 ⊕ ... ⊕ c_k
// over the contributions the access pattern assigns to e. The checker
// recomputes that combine *independently of the scheme* from the input
// stream — in a representation that is exact and order-independent — for a
// pseudo-randomly sampled subset of elements, and compares against the
// merged output after the scheme ran (Thrill's reduce_checker idea,
// SNIPPETS.md #3, adapted to in-place array reductions).
//
// Per-operator checksum:
//   * sum — each contribution is quantized to a 2^-40 fixed-point grid
//     (llrint(ldexp(v, 40))) and accumulated into a 128-bit integer. The
//     integer sum is exact and order-independent, so the checker state
//     depends only on the input stream, never on how the scheme combined
//     it; the mod-2^64 fold of the slot sums is the experiment's portable
//     "input checksum". The verdict compares out[e] against
//     before[e] + sum/2^40 under a tolerance that covers both the scheme's
//     legal reassociation error and the quantization error (derivation in
//     docs/checking.md).
//   * min/max — the operators are exact (the result is one of the
//     operands), so the checker keeps the extremal sampled contribution as
//     a witness and demands value equality with Op(before, witness).
//
// Sampling: element e is checked iff its 16-element block hashes under the
// rate threshold — mix64(kSampleSeed, e/16) < rate·2^64 — a fixed
// pseudo-random subset, independent of the scheme and of thread count.
// Block granularity amortizes the membership hash (the selection pass is
// O(dim/16), not O(dim)) without changing the single-corruption bound:
// each element's membership is still a Bernoulli(rate) event, so one
// corrupted element is detected with probability exactly `rate`; only
// elements sharing a block are correlated (a corruption confined to k
// unsampled *blocks* escapes with probability (1-rate)^k). rate = 1 checks
// every element.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "reductions/access_pattern.hpp"

namespace sapp {

/// Reduction operator the checker validates against. The type-erased
/// scheme library runs double/sum; the templated schemes (and the tests)
/// also exercise min/max.
enum class CheckOp { kSum, kMin, kMax };

[[nodiscard]] constexpr std::string_view to_string(CheckOp op) {
  switch (op) {
    case CheckOp::kSum: return "sum";
    case CheckOp::kMin: return "min";
    case CheckOp::kMax: return "max";
  }
  return "?";
}

/// Checker knobs, embedded in AdaptiveOptions as `check`.
struct CheckerOptions {
  /// Off by default: the unchecked path is byte-identical to a build
  /// without the checker (no snapshot, no sampling pass).
  bool enabled = false;
  /// Fraction of elements sampled. Detection probability for one corrupted
  /// element; overhead scales with it.
  double sample_rate = 0.25;
};

/// Outcome of one begin()/verify() cycle.
struct CheckReport {
  static constexpr std::size_t knpos = std::numeric_limits<std::size_t>::max();

  bool passed = true;
  std::size_t slots_sampled = 0;   ///< elements under observation
  std::size_t slots_failed = 0;    ///< elements whose combine was wrong
  std::size_t contributions = 0;   ///< sampled contributions folded in
  std::size_t first_failed_slot = knpos;  ///< element index of first failure
  double max_rel_excess = 0.0;  ///< worst error/tolerance ratio seen (sum op)
  std::uint64_t input_checksum = 0;  ///< order-independent mod-2^64 fold
  /// Reference positions the input pass visited: 0 when no element is
  /// sampled, the recorded position count on a replay, every reference
  /// on a full scan.
  std::size_t refs_folded = 0;
  double check_s = 0.0;              ///< wall time spent checking
};

/// Per-site sampling state, cached across begin() calls so a steady-state
/// check costs O(rate·dim + rate·refs):
///   * the block selection — which elements are sampled and the slot of
///     each — depends only on (dim, rate), so a repeat begin() neither
///     hashes the dim/16 blocks nor rebuilds the per-block map;
///   * the sampled positions of one access pattern: on a fold over the
///     same reference stream (same Key), only the reference positions
///     that hit sampled blocks are replayed — O(rate·refs) instead of
///     O(refs). The record is sorted by slot, stably, so a replay folds
///     each slot's run in registers, in the recording scan's order; the
///     checker state is bitwise identical to a full scan.
/// A checker keeps one of its own; a caller that checks many patterns
/// alternately (AdaptiveReducer, one per site) passes its own to begin(),
/// so the sites do not evict each other.
struct SampledPositions {
  /// What the recorded positions are valid for: the exact reference
  /// stream (`Csr::id()`, equal only for copies of one construction), the
  /// output size and rate that fixed the block selection, and the body
  /// whose iteration scales were recorded. A pattern rebuilt with equal
  /// rows is a new id and rescans.
  struct Key {
    std::uint64_t id = 0;
    std::size_t dim = 0;
    double rate = 0.0;
    unsigned body_flops = 0;
    bool operator==(const Key&) const = default;
  };
  /// One recorded reference: its position j in the stream, the sampled
  /// slot its element maps to, and its iteration's iteration_scale (so a
  /// replay needs neither the index stream, the block map nor a scale
  /// table — sites with different body_flops alternate on a thread).
  struct Ref {
    std::uint32_t pos;
    std::uint32_t slot;
    double scale;
  };

  /// block_base entry of a block with no sampled element.
  static constexpr std::uint32_t kUnsampled = 0xFFFFFFFFu;

  /// Block selection, valid for (sel_dim, sel_rate) when sel_valid.
  std::size_t sel_dim = 0;
  double sel_rate = 0.0;
  bool sel_valid = false;
  /// Per-block map: first slot index of the block's run (kUnsampled when
  /// the block is unobserved).
  std::vector<std::uint32_t> block_base;
  std::vector<std::uint32_t> elements;  ///< slot → element index

  /// Recorded positions, valid for `key` when `valid`.
  Key key;
  bool valid = false;
  std::vector<Ref> refs;  ///< by slot; scan order within a slot
};

/// One-shot checker for a single scheme execution: snapshot + input pass
/// before the scheme runs, verdict after.
class ReductionChecker {
 public:
  /// Seed of the element-sampling hash. Fixed, so which elements a rate
  /// samples is reproducible across runs and processes.
  static constexpr std::uint64_t kSampleSeed = 0x5EEDC0DEDC0FFEEull;

  explicit ReductionChecker(CheckerOptions opt, CheckOp op = CheckOp::kSum);

  /// Re-arm a checker for a new begin()/verify() cycle with different
  /// options, keeping the allocated buffers. Lets long-lived callers
  /// (Scheme::execute_checked keeps one checker per thread) amortize the
  /// buffer setup across invocations instead of re-faulting pages each
  /// call.
  void configure(CheckerOptions opt, CheckOp op = CheckOp::kSum) {
    opt_ = opt;
    op_ = op;
    begun_ = false;
    checksum_ = 0;
  }

  /// Capture the pre-execution output snapshot for the sampled elements
  /// and fold the input stream into the checker state, on the calling
  /// thread. `out` is the output array *before* the scheme runs. The
  /// block selection is read from `positions` (the checker's own cache
  /// when null). Below rate 1 the fold records the pattern's sampled
  /// positions there on first sight and replays them on every later
  /// begin(); at rate 1 it scans every reference. `positions` must
  /// outlive the matching verify(). When no element is sampled the fold
  /// is skipped: every reference would miss.
  void begin(const ReductionInput& in, std::span<const double> out,
             SampledPositions* positions = nullptr);

  /// Compare the post-execution output against the recomputed combines.
  [[nodiscard]] CheckReport verify(std::span<const double> out) const;

  /// Order-independent checksum of the sampled input stream (valid after
  /// begin; equal across thread counts and combine orders by construction).
  [[nodiscard]] std::uint64_t input_checksum() const { return checksum_; }

  [[nodiscard]] std::size_t slots_sampled() const { return before_.size(); }

  /// The sampling predicate, exposed so tests and the fault-injection
  /// experiment can compute the analytical detection probability exactly:
  /// a single corruption of element e is detected iff slot_sampled(...).
  [[nodiscard]] static bool slot_sampled(double rate, std::uint64_t element);
  /// Number of sampled elements in [0, dim) — the exact per-input
  /// detection probability is count/dim for a uniformly placed corruption.
  [[nodiscard]] static std::size_t count_sampled(double rate,
                                                 std::size_t dim);

 private:
  /// The 1024-entry iteration_scale table for `body_flops` (rebuilt only
  /// when body_flops changes).
  std::span<const double> scale_table(unsigned body_flops);

  CheckerOptions opt_;
  CheckOp op_;
  /// Block selection of the current cycle (set by begin()).
  const SampledPositions* sel_ = nullptr;
  /// Per-sampled-element state, struct-of-arrays (the AoS layout cost a
  /// 64-byte write per slot and dominated the whole begin pass). The
  /// integer fields are exact under any association; `before_` is captured
  /// once, not accumulated. `qabs_` saturates at 2^64-1 (absolute sums
  /// past ~1.6e7 only widen the tolerance, never produce a false accept of
  /// a corrupted slot beyond it).
  ///
  /// The accumulator arrays (qsum_/qabs_/witness_) are allocated without
  /// initialization and first-touch initialized under the count guard
  /// (count 0 → store, else combine): on sparse patterns most sampled
  /// slots receive no contribution, and zero-filling 28 bytes per slot
  /// was the largest single cost of begin() on bandwidth-bound hosts. No
  /// path reads a slot's accumulators while its count is zero.
  std::vector<double> before_;           ///< out[e] before the scheme ran
  std::vector<std::uint32_t> counts_;    ///< contributions folded in
  std::unique_ptr<__int128[]> qsum_;        ///< sum: Σ llrint(c·2^40), exact
  std::unique_ptr<std::uint64_t[]> qabs_;   ///< sum: Σ|q|, saturating
  std::unique_ptr<double[]> witness_;       ///< min/max: extremal contribution
  std::size_t accum_cap_ = 0;  ///< allocated accumulator capacity (reused)
  /// scale_table()'s cache, valid for body_flops == scale_flops_.
  std::vector<double> scale_;
  unsigned scale_flops_ = 0;
  /// Sampled-positions cache used when begin() is given none.
  SampledPositions own_positions_;
  std::size_t refs_folded_ = 0;
  std::uint64_t checksum_ = 0;
  double begin_s_ = 0.0;
  bool begun_ = false;
};

}  // namespace sapp
