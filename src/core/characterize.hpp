// Reference-pattern characterization (§4).
//
// "To find the best choice we establish a taxonomy of different access
//  patterns, devise simple, fast ways to recognize them, and model the
//  various ... reduction methods in order to find the best match."
//
// `characterize` computes the paper's measures from an AccessPattern:
//   CH  — histogram: number of elements referenced by a given number of
//         iterations,
//   CHD — the CH distribution, summarized here by a Gini skew coefficient,
//   CHR — ratio of total references to the space needed for replicated
//         arrays across processors (refs / (P · dim)),
//   CON — connectivity: references per distinct referenced element,
//   MO  — mobility: mean distinct elements referenced per iteration,
//   SP  — sparsity: percentage of the array that is actually referenced,
//   DIM — reduction array footprint relative to cache capacity.
// plus thread-dependent quantities the schemes' cost models need (per-thread
// touched sets, shared-element fraction, local-write replication factor and
// owner imbalance).
//
// The exact CHR/CON formulas are under-specified in the paper; the formulas
// implemented here are documented above and in docs/schemes.md, and the
// decision model is calibrated against *these* definitions.
#pragma once

#include <cstdint>
#include <vector>

#include "reductions/access_pattern.hpp"

namespace sapp {

/// Knobs for the characterizer.
struct CharacterizeOptions {
  /// Inspect every `sample_stride`-th iteration (1 = exact). Counts are
  /// scaled back up; "fast, approximative methods" per the paper.
  std::size_t sample_stride = 1;
};

/// Everything the decision model needs to know about one reduction loop.
struct PatternStats {
  // Raw sizes.
  std::size_t dim = 0;
  std::size_t iterations = 0;
  std::size_t refs = 0;
  std::size_t distinct = 0;

  // Paper measures.
  double mo = 0.0;   ///< distinct elements per iteration (mean)
  double con = 0.0;  ///< refs / distinct
  double sp = 0.0;   ///< 100 * distinct / dim  (percent)
  double dim_ratio = 0.0;  ///< dim * sizeof(double) / 512 KB (paper's L2)
  double chr = 0.0;  ///< refs / (P * dim)

  /// CH histogram: ch[k] = number of elements referenced k times
  /// (k capped at 64, so ch has 65 entries; index 0 unused).
  std::vector<std::uint64_t> ch;
  double chd_gini = 0.0;  ///< skew of CH distribution, 0 = uniform

  // Thread-dependent measures (computed for `threads`).
  unsigned threads = 0;
  double touched_per_thread = 0.0;  ///< mean |touched_t|
  double shared_fraction = 0.0;  ///< distinct elements referenced by >1 thread / distinct
  double lw_replication = 0.0;   ///< Σ_i |owner threads of i| / iterations
  double lw_imbalance = 1.0;     ///< max_t lw work / mean lw work

  // True when the loop body permits iteration replication (copied from the
  // pattern; lw legality).
  bool lw_legal = true;
};

/// Compute stats for `p` as seen by `threads` workers under the block
/// schedule all schemes use. One pass over the (sampled) references and
/// one over the distinct elements they touch: O(refs + distinct) time past
/// zeroing 5 bytes of scratch per element of `dim`; the touched list adds
/// 4 bytes per distinct element.
[[nodiscard]] PatternStats characterize(const AccessPattern& p,
                                        unsigned threads,
                                        const CharacterizeOptions& opt = {});

}  // namespace sapp
