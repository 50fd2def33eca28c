// The decision algorithm (§4): pick the reduction parallelization scheme
// that best matches a characterized access pattern.
//
// Two deciders are provided:
//  * `decide_model`  — argmin over the analytic cost models (the ToolBox
//    Predictor/Optimizer path). This is the default.
//  * `decide_rules`  — the taxonomy-style rule cascade the paper sketches
//    (SP ≪ 1 → hash; high CHR & CON → rep; …). Kept as an ablation
//    (`sapp_repro ablation_decision`) and as documentation of the taxonomy.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.hpp"

namespace sapp {

/// Outcome of the decision process for one loop instance.
struct Decision {
  SchemeKind recommended{};
  /// All candidates with predicted costs, best first.
  std::vector<CostPrediction> predictions;
  /// Human-readable explanation (printed by the Fig. 3 harness).
  std::string rationale;
};

/// Cost-model-based decision (default path).
[[nodiscard]] Decision decide_model(const PatternStats& stats,
                                    unsigned body_flops,
                                    const MachineCoeffs& mc);

/// Venue step of the adaptive runtime: rank the sequential execution
/// (`kSeq`, which runs on the caller thread and never dispatches to the
/// pool) into a cost-model decision's predictions, and recommend it when
/// it is predicted cheapest. A site whose loop is too small to amortize a
/// parallel region's dispatch then skips the pool altogether, and a
/// parallel pick that overruns can still fall back to `seq` as a
/// runner-up. `decide_model` itself ranks only the paper's five schemes.
void add_sequential_venue(Decision& d, const PatternStats& stats,
                          unsigned body_flops, const MachineCoeffs& mc);

/// The mispredict loop's move when `current` keeps overrunning its
/// prediction: the best-ranked applicable scheme that is neither `current`
/// nor in `abandoned`, if it is predicted to take less than `beat_s`.
/// `current` when it is not: the model offers nothing faster than what
/// the site already ran, so a switch would only trade a scheme whose time
/// is known for a worse guess. nullopt when no untried scheme is left.
[[nodiscard]] std::optional<SchemeKind> next_runner_up(
    std::span<const CostPrediction> ranked,
    std::span<const SchemeKind> abandoned, SchemeKind current,
    double beat_s);

/// Thresholds of the rule-based taxonomy. Defaults reproduce the paper's
/// Fig. 3 recommendations under this repository's stat definitions.
struct RuleThresholds {
  double hash_sp_max = 3.0;     ///< SP (%) below which hash is considered
  double hash_mo_min = 6.0;     ///< ... for wide scatter iterations only
  double rep_chr_min = 2.0;     ///< CHR above which full replication pays
  double rep_dim_max = 8.0;     ///< ... as long as DIM (vs cache) is modest
  double lw_imbalance_max = 1.6;///< lw rejected above this owner imbalance
  double lw_replication_max = 1.7;  ///< lw rejected above this replication
  double ll_shared_min = 0.35;  ///< shared fraction above which ll beats sel
};

/// Rule-cascade decision.
[[nodiscard]] Decision decide_rules(const PatternStats& stats,
                                    const RuleThresholds& th = {});

}  // namespace sapp
