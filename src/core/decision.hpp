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
/// parallel pick can still be trialled against `seq` as a runner-up
/// (SchemeTrial). `decide_model` itself ranks only the paper's five schemes.
void add_sequential_venue(Decision& d, const PatternStats& stats,
                          unsigned body_flops, const MachineCoeffs& mc);

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
