// Per-scheme analytic cost models — the ToolBox "Performance Models /
// Predictor" of Fig. 2.
//
// Each model predicts the wall time of one invocation of a scheme from the
// PatternStats and a small set of machine coefficients. The coefficients can
// be micro-calibrated on the host at startup (`MachineCoeffs::calibrate`),
// which is exactly the paper's "application and system specific databases
// ... supported by architectural and performance models".
#pragma once

#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "reductions/scheme.hpp"

namespace sapp {

class ThreadPool;

/// Host coefficients, all in nanoseconds per unit.
struct MachineCoeffs {
  double ns_update = 1.2;    ///< private-array accumulate (hit-dominated)
  double ns_update_far = 2.5;///< shared/large-array accumulate (miss-prone)
  double ns_init = 0.35;     ///< per-element bulk initialization
  double ns_merge = 1.8;     ///< per-element per-copy merge (read+add)
  double ns_atomic = 8.0;    ///< contended atomic read-modify-write
  double ns_hash = 4.0;      ///< hash probe+accumulate
  double ns_flop = 0.7;      ///< one step of the body chain (iteration_scale)
                             ///< as the dispatched body kernel runs it
                             ///< (32 chains side by side on SIMD backends),
                             ///< timed on 48-step chains
  double ns_link = 0.8;      ///< ll first-touch link maintenance
  double ns_slot = 0.5;      ///< sel slot-map indirection per reference
  double ns_inspect = 2.0;   ///< inspector work per reference (lw/sel)
  double ns_alloc = 0.4;     ///< private-storage allocation per element
  double fork_join_us = 15;  ///< per parallel phase dispatch overhead (one
                             ///< parked + two spinning regions, averaged)
  /// Merge-kernel streaming bandwidth (GB/s moved: read acc + read src +
  /// write acc per element) as measured on the active backend. Metadata
  /// for results; ns_init/ns_merge already embed it.
  double merge_gbps = 0.0;

  /// Coefficients measured on this host with short micro-loops (~10 ms).
  /// Init, Merge and the loop body run through the active kernel backend
  /// (reductions/kernels.hpp), so the predictions — and therefore the
  /// scheme ranking — track whatever ISA dispatch selected.
  static MachineCoeffs calibrate(ThreadPool& pool);
  /// Conservative defaults (used when calibration is disabled).
  static MachineCoeffs defaults() { return {}; }
};

/// Predicted phase breakdown for one scheme invocation, in seconds.
/// `plan_s` is the inspector/allocation cost the run-time system pays when
/// it adopts the scheme (charged once per characterization; included in
/// total() because the Fig. 3 ranking charges it too).
struct CostPrediction {
  SchemeKind scheme{};
  double plan_s = 0.0;
  double init_s = 0.0;
  double loop_s = 0.0;
  double merge_s = 0.0;
  bool applicable = true;

  [[nodiscard]] double total() const {
    return plan_s + init_s + loop_s + merge_s;
  }
};

/// Predict one invocation of `kind` on `stats` using `P = stats.threads`
/// workers. `body_flops` comes from the pattern.
[[nodiscard]] CostPrediction predict_cost(SchemeKind kind,
                                          const PatternStats& stats,
                                          unsigned body_flops,
                                          const MachineCoeffs& mc);

/// Predict all candidate schemes, sorted ascending by total cost
/// (inapplicable schemes sort last with +inf).
[[nodiscard]] std::vector<CostPrediction> predict_all(
    const PatternStats& stats, unsigned body_flops, const MachineCoeffs& mc);

// The cluster-level extension of this predictor — pricing the distributed
// strategies (message-combining, replication, owner-computes) over N nodes
// connected by a link model — lives in core/distributed_cost.hpp, layered
// on the task-graph simulator of sim/cluster.hpp.

}  // namespace sapp
