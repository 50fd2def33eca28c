// Common interface of the parallel reduction schemes (§4).
//
// Every scheme executes `w[x[i][k]] ⊕= v(i,k)` over an AccessPattern and
// reports where its time went — inspector, private-storage initialization,
// loop body, and merge — plus how much private memory it allocated. This is
// the vocabulary the decision model (src/core) reasons in, and matches the
// Init/Loop/Merge breakdown of the hardware evaluation (Fig. 6).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>

#include "check/checker.hpp"
#include "check/fault_injector.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "reductions/access_pattern.hpp"

namespace sapp {

/// Identifiers for the scheme library. Order defines the printing order in
/// the benchmark tables.
enum class SchemeKind {
  kSeq,       ///< sequential reference
  kAtomic,    ///< atomic read-modify-write into shared array (baseline)
  kCritical,  ///< striped-mutex critical sections (baseline)
  kRep,       ///< replicated private arrays + merge (paper: "rep")
  kLocalWrite,///< owner-computes with iteration replication (paper: "lw")
  kLinked,    ///< replicated buffer with links, lazy init (paper: "ll")
  kSelective, ///< selective privatization of shared elements (paper: "sel")
  kHash,      ///< private hash-table accumulation (paper: "hash")
};

[[nodiscard]] constexpr std::string_view to_string(SchemeKind k) {
  switch (k) {
    case SchemeKind::kSeq: return "seq";
    case SchemeKind::kAtomic: return "atomic";
    case SchemeKind::kCritical: return "critical";
    case SchemeKind::kRep: return "rep";
    case SchemeKind::kLocalWrite: return "lw";
    case SchemeKind::kLinked: return "ll";
    case SchemeKind::kSelective: return "sel";
    case SchemeKind::kHash: return "hash";
  }
  return "?";
}

/// Outcome of one scheme execution.
struct SchemeResult {
  double inspect_s = 0.0;   ///< inspector/plan time (amortizable across invocations)
  PhaseTimes phases;        ///< init / loop / merge wall times
  std::size_t private_bytes = 0;  ///< private storage allocated
  /// Wall time the in-flight checker spent (execute_checked only). Kept
  /// out of `phases` so checked and unchecked loop times stay comparable.
  double check_s = 0.0;

  [[nodiscard]] double total_s() const { return phases.total(); }
  [[nodiscard]] double total_with_inspect_s() const {
    return inspect_s + phases.total();
  }
};

/// Reusable inspector output. Patterns are typically executed many times
/// (the paper's loops run hundreds of invocations); schemes that need an
/// inspector build a Plan once and reuse it while the pattern is unchanged.
struct SchemePlan {
  virtual ~SchemePlan() = default;
};

/// Abstract parallel reduction scheme over double/sum (the paper's
/// operator). Template implementations underneath are generic over the
/// operator; this type-erased interface is what the adaptive runtime and
/// the registry use.
class Scheme {
 public:
  virtual ~Scheme() = default;

  [[nodiscard]] virtual SchemeKind kind() const = 0;
  [[nodiscard]] std::string_view name() const { return to_string(kind()); }

  /// False if the scheme cannot legally run this pattern (e.g. local-write
  /// without iteration replication legality).
  [[nodiscard]] virtual bool applicable(const AccessPattern& p) const {
    (void)p;
    return true;
  }

  /// Build the inspector plan for `p` under `nthreads` (may return nullptr
  /// when no inspector is needed).
  [[nodiscard]] virtual std::unique_ptr<SchemePlan> plan(
      const AccessPattern& p, unsigned nthreads) const {
    (void)p;
    (void)nthreads;
    return nullptr;
  }

  /// Execute the reduction, accumulating into `out` (size == pattern.dim).
  /// `plan` must come from `this->plan` on the same pattern (equal
  /// `refs.id()` and dim) and thread count, or be nullptr if the scheme
  /// needs none: a plan run on any other pattern can give wrong outputs.
  virtual SchemeResult execute(const SchemePlan* plan,
                               const ReductionInput& in, ThreadPool& pool,
                               std::span<double> out) const = 0;

  /// Convenience: plan + execute, folding plan time into inspect_s.
  SchemeResult run(const ReductionInput& in, ThreadPool& pool,
                   std::span<double> out) const;

  /// Execute with in-flight probabilistic checking (docs/checking.md):
  /// snapshot + input-stream checksum before the scheme runs, combine
  /// verdict after. Works for every scheme — the checker observes only the
  /// input stream and the merged output, never scheme internals. When
  /// `injector` is armed for `site` it corrupts one merged output element
  /// between execution and verification (the fault-injection proof).
  /// The verdict lands in `*report` (required); a failed check leaves
  /// `out` in its corrupted state — recovery policy belongs to the caller
  /// (AdaptiveReducer rolls back and re-executes serially). The checker's
  /// input pass runs on the calling thread, never on the pool.
  /// `positions` is the caller's sampled-positions cache for this pattern
  /// (null: the per-thread checker's own).
  SchemeResult execute_checked(const SchemePlan* plan,
                               const ReductionInput& in, ThreadPool& pool,
                               std::span<double> out,
                               const CheckerOptions& check, CheckReport* report,
                               FaultInjector* injector = nullptr,
                               FaultSite site = FaultSite::kSchemeCombine,
                               CheckOp op = CheckOp::kSum,
                               SampledPositions* positions = nullptr) const;
};

}  // namespace sapp
