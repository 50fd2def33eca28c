// Experiment registry — the one place that knows every paper experiment.
//
// Each bench harness that used to carry its own main() is now a registered
// Experiment: a name (the sapp_repro subcommand), its paper reference, a
// default workload scale, and a run function from RunContext to
// ExperimentResult. The registry enforces unique names and gives
// unknown-name lookups a helpful error (tests/repro_test.cpp covers both).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "repro/context.hpp"
#include "repro/result.hpp"

namespace sapp::repro {

/// One registered paper experiment.
struct Experiment {
  std::string name;         ///< CLI name, e.g. "fig3_adaptive_table"
  std::string title;        ///< one-line human title
  std::string paper_ref;    ///< "Fig. 3", "Table 2", "§3", "ablation"
  std::string description;  ///< what the experiment shows
  /// Workload scale when neither --scale nor SAPP_SCALE/SAPP_FULL is
  /// given (1.0 = the paper's sizes; see docs/reproducing.md).
  double default_scale = 1.0;
  std::function<ExperimentResult(RunContext&)> run;
};

/// Ordered collection of experiments. Registration order is listing and
/// `--all` execution order.
class ExperimentRegistry {
 public:
  /// Register; throws std::invalid_argument on an empty name, a missing
  /// run function, or a duplicate name.
  void add(Experiment e);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Lookup; throws std::out_of_range naming the unknown experiment and
  /// listing the registered ones.
  [[nodiscard]] const Experiment& find(std::string_view name) const;

  /// All experiments in registration order.
  [[nodiscard]] const std::vector<Experiment>& list() const {
    return experiments_;
  }
  [[nodiscard]] std::size_t size() const { return experiments_.size(); }

 private:
  std::vector<Experiment> experiments_;
};

/// The process-wide registry with every built-in experiment registered
/// (constructed on first use; cheap — workloads are generated at run time).
[[nodiscard]] ExperimentRegistry& builtin_experiments();

// Registration entry points, one per experiment family (defined in the
// exp_*.cpp files). Exposed so tests can build private registries.
void register_software_experiments(ExperimentRegistry& r);
void register_simulation_experiments(ExperimentRegistry& r);
void register_speculation_experiments(ExperimentRegistry& r);
void register_overhead_experiments(ExperimentRegistry& r);
void register_runtime_experiments(ExperimentRegistry& r);
void register_phase_drift_experiments(ExperimentRegistry& r);
void register_checking_experiments(ExperimentRegistry& r);
void register_kernel_experiments(ExperimentRegistry& r);
void register_simplify_experiments(ExperimentRegistry& r);
void register_distributed_experiments(ExperimentRegistry& r);

}  // namespace sapp::repro
