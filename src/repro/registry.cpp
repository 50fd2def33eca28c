#include "repro/registry.hpp"

#include <stdexcept>

namespace sapp::repro {

void ExperimentRegistry::add(Experiment e) {
  if (e.name.empty())
    throw std::invalid_argument("experiment registered with an empty name");
  if (!e.run)
    throw std::invalid_argument("experiment '" + e.name +
                                "' registered without a run function");
  if (contains(e.name))
    throw std::invalid_argument("duplicate experiment name '" + e.name + "'");
  experiments_.push_back(std::move(e));
}

bool ExperimentRegistry::contains(std::string_view name) const {
  for (const auto& e : experiments_)
    if (e.name == name) return true;
  return false;
}

const Experiment& ExperimentRegistry::find(std::string_view name) const {
  for (const auto& e : experiments_)
    if (e.name == name) return e;
  std::string msg = "unknown experiment '" + std::string(name) +
                    "'; registered experiments:";
  for (const auto& e : experiments_) msg += " " + e.name;
  throw std::out_of_range(msg);
}

ExperimentRegistry& builtin_experiments() {
  static ExperimentRegistry* registry = [] {
    auto* r = new ExperimentRegistry();
    register_software_experiments(*r);
    register_simulation_experiments(*r);
    register_speculation_experiments(*r);
    register_overhead_experiments(*r);
    register_runtime_experiments(*r);
    register_phase_drift_experiments(*r);
    register_checking_experiments(*r);
    register_kernel_experiments(*r);
    register_simplify_experiments(*r);
    register_distributed_experiments(*r);
    return r;
  }();
  return *registry;
}

}  // namespace sapp::repro
