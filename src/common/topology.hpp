// Host CPU topology, as result metadata.
//
// `CpuTopology` reads the sysfs view of the machine (packages, cores,
// NUMA nodes — a hwloc-style summary without the dependency). Results
// record its one-line summary next to the thread count and kernel
// backend, so a committed number says what shape of machine produced it.
// Nothing in the runtime branches on it: the privatizing schemes merge in
// ascending thread order on every host (docs/backends.md, "The combine
// order").
#pragma once

#include <string>
#include <vector>

namespace sapp {

/// One NUMA node's share of the machine.
struct TopologyNode {
  unsigned node_id = 0;
  std::vector<unsigned> cpus;  ///< logical CPU ids on this node
};

/// Sysfs-derived machine shape. Falls back to a single flat node holding
/// hardware_concurrency() CPUs when sysfs is unreadable (non-Linux,
/// containers with masked /sys).
struct CpuTopology {
  std::vector<TopologyNode> nodes;
  unsigned total_cpus = 0;
  unsigned physical_cores = 0;   ///< distinct (package, core) pairs; 0 if unknown
  unsigned packages = 0;         ///< distinct physical packages; 0 if unknown
  bool from_sysfs = false;       ///< false = flat fallback

  /// Cached host topology (read once).
  [[nodiscard]] static const CpuTopology& host();
  /// Uncached probe (testing).
  [[nodiscard]] static CpuTopology detect();

  /// e.g. "1 node / 1 package / 4 cores / 8 cpus (sysfs)".
  [[nodiscard]] std::string summary() const;
};

/// Parse a sysfs cpulist ("0-3,8-11", "0", "") into CPU ids. Malformed
/// chunks are skipped; exposed for tests.
[[nodiscard]] std::vector<unsigned> parse_cpulist(const std::string& list);

}  // namespace sapp
