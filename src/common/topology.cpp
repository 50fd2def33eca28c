#include "common/topology.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

namespace sapp {

namespace fs = std::filesystem;

namespace {

std::string read_first_line(const fs::path& p) {
  std::ifstream f(p);
  std::string line;
  if (f) std::getline(f, line);
  return line;
}

CpuTopology flat_fallback() {
  CpuTopology t;
  t.total_cpus = std::max(1u, std::thread::hardware_concurrency());
  TopologyNode n;
  n.node_id = 0;
  for (unsigned c = 0; c < t.total_cpus; ++c) n.cpus.push_back(c);
  t.nodes.push_back(std::move(n));
  return t;
}

}  // namespace

std::vector<unsigned> parse_cpulist(const std::string& list) {
  std::vector<unsigned> cpus;
  std::stringstream ss(list);
  std::string chunk;
  while (std::getline(ss, chunk, ',')) {
    if (chunk.empty()) continue;
    try {
      if (const auto dash = chunk.find('-'); dash != std::string::npos) {
        const unsigned lo = static_cast<unsigned>(
            std::stoul(chunk.substr(0, dash)));
        const unsigned hi = static_cast<unsigned>(
            std::stoul(chunk.substr(dash + 1)));
        if (hi < lo || hi - lo > 4096) continue;  // malformed / absurd
        for (unsigned c = lo; c <= hi; ++c) cpus.push_back(c);
      } else {
        cpus.push_back(static_cast<unsigned>(std::stoul(chunk)));
      }
    } catch (...) {
      // skip the malformed chunk, keep the rest
    }
  }
  // sysfs lists may overlap across chunks ("0-2,2,1" is legal); the CPU
  // counts need each CPU exactly once, in order.
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

CpuTopology CpuTopology::detect() {
#if defined(__linux__)
  CpuTopology t;
  std::error_code ec;
  const fs::path node_root = "/sys/devices/system/node";
  if (fs::is_directory(node_root, ec)) {
    for (const auto& entry : fs::directory_iterator(node_root, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("node", 0) != 0 ||
          name.find_first_not_of("0123456789", 4) != std::string::npos ||
          name.size() == 4)
        continue;
      TopologyNode n;
      n.node_id = static_cast<unsigned>(std::stoul(name.substr(4)));
      n.cpus = parse_cpulist(read_first_line(entry.path() / "cpulist"));
      if (!n.cpus.empty()) t.nodes.push_back(std::move(n));
    }
  }
  if (t.nodes.empty()) return flat_fallback();
  std::sort(t.nodes.begin(), t.nodes.end(),
            [](const TopologyNode& a, const TopologyNode& b) {
              return a.node_id < b.node_id;
            });

  // Core/package counts from the per-cpu topology files (best effort; the
  // counts are metadata).
  std::set<std::pair<long, long>> cores;
  std::set<long> packages;
  for (const auto& node : t.nodes) {
    t.total_cpus += static_cast<unsigned>(node.cpus.size());
    for (const unsigned c : node.cpus) {
      const fs::path cpu = "/sys/devices/system/cpu/cpu" + std::to_string(c);
      const std::string core = read_first_line(cpu / "topology" / "core_id");
      const std::string pkg =
          read_first_line(cpu / "topology" / "physical_package_id");
      if (core.empty() || pkg.empty()) continue;
      try {
        cores.emplace(std::stol(pkg), std::stol(core));
        packages.insert(std::stol(pkg));
      } catch (...) {
      }
    }
  }
  t.physical_cores = static_cast<unsigned>(cores.size());
  t.packages = static_cast<unsigned>(packages.size());
  t.from_sysfs = true;
  return t;
#else
  return flat_fallback();
#endif
}

const CpuTopology& CpuTopology::host() {
  static const CpuTopology t = detect();
  return t;
}

std::string CpuTopology::summary() const {
  std::string s = std::to_string(nodes.size()) +
                  (nodes.size() == 1 ? " node" : " nodes");
  if (packages > 0)
    s += " / " + std::to_string(packages) +
         (packages == 1 ? " package" : " packages");
  if (physical_cores > 0)
    s += " / " + std::to_string(physical_cores) +
         (physical_cores == 1 ? " core" : " cores");
  s += " / " + std::to_string(total_cpus) +
       (total_cpus == 1 ? " cpu" : " cpus");
  s += from_sysfs ? " (sysfs)" : " (flat fallback)";
  return s;
}

}  // namespace sapp
