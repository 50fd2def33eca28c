// sapp_repro command-line driver (the bench/sapp_repro.cpp main is a thin
// wrapper around run_cli so the CLI is testable and lives in the library).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "repro/registry.hpp"

namespace sapp::repro {

/// Parsed command line. See `usage()` / docs/reproducing.md.
struct CliOptions {
  bool list = false;
  bool list_backends = false;  ///< print kernel backends/topology and exit
  bool all = false;
  bool help = false;
  bool check = false;     ///< re-parse + schema-validate every JSON written
  bool no_write = false;  ///< print to stdout only
  bool quiet = false;     ///< suppress the stdout table rendering
  std::vector<std::string> formats = {"table"};  // table|json
  std::string out_dir;    ///< empty = docs/results/<host-tag>[-tiny]
  std::vector<std::string> experiments;
  RunOptions run;
};

/// Parse argv. Returns an error message (empty on success); `-h/--help`
/// sets opts.help instead of erroring.
[[nodiscard]] std::string parse_cli(int argc, const char* const* argv,
                                    CliOptions& opts);

[[nodiscard]] std::string usage();

/// Execute the parsed command against a registry. Returns the process exit
/// code: 0 success, 1 an experiment or --check failed, 2 usage error.
int run_cli(const CliOptions& opts, const ExperimentRegistry& registry,
            std::ostream& out, std::ostream& err);

/// Convenience used by main(): parse + run against builtin_experiments().
int run_cli(int argc, const char* const* argv);

}  // namespace sapp::repro
