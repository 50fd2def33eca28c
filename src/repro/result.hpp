// Result model shared by every registered experiment.
//
// An experiment produces tables (the paper's figures are all tables once
// the bars are numbers), scalar summary metrics, and free-form notes. The
// runner renders one ExperimentResult to markdown, CSV, or JSON — the three
// `--format` values — so no experiment ever formats its own output.
// docs/reproducing.md documents the JSON schema rendered here.
#pragma once

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "repro/json.hpp"

namespace sapp::repro {

/// Schema version stamped into every JSON document; bump when the document
/// layout changes incompatibly. v2 added the required `environment` block
/// (kernel backend, ISA, topology); v3 dropped its `combine` key.
inline constexpr int kSchemaVersion = 3;

/// One column-labelled table of results. Cells are JSON scalars so the
/// JSON rendering stays typed (numbers are numbers, not strings).
struct ResultTable {
  std::string name;
  std::vector<std::string> columns;
  std::vector<std::vector<JsonValue>> rows;

  ResultTable(std::string table_name, std::vector<std::string> cols)
      : name(std::move(table_name)), columns(std::move(cols)) {}

  /// Append a row; width must match `columns`.
  void add_row(std::vector<JsonValue> row);
};

/// Everything one experiment reports.
struct ExperimentResult {
  std::vector<ResultTable> tables;
  /// Scalar summary metrics in insertion order (hit rates, harmonic
  /// means, ...).
  std::vector<std::pair<std::string, double>> metrics;
  /// Human context: paper reference values, host caveats.
  std::vector<std::string> notes;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void note(std::string text) { notes.push_back(std::move(text)); }
};

/// Identity of a run, filled in by the runner (experiments never see it).
struct RunMeta {
  std::string experiment;  ///< registry name, e.g. "fig3_adaptive_table"
  std::string title;
  std::string paper_ref;   ///< "Fig. 3", "Table 2", "§3", ...
  double scale = 1.0;
  unsigned threads = 0;
  int reps = 1;
  int warmup = 0;
  bool tiny = false;
};

/// Identification of the machine a result was produced on.
struct HostInfo {
  std::string os;        ///< "linux", "darwin", "windows", "unknown"
  std::string arch;      ///< "x86_64", "aarch64", ...
  std::string compiler;  ///< e.g. "GNU 12.2.0"
  unsigned hardware_threads = 0;

  /// "<os>-<arch>" — the docs/results/ subdirectory name.
  [[nodiscard]] std::string tag() const { return os + "-" + arch; }

  /// Probe the build/runtime host.
  [[nodiscard]] static HostInfo current();
};

/// Execution environment of a run: which kernel backend dispatch selected,
/// the CPU's vector capability, and the machine topology. Rendered into
/// every result document so a committed number can always be traced to the
/// code path and machine shape that produced it.
struct EnvironmentInfo {
  std::string backend;   ///< active backend name ("scalar", "avx2", ...)
  std::string isa;       ///< backend ISA description
  std::string dispatch;  ///< dispatch decision incl. detected/compiled sets
  std::string topology;  ///< CpuTopology::host().summary()

  /// Probe the active backend + host topology.
  [[nodiscard]] static EnvironmentInfo current();
};

/// Round to `digits` decimal places — use when storing derived doubles so
/// the shortest-round-trip JSON writer does not print 16-digit noise.
[[nodiscard]] inline double round_to(double v, int digits) {
  const double p = std::pow(10.0, digits);
  return std::round(v * p) / p;
}

/// Renderers. Markdown yields a standalone GitHub-flavoured document; JSON
/// yields the schema documented in docs/reproducing.md.
[[nodiscard]] std::string render_markdown(const RunMeta& meta,
                                          const HostInfo& host,
                                          const ExperimentResult& r);
[[nodiscard]] JsonValue result_to_json(const RunMeta& meta,
                                       const HostInfo& host,
                                       const ExperimentResult& r);

/// Render one cell for the text formats (strings pass through, numbers via
/// format_json_number, bools as true/false).
[[nodiscard]] std::string format_cell(const JsonValue& v);

/// Schema check used by `sapp_repro --check` and the smoke tests: verifies
/// the required keys, their types, and per-table row/column consistency.
/// Returns an error description, or an empty string when valid.
[[nodiscard]] std::string validate_result_json(const JsonValue& doc);

}  // namespace sapp::repro
