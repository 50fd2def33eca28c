#include "repro/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/topology.hpp"
#include "reductions/kernels.hpp"

namespace sapp::repro {

namespace fs = std::filesystem;

namespace {

bool parse_double(const std::string& s, double& out) {
  try {
    std::size_t end = 0;
    out = std::stod(s, &end);
    return end == s.size();
  } catch (...) {
    return false;
  }
}

bool parse_int(const std::string& s, int& out) {
  try {
    std::size_t end = 0;
    out = std::stoi(s, &end);
    return end == s.size();
  } catch (...) {
    return false;
  }
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Render the fixed-width stdout view of one result (the markdown/CSV/JSON
/// files are the durable artifacts; this is for humans watching the run).
void print_result(const RunMeta& meta, const ExperimentResult& r,
                  std::ostream& os) {
  os << "=== " << meta.experiment << ": " << meta.title << " ["
     << meta.paper_ref << "] ===\n"
     << "scale " << format_json_number(meta.scale) << ", threads "
     << meta.threads << ", reps " << meta.reps << ", warmup " << meta.warmup
     << (meta.tiny ? ", tiny" : "") << "\n";
  for (const auto& rt : r.tables) {
    os << "\n-- " << rt.name << " --\n";
    Table t(rt.columns);
    for (const auto& row : rt.rows) {
      std::vector<std::string> cells;
      cells.reserve(row.size());
      for (const auto& cell : row) cells.push_back(format_cell(cell));
      t.add_row(std::move(cells));
    }
    os << t.str();
  }
  if (!r.metrics.empty()) {
    os << "\n-- summary metrics --\n";
    for (const auto& [k, v] : r.metrics)
      os << "  " << k << " = " << format_json_number(v) << "\n";
  }
  for (const auto& n : r.notes) os << "note: " << n << "\n";
  os << "\n";
}

struct WrittenFile {
  std::string experiment;
  fs::path path;
};

}  // namespace

std::string usage() {
  return R"(usage: sapp_repro [options] [<experiment> ...]

Reproduce the paper's experiments (figures, tables, ablations).

  --list             list registered experiments and exit
  --list-backends    list compiled/usable kernel backends, the dispatch
                     decision and the host topology, then exit
  --all              run every registered experiment
  --tiny             smoke sizes: ~1/10 scale (capped at 0.05), 1 rep
  --format LIST      comma-separated subset of {table,json}
                     (default: table; 'table' writes GitHub markdown)
  --out DIR          output directory
                     (default: docs/results/<os>-<arch>[-tiny])
  --no-write         do not write files, print to stdout only
  --check            schema-validate the JSON rendering (exit 1 on failure)
  --quiet            suppress the stdout table rendering
  --scale X          workload scale in (0,1]; overrides SAPP_SCALE/SAPP_FULL
  --threads N        software-scheme threads; overrides SAPP_THREADS
  --reps N           timing repetitions (median reported; default 3)
  --warmup N         untimed warmup runs (default 1)
  -h, --help         show this help

Examples:
  sapp_repro --list
  sapp_repro fig3_adaptive_table --format table,json
  sapp_repro --all --tiny --format json --check
)";
}

std::string parse_cli(int argc, const char* const* argv, CliOptions& opts) {
  opts.run = RunOptions::from_env();
  bool format_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string(flag) + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--list") opts.list = true;
      else if (arg == "--list-backends") opts.list_backends = true;
      else if (arg == "--all") opts.all = true;
      else if (arg == "--tiny") opts.run.tiny = true;
      else if (arg == "--check") opts.check = true;
      else if (arg == "--no-write") opts.no_write = true;
      else if (arg == "--quiet") opts.quiet = true;
      else if (arg == "-h" || arg == "--help") opts.help = true;
      else if (arg == "--format") {
        opts.formats = split_commas(value("--format"));
        format_given = true;
        if (opts.formats.empty()) return "--format needs at least one value";
        for (const auto& f : opts.formats)
          if (f != "table" && f != "json")
            return "unknown format '" + f + "' (expected table or json)";
      } else if (arg == "--out") {
        opts.out_dir = value("--out");
      } else if (arg == "--scale") {
        double v = 0.0;
        if (!parse_double(value("--scale"), v) || v <= 0.0 || v > 1.0)
          return "--scale needs a number in (0, 1]";
        opts.run.scale = v;
      } else if (arg == "--threads") {
        int v = 0;
        if (!parse_int(value("--threads"), v) || v < 1 || v > 256)
          return "--threads needs an integer in [1, 256]";
        opts.run.threads = static_cast<unsigned>(v);
      } else if (arg == "--reps") {
        int v = 0;
        if (!parse_int(value("--reps"), v) || v < 1)
          return "--reps needs a positive integer";
        opts.run.reps = v;
      } else if (arg == "--warmup") {
        int v = 0;
        if (!parse_int(value("--warmup"), v) || v < 0)
          return "--warmup needs a non-negative integer";
        opts.run.warmup = v;
      } else if (!arg.empty() && arg[0] == '-') {
        return "unknown option '" + arg + "'";
      } else {
        opts.experiments.push_back(arg);
      }
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  }
  // --check validates the JSON rendering, so make sure it exists.
  if (opts.check && format_given &&
      std::find(opts.formats.begin(), opts.formats.end(), "json") ==
          opts.formats.end())
    opts.formats.push_back("json");
  if (opts.check && !format_given) opts.formats = {"json"};
  return "";
}

int run_cli(const CliOptions& opts, const ExperimentRegistry& registry,
            std::ostream& out, std::ostream& err) {
  if (opts.help) {
    out << usage();
    return 0;
  }
  if (opts.list_backends) {
    Table t({"Backend", "ISA", "Compiled", "CPU", "Active"});
    for (const kernels::Backend b :
         {kernels::Backend::kScalar, kernels::Backend::kAvx2,
          kernels::Backend::kAvx512}) {
      t.add_row({kernels::to_string(b),
                 b == kernels::Backend::kScalar ? "portable"
                 : b == kernels::Backend::kAvx2 ? "AVX2 (4 lanes)"
                                                : "AVX-512F (8 lanes)",
                 kernels::compiled(b) ? "yes" : "no",
                 kernels::cpu_supports(b) ? "yes" : "no",
                 b == kernels::active_backend() ? "*" : ""});
    }
    out << t.str() << "\ndispatch: " << kernels::dispatch_summary()
        << "\ntopology: " << CpuTopology::host().summary() << "\n";
    return 0;
  }
  if (opts.list) {
    Table t({"Experiment", "Paper", "Default scale", "Description"});
    for (const auto& e : registry.list())
      t.add_row({e.name, e.paper_ref, Table::num(e.default_scale, 2),
                 e.description});
    out << t.str();
    return 0;
  }

  std::vector<const Experiment*> selected;
  if (opts.all) {
    for (const auto& e : registry.list()) selected.push_back(&e);
  } else {
    for (const auto& name : opts.experiments) {
      try {
        selected.push_back(&registry.find(name));
      } catch (const std::out_of_range& e) {
        err << "sapp_repro: " << e.what() << "\n";
        return 2;
      }
    }
  }
  if (selected.empty()) {
    err << "sapp_repro: nothing to run (name experiments, or use --all / "
           "--list)\n"
        << usage();
    return 2;
  }

  const HostInfo host = HostInfo::current();
  fs::path out_dir;
  if (!opts.no_write) {
    out_dir = opts.out_dir.empty()
                  ? fs::path("docs") / "results" /
                        (host.tag() + (opts.run.tiny ? "-tiny" : ""))
                  : fs::path(opts.out_dir);
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
      err << "sapp_repro: cannot create output directory " << out_dir
          << ": " << ec.message() << "\n";
      return 1;
    }
  }

  std::vector<WrittenFile> written;
  std::vector<std::pair<const Experiment*, double>> timings;
  int failures = 0;
  // One context for the whole run: the ThreadPool and the calibrated
  // MachineCoeffs are shared across experiments.
  RunContext ctx(opts.run);
  for (const Experiment* e : selected) {
    RunMeta meta;
    meta.experiment = e->name;
    meta.title = e->title;
    meta.paper_ref = e->paper_ref;
    meta.scale = ctx.scale(e->default_scale);
    meta.threads = ctx.threads();
    meta.reps = ctx.reps();
    meta.warmup = ctx.warmup();
    meta.tiny = ctx.tiny();

    ExperimentResult result;
    Timer timer;
    try {
      result = e->run(ctx);
    } catch (const std::exception& ex) {
      err << "sapp_repro: experiment '" << e->name << "' failed: "
          << ex.what() << "\n";
      ++failures;
      continue;
    }
    timings.emplace_back(e, timer.seconds());

    if (!opts.quiet) print_result(meta, result, out);

    const JsonValue doc = result_to_json(meta, host, result);
    if (opts.check) {
      // Round-trip through the parser and validate what a reader of the
      // written file would see (serialization maps non-finite numbers to
      // null, which the in-memory document would hide).
      std::string parse_err;
      const auto reparsed = JsonValue::parse(doc.dump(), &parse_err);
      if (!reparsed) {
        err << "sapp_repro: JSON for '" << e->name
            << "' does not re-parse: " << parse_err << "\n";
        ++failures;
        continue;
      }
      if (const std::string schema_err = validate_result_json(*reparsed);
          !schema_err.empty()) {
        err << "sapp_repro: schema check failed for '" << e->name
            << "': " << schema_err << "\n";
        ++failures;
        continue;
      }
    }

    if (!opts.no_write) {
      for (const auto& format : opts.formats) {
        const char* ext = format == "table" ? "md" : "json";
        const fs::path path = out_dir / (e->name + "." + ext);
        std::ofstream file(path);
        if (!file) {
          err << "sapp_repro: cannot write " << path << "\n";
          ++failures;
          continue;
        }
        if (format == "table") file << render_markdown(meta, host, result);
        else file << doc.dump();
        written.push_back({e->name, path});
      }
    }
  }

  // An index makes the committed docs/results/<host>/ tree navigable.
  if (!opts.no_write && opts.all && failures == 0) {
    std::ofstream index(out_dir / "index.md");
    index << "# sapp_repro results — " << host.tag()
          << (opts.run.tiny ? " (tiny smoke sizes)" : "") << "\n\n"
          << "Produced by `sapp_repro --all`"
          << (opts.run.tiny ? " `--tiny`" : "") << " on a " << host.tag()
          << " host with " << host.hardware_threads
          << " hardware threads (" << host.compiler
          << "). See [docs/reproducing.md](../../reproducing.md) for the "
             "figure-by-figure mapping and the JSON schema.\n\n"
          << "| Experiment | Paper | Wall time (s) | Files |\n"
          << "| --- | --- | --- | --- |\n";
    for (const auto& [e, secs] : timings) {
      index << "| " << e->name << " | " << e->paper_ref << " | "
            << format_json_number(round_to(secs, 1)) << " |";
      bool first = true;
      for (const auto& w : written) {
        if (w.experiment != e->name) continue;
        index << (first ? " " : ", ") << "[" << w.path.extension().string().substr(1)
              << "](" << w.path.filename().string() << ")";
        first = false;
      }
      index << " |\n";
    }
  }

  if (!opts.no_write && !written.empty() && !opts.quiet)
    out << "wrote " << written.size() << " file(s) under " << out_dir.string()
        << "\n";
  return failures == 0 ? 0 : 1;
}

int run_cli(int argc, const char* const* argv) {
  CliOptions opts;
  if (const std::string parse_error = parse_cli(argc, argv, opts);
      !parse_error.empty()) {
    std::cerr << "sapp_repro: " << parse_error << "\n" << usage();
    return 2;
  }
  return run_cli(opts, builtin_experiments(), std::cout, std::cerr);
}

}  // namespace sapp::repro
