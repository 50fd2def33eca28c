#include "repro/result.hpp"

#include <sstream>
#include <thread>

#include "common/assert.hpp"
#include "common/topology.hpp"
#include "reductions/kernels.hpp"

namespace sapp::repro {

void ResultTable::add_row(std::vector<JsonValue> row) {
  SAPP_REQUIRE(row.size() == columns.size(),
               "result row width must match the table's columns");
  rows.push_back(std::move(row));
}

HostInfo HostInfo::current() {
  HostInfo h;
#if defined(__linux__)
  h.os = "linux";
#elif defined(__APPLE__)
  h.os = "darwin";
#elif defined(_WIN32)
  h.os = "windows";
#else
  h.os = "unknown";
#endif
#if defined(__x86_64__) || defined(_M_X64)
  h.arch = "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  h.arch = "aarch64";
#elif defined(__i386__)
  h.arch = "x86";
#else
  h.arch = "unknown";
#endif
#if defined(__clang__)
  h.compiler = "clang " + std::to_string(__clang_major__) + "." +
               std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  h.compiler = "gcc " + std::to_string(__GNUC__) + "." +
               std::to_string(__GNUC_MINOR__);
#else
  h.compiler = "unknown";
#endif
  h.hardware_threads = std::thread::hardware_concurrency();
  return h;
}

EnvironmentInfo EnvironmentInfo::current() {
  EnvironmentInfo e;
  const kernels::KernelOps& k = kernels::active();
  e.backend = k.name;
  e.isa = k.isa;
  e.dispatch = kernels::dispatch_summary();
  e.topology = CpuTopology::host().summary();
  return e;
}

std::string format_cell(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: return "";
    case JsonValue::Kind::kBool: return v.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber: return format_json_number(v.as_number());
    case JsonValue::Kind::kString: return v.as_string();
    default: return v.dump();  // containers never appear in cells
  }
}

namespace {

std::string md_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '|') out += "\\|";
    else if (c == '\n') out += ' ';
    else out += c;
  }
  return out;
}

void render_config_lines(const RunMeta& meta, const HostInfo& host,
                         std::ostringstream& os) {
  const EnvironmentInfo env = EnvironmentInfo::current();
  os << "- **Paper reference:** " << meta.paper_ref << "\n"
     << "- **Host:** " << host.tag() << ", " << host.hardware_threads
     << " hardware threads, " << host.compiler << "\n"
     << "- **Environment:** backend " << env.backend << " (" << env.isa
     << "), topology " << env.topology << "\n"
     << "- **Config:** scale " << format_json_number(meta.scale)
     << ", threads " << meta.threads << ", reps " << meta.reps
     << ", warmup " << meta.warmup << (meta.tiny ? ", tiny" : "") << "\n";
}

}  // namespace

std::string render_markdown(const RunMeta& meta, const HostInfo& host,
                            const ExperimentResult& r) {
  std::ostringstream os;
  os << "# " << meta.experiment << " — " << meta.title << "\n\n";
  render_config_lines(meta, host, os);
  for (const auto& t : r.tables) {
    os << "\n## " << t.name << "\n\n|";
    for (const auto& c : t.columns) os << " " << md_escape(c) << " |";
    os << "\n|";
    for (std::size_t i = 0; i < t.columns.size(); ++i) os << " --- |";
    os << "\n";
    for (const auto& row : t.rows) {
      os << "|";
      for (const auto& cell : row) os << " " << md_escape(format_cell(cell)) << " |";
      os << "\n";
    }
  }
  if (!r.metrics.empty()) {
    os << "\n## Summary metrics\n\n| metric | value |\n| --- | --- |\n";
    for (const auto& [k, v] : r.metrics)
      os << "| " << md_escape(k) << " | " << format_json_number(v) << " |\n";
  }
  if (!r.notes.empty()) {
    os << "\n## Notes\n\n";
    for (const auto& n : r.notes) os << "- " << n << "\n";
  }
  return os.str();
}

JsonValue result_to_json(const RunMeta& meta, const HostInfo& host,
                         const ExperimentResult& r) {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", kSchemaVersion);
  doc.set("generator", "sapp_repro");
  doc.set("experiment", meta.experiment);
  doc.set("title", meta.title);
  doc.set("paper_ref", meta.paper_ref);

  JsonValue h = JsonValue::object();
  h.set("os", host.os);
  h.set("arch", host.arch);
  h.set("tag", host.tag());
  h.set("compiler", host.compiler);
  h.set("hardware_threads", host.hardware_threads);
  doc.set("host", std::move(h));

  const EnvironmentInfo envi = EnvironmentInfo::current();
  JsonValue env = JsonValue::object();
  env.set("backend", envi.backend);
  env.set("isa", envi.isa);
  env.set("dispatch", envi.dispatch);
  env.set("topology", envi.topology);
  doc.set("environment", std::move(env));

  JsonValue cfg = JsonValue::object();
  cfg.set("scale", meta.scale);
  cfg.set("threads", meta.threads);
  cfg.set("reps", meta.reps);
  cfg.set("warmup", meta.warmup);
  cfg.set("tiny", meta.tiny);
  doc.set("config", std::move(cfg));

  JsonValue tables = JsonValue::array();
  for (const auto& t : r.tables) {
    JsonValue jt = JsonValue::object();
    jt.set("name", t.name);
    JsonValue cols = JsonValue::array();
    for (const auto& c : t.columns) cols.push_back(c);
    jt.set("columns", std::move(cols));
    JsonValue rows = JsonValue::array();
    for (const auto& row : t.rows) {
      JsonValue jr = JsonValue::array();
      for (const auto& cell : row) jr.push_back(cell);
      rows.push_back(std::move(jr));
    }
    jt.set("rows", std::move(rows));
    tables.push_back(std::move(jt));
  }
  doc.set("tables", std::move(tables));

  JsonValue metrics = JsonValue::object();
  for (const auto& [k, v] : r.metrics) metrics.set(k, v);
  doc.set("metrics", std::move(metrics));

  JsonValue notes = JsonValue::array();
  for (const auto& n : r.notes) notes.push_back(n);
  doc.set("notes", std::move(notes));
  return doc;
}

std::string validate_result_json(const JsonValue& doc) {
  if (!doc.is_object()) return "document is not a JSON object";

  auto require = [&](const char* key, JsonValue::Kind kind,
                     const char* what) -> std::string {
    const JsonValue* v = doc.find(key);
    if (v == nullptr) return std::string("missing key '") + key + "'";
    if (v->kind() != kind)
      return std::string("key '") + key + "' is not " + what;
    return "";
  };

  for (const auto& [key, kind, what] :
       {std::tuple{"schema_version", JsonValue::Kind::kNumber, "a number"},
        std::tuple{"generator", JsonValue::Kind::kString, "a string"},
        std::tuple{"experiment", JsonValue::Kind::kString, "a string"},
        std::tuple{"title", JsonValue::Kind::kString, "a string"},
        std::tuple{"paper_ref", JsonValue::Kind::kString, "a string"},
        std::tuple{"host", JsonValue::Kind::kObject, "an object"},
        std::tuple{"environment", JsonValue::Kind::kObject, "an object"},
        std::tuple{"config", JsonValue::Kind::kObject, "an object"},
        std::tuple{"tables", JsonValue::Kind::kArray, "an array"},
        std::tuple{"metrics", JsonValue::Kind::kObject, "an object"},
        std::tuple{"notes", JsonValue::Kind::kArray, "an array"}}) {
    if (auto err = require(key, kind, what); !err.empty()) return err;
  }

  if (doc.find("schema_version")->as_number() != kSchemaVersion)
    return "unsupported schema_version";

  const JsonValue& host = *doc.find("host");
  for (const char* key : {"os", "arch", "tag", "compiler"}) {
    const JsonValue* v = host.find(key);
    if (v == nullptr || !v->is_string())
      return std::string("host.") + key + " missing or not a string";
  }

  const JsonValue& env = *doc.find("environment");
  for (const char* key : {"backend", "isa", "dispatch", "topology"}) {
    const JsonValue* v = env.find(key);
    if (v == nullptr || !v->is_string())
      return std::string("environment.") + key + " missing or not a string";
  }

  const JsonValue& cfg = *doc.find("config");
  for (const char* key : {"scale", "threads", "reps", "warmup"}) {
    const JsonValue* v = cfg.find(key);
    if (v == nullptr || !v->is_number())
      return std::string("config.") + key + " missing or not a number";
  }
  if (const JsonValue* t = cfg.find("tiny"); t == nullptr || !t->is_bool())
    return "config.tiny missing or not a bool";

  const auto& tables = doc.find("tables")->items();
  if (tables.empty()) return "experiment produced no tables";
  for (const auto& t : tables) {
    if (!t.is_object()) return "table entry is not an object";
    const JsonValue* name = t.find("name");
    if (name == nullptr || !name->is_string())
      return "table.name missing or not a string";
    const JsonValue* cols = t.find("columns");
    if (cols == nullptr || !cols->is_array() || cols->items().empty())
      return "table '" + name->as_string() + "': bad columns";
    for (const auto& c : cols->items())
      if (!c.is_string())
        return "table '" + name->as_string() + "': non-string column";
    const JsonValue* rows = t.find("rows");
    if (rows == nullptr || !rows->is_array())
      return "table '" + name->as_string() + "': bad rows";
    for (const auto& row : rows->items()) {
      if (!row.is_array() || row.items().size() != cols->items().size())
        return "table '" + name->as_string() +
               "': row width differs from column count";
      for (const auto& cell : row.items())
        if (cell.is_array() || cell.is_object())
          return "table '" + name->as_string() + "': non-scalar cell";
    }
  }

  for (const auto& [k, v] : doc.find("metrics")->members())
    if (!v.is_number()) return "metric '" + k + "' is not a number";
  for (const auto& n : doc.find("notes")->items())
    if (!n.is_string()) return "notes must be strings";
  return "";
}

}  // namespace sapp::repro
