// Tests for the reproduction runner: JSON round-trips, the experiment
// registry's duplicate/unknown-name handling, CLI parsing, and a golden
// check that a real experiment's JSON document keeps its schema, scheme
// names and workload names stable (docs/results/ consumers rely on them).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <stdexcept>

#include "repro/registry.hpp"
#include "repro/runner.hpp"

namespace sapp::repro {
namespace {

// ---------------------------------------------------------------- JSON

TEST(ReproJson, RoundTripsNestedDocument) {
  JsonValue doc = JsonValue::object();
  doc.set("s", "text");
  doc.set("n", 42);
  doc.set("f", 2.5);
  doc.set("b", true);
  doc.set("z", nullptr);
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back("two");
  JsonValue inner = JsonValue::object();
  inner.set("k", 0.125);
  arr.push_back(std::move(inner));
  doc.set("a", std::move(arr));

  const std::string text = doc.dump();
  std::string err;
  const auto parsed = JsonValue::parse(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, doc);
}

TEST(ReproJson, EscapesAndParsesSpecialCharacters) {
  JsonValue doc = JsonValue::object();
  const std::string nasty = "a\"b\\c\nd\te\x01";
  doc.set("k", nasty);
  const auto parsed = JsonValue::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("k")->as_string(), nasty);
}

TEST(ReproJson, ParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "{\"a\":1,}", "[1] extra",
        "\"unterminated", "{1: 2}", "nan", "inf", "[inf]", "007", "1.",
        "1e", "-", "+1"}) {
    std::string err;
    EXPECT_FALSE(JsonValue::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(ReproJson, ParserAcceptsJsonNumberGrammar) {
  for (const auto& [text, expected] :
       {std::pair{"0", 0.0}, {"-0.5", -0.5}, {"1e3", 1000.0},
        {"2.5E-1", 0.25}, {"10", 10.0}}) {
    const auto v = JsonValue::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_DOUBLE_EQ(v->as_number(), expected) << text;
  }
}

TEST(ReproJson, NumbersRenderWithoutFloatNoise) {
  EXPECT_EQ(format_json_number(3.0), "3");
  EXPECT_EQ(format_json_number(0.25), "0.25");
  EXPECT_EQ(format_json_number(-17.0), "-17");
  EXPECT_EQ(format_json_number(round_to(1.0 / 3.0, 4)), "0.3333");
}

TEST(ReproJson, ObjectSetReplacesInPlace) {
  JsonValue o = JsonValue::object();
  o.set("a", 1);
  o.set("b", 2);
  o.set("a", 3);
  ASSERT_EQ(o.members().size(), 2u);
  EXPECT_EQ(o.members()[0].first, "a");
  EXPECT_EQ(o.find("a")->as_number(), 3.0);
}

// ------------------------------------------------------------ registry

Experiment dummy(const std::string& name) {
  return {.name = name,
          .title = "t",
          .paper_ref = "p",
          .description = "d",
          .default_scale = 1.0,
          .run = [](RunContext&) { return ExperimentResult{}; }};
}

TEST(ExperimentRegistry, RejectsDuplicateNames) {
  ExperimentRegistry r;
  r.add(dummy("one"));
  EXPECT_THROW(r.add(dummy("one")), std::invalid_argument);
  EXPECT_EQ(r.size(), 1u);
}

TEST(ExperimentRegistry, RejectsEmptyNameAndMissingRun) {
  ExperimentRegistry r;
  EXPECT_THROW(r.add(dummy("")), std::invalid_argument);
  Experiment no_run = dummy("x");
  no_run.run = nullptr;
  EXPECT_THROW(r.add(no_run), std::invalid_argument);
}

TEST(ExperimentRegistry, UnknownLookupNamesTheExperiment) {
  ExperimentRegistry r;
  r.add(dummy("fig3"));
  EXPECT_TRUE(r.contains("fig3"));
  EXPECT_FALSE(r.contains("nope"));
  try {
    (void)r.find("nope");
    FAIL() << "find() should have thrown";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope"), std::string::npos);
    EXPECT_NE(msg.find("fig3"), std::string::npos);
  }
}

// Golden list: renaming or dropping an experiment breaks docs/results/
// consumers and docs/reproducing.md — change both together, deliberately.
TEST(ExperimentRegistry, BuiltinExperimentsAreStable) {
  const std::vector<std::string> expected = {
      "fig3_adaptive_table",     "ablation_decision",
      "fig6_pclr_breakdown",     "fig7_scalability",
      "table2_appchar",          "ablation_fpunit",
      "ablation_linesize",       "ablation_placement",
      "ablation_flex_occupancy", "spec_rlrpd",
      "overhead",                "adaptive_sites",
      "phase_drift",             "checking",
      "kernels",                 "simplify",
      "distributed",
  };
  const auto& reg = builtin_experiments();
  ASSERT_GE(reg.size(), 9u);
  std::vector<std::string> names;
  for (const auto& e : reg.list()) {
    names.push_back(e.name);
    EXPECT_FALSE(e.title.empty()) << e.name;
    EXPECT_FALSE(e.paper_ref.empty()) << e.name;
    EXPECT_FALSE(e.description.empty()) << e.name;
    EXPECT_GT(e.default_scale, 0.0) << e.name;
  }
  EXPECT_EQ(names, expected);
}

// ----------------------------------------------------------------- CLI

TEST(ReproCli, ParsesFlagsAndExperiments) {
  const char* argv[] = {"sapp_repro", "fig7_scalability", "--tiny",
                        "--format", "table,json", "--threads", "3",
                        "--scale", "0.5", "--out", "outdir"};
  CliOptions opts;
  ASSERT_EQ(parse_cli(static_cast<int>(std::size(argv)), argv, opts), "");
  EXPECT_TRUE(opts.run.tiny);
  EXPECT_EQ(opts.run.threads, 3u);
  EXPECT_DOUBLE_EQ(opts.run.scale, 0.5);
  EXPECT_EQ(opts.out_dir, "outdir");
  EXPECT_EQ(opts.formats, (std::vector<std::string>{"table", "json"}));
  EXPECT_EQ(opts.experiments, (std::vector<std::string>{"fig7_scalability"}));
}

TEST(ReproCli, RejectsBadValues) {
  auto parse = [](std::initializer_list<const char*> args) {
    std::vector<const char*> argv = {"sapp_repro"};
    argv.insert(argv.end(), args.begin(), args.end());
    CliOptions opts;
    return parse_cli(static_cast<int>(argv.size()), argv.data(), opts);
  };
  EXPECT_NE(parse({"--scale", "2.0"}), "");
  EXPECT_NE(parse({"--threads", "0"}), "");
  EXPECT_NE(parse({"--format", "xml"}), "");
  EXPECT_NE(parse({"--frmat", "json"}), "");
  EXPECT_NE(parse({"--out"}), "");
}

TEST(ReproCli, CheckImpliesJsonFormat) {
  const char* argv[] = {"sapp_repro", "--all", "--check", "--format", "table"};
  CliOptions opts;
  ASSERT_EQ(parse_cli(static_cast<int>(std::size(argv)), argv, opts), "");
  EXPECT_NE(std::find(opts.formats.begin(), opts.formats.end(), "json"),
            opts.formats.end());
}

// ------------------------------------------------- golden schema check

// Run a real simulation-backed experiment at tiny sizes and pin down the
// JSON schema plus the scheme and workload vocabularies.
TEST(ReproGolden, Fig6JsonSchemaSchemesAndWorkloadsAreStable) {
  RunOptions opt;
  opt.tiny = true;
  opt.threads = 2;
  RunContext ctx(opt);
  const Experiment& exp = builtin_experiments().find("fig6_pclr_breakdown");
  const ExperimentResult result = exp.run(ctx);

  RunMeta meta;
  meta.experiment = exp.name;
  meta.title = exp.title;
  meta.paper_ref = exp.paper_ref;
  meta.scale = ctx.scale(exp.default_scale);
  meta.threads = ctx.threads();
  meta.reps = ctx.reps();
  meta.warmup = ctx.warmup();
  meta.tiny = true;
  const JsonValue doc = result_to_json(meta, HostInfo::current(), result);

  EXPECT_EQ(validate_result_json(doc), "");

  // Top-level keys, in rendering order.
  std::vector<std::string> keys;
  for (const auto& [k, v] : doc.members()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "schema_version", "generator", "experiment", "title",
                      "paper_ref", "host", "environment", "config", "tables",
                      "metrics", "notes"}));
  EXPECT_EQ(doc.find("experiment")->as_string(), "fig6_pclr_breakdown");
  EXPECT_EQ(doc.find("paper_ref")->as_string(), "Fig. 6");

  // Table vocabulary.
  const auto& tables = doc.find("tables")->items();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].find("name")->as_string(), "simulated_cycles");
  EXPECT_EQ(tables[1].find("name")->as_string(), "normalized_breakdown");

  // Workload names: the five Table 2 codes, in paper order.
  const std::set<std::string> expected_apps = {"Euler", "Equake", "Vml",
                                               "Charmm", "Nbf"};
  std::set<std::string> apps;
  for (const auto& row : tables[0].find("rows")->items())
    apps.insert(row.items()[0].as_string());
  EXPECT_EQ(apps, expected_apps);

  // Scheme names in the breakdown: Sw / Hw / Flex only.
  std::set<std::string> schemes;
  for (const auto& row : tables[1].find("rows")->items())
    schemes.insert(row.items()[1].as_string());
  EXPECT_EQ(schemes, (std::set<std::string>{"Sw", "Hw", "Flex"}));

  // Summary metrics the docs reference.
  for (const char* metric :
       {"hm_speedup_sw", "hm_speedup_hw", "hm_speedup_flex",
        "flex_vs_hw_gap_pct"}) {
    const JsonValue* v = doc.find("metrics")->find(metric);
    ASSERT_NE(v, nullptr) << metric;
    EXPECT_TRUE(v->is_number()) << metric;
  }

  // The markdown rendering carries the same cell vocabulary.
  const std::string md = render_markdown(meta, HostInfo::current(), result);
  EXPECT_NE(md.find("| Euler |"), std::string::npos);
}

TEST(ReproValidate, CatchesSchemaViolations) {
  JsonValue doc = JsonValue::object();
  EXPECT_NE(validate_result_json(doc), "");  // everything missing
  EXPECT_NE(validate_result_json(JsonValue(3)), "");  // not an object

  // Build a minimal valid document, then break it.
  RunMeta meta;
  meta.experiment = "x";
  meta.title = "t";
  meta.paper_ref = "p";
  ExperimentResult r;
  ResultTable t("t1", {"a", "b"});
  t.add_row({1, "two"});
  r.tables.push_back(std::move(t));
  JsonValue good = result_to_json(meta, HostInfo::current(), r);
  EXPECT_EQ(validate_result_json(good), "");

  JsonValue bad_version = good;
  bad_version.set("schema_version", 999);
  EXPECT_NE(validate_result_json(bad_version), "");

  JsonValue no_tables = good;
  no_tables.set("tables", JsonValue::array());
  EXPECT_NE(validate_result_json(no_tables), "");

  // The environment block is required and fully typed; since v3 it has
  // no combine-schedule key (there is one merge order).
  JsonValue bad_env = good;
  bad_env.set("environment", JsonValue::object());
  EXPECT_NE(validate_result_json(bad_env), "");
  const JsonValue* env = good.find("environment");
  ASSERT_NE(env, nullptr);
  for (const char* key : {"backend", "isa", "dispatch", "topology"}) {
    const JsonValue* v = env->find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_TRUE(v->is_string()) << key;
    EXPECT_FALSE(v->as_string().empty()) << key;
  }
  EXPECT_EQ(env->find("combine"), nullptr);
}

TEST(ReproResult, RowWidthMismatchIsFatal) {
  ResultTable t("t", {"a", "b"});
  EXPECT_DEATH(t.add_row({1}), "width");
}

// ------------------------------------------ checking experiment schema

// Deterministic tiny smoke of the fault-injection experiment: detection
// invariants hold at any scale (the overhead numbers are only gated at
// full fig3 scale in CI — a tiny run's denominators are noise).
TEST(ReproChecking, TinyRunDetectsEveryFaultAtFullRate) {
  RunOptions opt;
  opt.tiny = true;
  opt.threads = 2;
  RunContext ctx(opt);
  const Experiment& exp = builtin_experiments().find("checking");
  const ExperimentResult result = exp.run(ctx);

  RunMeta meta;
  meta.experiment = exp.name;
  meta.title = exp.title;
  meta.paper_ref = exp.paper_ref;
  meta.scale = ctx.scale(exp.default_scale);
  meta.threads = ctx.threads();
  meta.reps = ctx.reps();
  meta.warmup = ctx.warmup();
  meta.tiny = true;
  const JsonValue doc = result_to_json(meta, HostInfo::current(), result);
  EXPECT_EQ(validate_result_json(doc), "");

  const auto& tables = doc.find("tables")->items();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].find("name")->as_string(), "checker_overhead");
  EXPECT_EQ(tables[1].find("name")->as_string(), "fault_detection");

  const JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const auto num = [&](const char* name) {
    const JsonValue* v = metrics->find(name);
    EXPECT_NE(v, nullptr) << name;
    EXPECT_TRUE(v != nullptr && v->is_number()) << name;
    return v != nullptr && v->is_number() ? v->as_number() : -1.0;
  };
  // The CI repro-smoke gate reads exactly these detection metrics.
  EXPECT_EQ(num("detection_rate_full_min"), 1.0);
  EXPECT_EQ(num("detection_trial_agreement"), 1.0);
  EXPECT_EQ(num("detection_within_tolerance"), 1.0);
  EXPECT_EQ(num("recovery_mismatches"), 0.0);
  EXPECT_EQ(num("false_positives"), 0.0);
  EXPECT_GT(num("trials_total"), 0.0);
  EXPECT_EQ(num("injected_total"), num("trials_total"));
  // Overhead metrics must exist and be finite; their values are gated in
  // CI at full scale only.
  EXPECT_GT(num("checker_overhead_full_pct"), -100.0);
  EXPECT_GT(num("checker_overhead_pct"), -100.0);
  EXPECT_GT(num("checker_overhead_quarter_pct"), -100.0);
}

}  // namespace
}  // namespace sapp::repro
