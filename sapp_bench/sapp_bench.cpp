// sapp_bench — closed-loop end-to-end benchmark of sapp::Runtime::submit.
//
// One process drives the public Runtime API on a named workload and prints
// a JSON array with one document per workload run: every end-to-end metric
// with its unit, per-rep values and sample counts, plus an environment
// block. `--trace` runs the same workload with spans around every call the
// benchmark makes into a layer and reports the per-layer breakdown instead.
// The process exits non-zero when any output disagrees with run_sequential.
//
//   sapp_bench --workload serving_hot --seed 1 --seconds 30
//   sapp_bench --workload fig3_steady --seed 1 --seconds 30 --trace
//              --trace-out fig3.trace.json
//   sapp_bench --smoke [--trace]   # every workload, under 15 s in all
//   sapp_bench --selftest          # nearest-rank quantiles on fixed vectors
//
// README.md next to this file documents the workloads, the metric table,
// the layer -> end-to-end map and the trace format.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/topology.hpp"
#include "core/characterize.hpp"
#include "core/decision.hpp"
#include "core/decision_store.hpp"
#include "core/runtime.hpp"
#include "reductions/kernels.hpp"
#include "reductions/registry.hpp"
#include "repro/json.hpp"
#include "workloads/paramsets.hpp"
#include "workloads/workload.hpp"

#ifndef SAPP_BENCH_BUILD_TYPE
#define SAPP_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using sapp::repro::JsonValue;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------- quantiles

/// Nearest-rank q-quantile of an ascending sample: the ceil(q*n)-th
/// smallest value, so every reported quantile is an observed sample.
double nearest_rank(const std::vector<double>& sorted, double q) {
  SAPP_REQUIRE(!sorted.empty(), "quantile of an empty sample");
  // The epsilon keeps ceil() from stepping past an exact rank when q*n
  // lands one rounding error above an integer.
  const double n = static_cast<double>(sorted.size());
  const double rank = std::clamp(std::ceil(q * n - 1e-9), 1.0, n);
  return sorted[static_cast<std::size_t>(rank) - 1];
}

/// Nearest-rank quantile of an unsorted sample; 0 when it is empty.
double quantile_of(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return nearest_rank(xs, q);
}

int selftest() {
  int bad = 0;
  auto expect = [&](const char* what, double got, double want) {
    if (got != want) {
      std::fprintf(stderr, "selftest %s: got %.17g, want %.17g\n", what, got,
                   want);
      ++bad;
    }
  };
  expect("n=1 p50", quantile_of({7.0}, 0.5), 7.0);
  expect("n=1 p99", quantile_of({7.0}, 0.99), 7.0);
  expect("n=1 p0", quantile_of({7.0}, 0.0), 7.0);
  // Ranks 3 and 5 of {1,2,2,2,3}.
  expect("ties p50", quantile_of({3.0, 2.0, 1.0, 2.0, 2.0}, 0.5), 2.0);
  expect("ties p99", quantile_of({3.0, 2.0, 1.0, 2.0, 2.0}, 0.99), 3.0);
  expect("all-equal p99", quantile_of({4.0, 4.0, 4.0, 4.0}, 0.99), 4.0);
  std::vector<double> k(1000);
  for (std::size_t i = 0; i < k.size(); ++i)
    k[i] = static_cast<double>(k.size() - i);  // 1000 .. 1, reversed
  expect("n=1000 p50", quantile_of(k, 0.5), 500.0);
  expect("n=1000 p99", quantile_of(k, 0.99), 990.0);
  expect("n=1000 p100", quantile_of(k, 1.0), 1000.0);
  expect("empty", quantile_of({}, 0.5), 0.0);
  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// -------------------------------------------------------------------- trace

/// One recorded span. Submit spans carry the SchemeResult parts submit
/// returned; every span names the span that issued it (0 = root).
struct Span {
  const char* name = "";
  const char* layer = "";  ///< src/ module the call enters
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint32_t tid = 0;  ///< client index (0 = main thread)
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;  ///< request id (submit spans)
  std::int64_t site = -1;  ///< index into the workload's site list
  std::size_t workload = 0;  ///< trace-event process, set when logged
  bool submit = false;
  sapp::SchemeResult r{};
};

/// In-memory span log of one process, written as Chrome trace-event JSON
/// at exit. Clients keep their own span vectors while they run and hand
/// them over after joining; only ids are shared across threads.
class Trace {
 public:
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  void add(Span s) {
    s.workload = site_ids_.size();
    spans_.push_back(s);
  }
  void append(std::vector<Span>& more) {
    for (const Span& s : more) add(s);
    more.clear();
  }
  /// Spans logged from now on belong to a new workload (trace-event
  /// process) whose site list is `site_ids`.
  void begin_workload(std::vector<std::string> site_ids) {
    site_ids_.push_back(std::move(site_ids));
  }
  bool write(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> ids_{0};
  std::vector<Span> spans_;
  std::vector<std::vector<std::string>> site_ids_;  // per workload
};

/// RAII phase span on the main thread; a no-op without a Trace.
class Scope {
 public:
  Scope(Trace* t, const char* name, const char* layer, std::uint64_t parent,
        std::int64_t site = -1)
      : t_(t) {
    if (t_ == nullptr) return;
    s_.name = name;
    s_.layer = layer;
    s_.parent = parent;
    s_.site = site;
    s_.id = t_->next_id();
    s_.t0_ns = now_ns();
  }
  ~Scope() {
    if (t_ == nullptr) return;
    s_.t1_ns = now_ns();
    t_->add(s_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return s_.id; }

 private:
  Trace* t_;
  Span s_;
};

void write_json_string(std::FILE* f, std::string_view s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(c));
      continue;
    }
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":%zu,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu",
                 i == 0 ? "" : ",", s.name, s.layer, s.workload, s.tid,
                 s.t0_ns * 1e-3, (s.t1_ns - s.t0_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    if (s.site >= 0) {
      std::fputs(",\"site\":", f);
      write_json_string(
          f, site_ids_[s.workload - 1][static_cast<std::size_t>(s.site)]);
    }
    if (s.submit) {
      std::fprintf(f,
                   ",\"req\":%llu,\"inspect_us\":%.3f,\"init_us\":%.3f,"
                   "\"loop_us\":%.3f,\"merge_us\":%.3f,\"check_us\":%.3f",
                   static_cast<unsigned long long>(s.req),
                   s.r.inspect_s * 1e6, s.r.phases.init_s * 1e6,
                   s.r.phases.loop_s * 1e6, s.r.phases.merge_s * 1e6,
                   s.r.check_s * 1e6);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- workloads

enum class Shape { kServing, kFig3 };

/// One named workload. README.md records why each exists.
struct WorkloadDef {
  const char* name;
  Shape shape;
  std::size_t population;  ///< serving sites generated (fig3: its 21 rows)
  std::size_t initial;     ///< sites submitted once during setup
  std::size_t max_sites;   ///< Runtime LRU cap (0 = unbounded)
  std::size_t window;      ///< sliding hot window (0 = uniform over initial)
};

constexpr WorkloadDef kWorkloads[] = {
    {"serving_hot", Shape::kServing, 400, 400, 0, 0},
    {"serving_churn", Shape::kServing, 2000, 200, 400, 200},
    {"fig3_steady", Shape::kFig3, 21, 21, 0, 0},
};

/// Work of one rep. A rep is a fixed amount of work, not a fixed time, so
/// every rep runs the same traffic mix (cold vs warm site creations on the
/// churn window, submits per fig3 row) whatever the speed of the host or
/// of the code under test. Fig3 reps hold 2,100 submits, so 21 lie beyond
/// p99.
constexpr std::uint64_t kServingRepRequests = 192000;
constexpr std::uint64_t kFig3RepPasses = 100;
/// Passes of the churn window over the population per rep: more than one,
/// so sites evicted early in a rep come back and find their decision in
/// the store (warm re-registrations).
constexpr double kChurnPasses = 2.2;
/// Requests of the 1-client leg of a traced rep (capped at one rep).
constexpr std::uint64_t kSoloRequests = 20000;
/// Serving verifies every request to a site whose index is a multiple of
/// this; fig3 verifies every row.
constexpr std::size_t kVerifyStride = 8;
/// Serving-site probes (trace mode) cover this many verified sites.
constexpr std::size_t kServingProbeSites = 24;
constexpr double kFig3Scale = 0.3;
constexpr double kCheckRate = 0.05;
/// Extra Runtimes per untraced run that only go through set-up.
constexpr int kSetupOnly = 6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
  std::string commit = "unknown";
  std::string work_dir = "sapp_bench.work";
};

struct Site {
  std::string id;
  sapp::ReductionInput in;
  std::vector<double> ref;  ///< run_sequential output; empty = unverified
};

bool matches(std::span<const double> out, const std::vector<double>& ref) {
  for (std::size_t e = 0; e < ref.size(); ++e) {
    const double tol = 1e-9 + 1e-6 * std::abs(ref[e]);
    if (!(std::abs(out[e] - ref[e]) <= tol)) return false;
  }
  return true;
}

/// Submits made, outputs compared, and failures (wrong outputs, submits
/// that threw, detected wrong combines, broken invariants).
struct Tally {
  std::uint64_t submits = 0;
  std::uint64_t verified = 0;
  std::uint64_t failed = 0;

  void add(const Tally& o) {
    submits += o.submits;
    verified += o.verified;
    failed += o.failed;
  }
};

/// One closed-loop stretch of clients against one Runtime.
struct Leg {
  double wall_s = 0.0;
  std::uint64_t next_req = 0;  ///< request counter after the leg
  std::vector<double> lat_s;   ///< every timed submit, sorted
  std::vector<Span> spans;     ///< submit spans (traced legs)
  Tally tally;
};

/// Runtime-wide counters, read before and after a timed leg.
struct Counters {
  double evictions = 0, warm_offers = 0, checks = 0, flushes = 0;

  static Counters of(sapp::Runtime& rt) {
    return {static_cast<double>(rt.evictions()),
            static_cast<double>(rt.warm_offers()),
            static_cast<double>(rt.checks_run()),
            static_cast<double>(rt.decision_store().flushes())};
  }
  Counters operator-(const Counters& o) const {
    return {evictions - o.evictions, warm_offers - o.warm_offers,
            checks - o.checks, flushes - o.flushes};
  }
};

/// A metric as printed: value plus the values it summarizes.
struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  std::vector<double> reps;  ///< per-rep values (end-to-end metrics)
  std::uint64_t samples = 0;
};

JsonValue to_json(const std::vector<Metric>& ms) {
  JsonValue obj = JsonValue::object();
  for (const Metric& m : ms) {
    JsonValue j = JsonValue::object();
    j.set("value", m.value);
    j.set("unit", m.unit);
    if (!m.reps.empty()) {
      const std::vector<JsonValue> cells(m.reps.begin(), m.reps.end());
      JsonValue reps = JsonValue::array();
      for (const JsonValue& c : cells) reps.push_back(c);
      j.set("reps", std::move(reps));
    }
    j.set("samples", m.samples);
    obj.set(m.name, std::move(j));
  }
  return obj;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

class Bench {
 public:
  Bench(const WorkloadDef& def, const Options& opt, Trace* trace)
      : def_(def), opt_(opt), trace_(trace) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    // Thread budget: serving = clients + (pool - 1) helpers + maintenance
    // thread; fig3 = the main thread as the one client + (pool - 1)
    // helpers. Neither exceeds the core count.
    if (def_.shape == Shape::kServing) {
      pool_ = std::max(1u, hw / 2);
      clients_ = std::clamp(hw - pool_, 1u, 2u);
    } else {
      pool_ = hw;
      clients_ = 1;
    }
    generate();
    // Smoke reps are small; their numbers are not comparable.
    rep_requests_ = def_.shape == Shape::kServing
                        ? (opt_.smoke ? 4000 : kServingRepRequests)
                        : (opt_.smoke ? 5 : kFig3RepPasses) * sites_.size();
    if (def_.window > 0) {
      const double steps =
          kChurnPasses * static_cast<double>(def_.population);
      advance_every_ = std::max<std::uint64_t>(
          1, std::llround(static_cast<double>(rep_requests_) / steps));
    }
  }

  JsonValue run();

 private:
  void generate();
  [[nodiscard]] sapp::RuntimeOptions runtime_options(
      const std::string& store_dir) const;
  [[nodiscard]] std::size_t pick(std::uint64_t r, sapp::Rng& rng) const;
  /// Closed loop of `clients` threads issuing requests first_req ..
  /// first_req + requests - 1.
  Leg drive(sapp::Runtime& rt, unsigned clients, std::uint64_t requests,
            std::uint64_t first_req, std::uint64_t salt, bool traced,
            std::uint64_t parent);
  /// Fresh Runtime + first submit to every site of the initial set.
  std::unique_ptr<sapp::Runtime> setup(const std::string& store_dir,
                                       double* setup_s, std::uint64_t parent);
  /// The span of one submit to site `idx` (requires a Trace).
  Span submit_span(std::int64_t t0, std::int64_t t1, std::size_t idx,
                   std::uint64_t parent, const sapp::SchemeResult& r) {
    Span sp;
    sp.name = "submit";
    sp.layer = "core.runtime";
    sp.t0_ns = t0;
    sp.t1_ns = t1;
    sp.id = trace_->next_id();
    sp.parent = parent;
    sp.site = static_cast<std::int64_t>(idx);
    sp.submit = true;
    sp.r = r;
    return sp;
  }
  /// One submit outside a timed leg, verified when the site has a
  /// reference; returns its wall time (0 when it threw).
  double submit_checked(sapp::Runtime& rt, std::size_t idx,
                        std::vector<double>& buf, std::uint64_t parent);
  /// Post-rep checks: fig3 verification pass, check failures, site cap.
  void end_of_rep(sapp::Runtime& rt, std::uint64_t parent);
  void fail(std::string why) {
    ++tally_.failed;
    note(std::move(why));
  }
  /// Keep the first few problems; `failed` carries the total.
  void note(std::string why) {
    if (problems_.size() < 20) problems_.push_back(std::move(why));
  }
  std::vector<Metric> layers(sapp::Runtime& rt, const Leg& timed,
                             std::uint64_t rt_submits, std::uint64_t parent,
                             const Counters& delta);
  JsonValue environment() const;

  const WorkloadDef& def_;
  const Options& opt_;
  Trace* trace_;
  unsigned pool_ = 1;
  unsigned clients_ = 1;
  std::uint64_t rep_requests_ = 0;  ///< timed requests per rep
  std::uint64_t advance_every_ = 1;  ///< churn window: requests per step
  std::vector<Site> sites_;
  std::size_t max_dim_ = 0;
  Tally tally_;
  std::vector<std::string> problems_;
};

void Bench::generate() {
  if (def_.shape == Shape::kServing) {
    sites_.reserve(def_.population);
    for (std::size_t i = 0; i < def_.population; ++i) {
      auto w = sapp::workloads::make_serving_site(i, 1.0, opt_.seed);
      Site s{w.input.pattern.loop_id, std::move(w.input), {}};
      sites_.push_back(std::move(s));
    }
  } else {
    // Each row is its own site "<loop_id>#<row>": the 21 rows carry only 6
    // distinct loop_ids, and rows folded into one site would re-characterize
    // on every call.
    const double scale = opt_.smoke ? 0.03 : kFig3Scale;
    auto rows = sapp::workloads::fig3_rows(scale, opt_.seed);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      auto& in = rows[i].workload.input;
      Site s{in.pattern.loop_id + "#" + std::to_string(i), std::move(in), {}};
      sites_.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    Site& s = sites_[i];
    max_dim_ = std::max(max_dim_, s.in.pattern.dim);
    if (def_.shape == Shape::kFig3 || i % kVerifyStride == 0) {
      s.ref.assign(s.in.pattern.dim, 0.0);
      sapp::run_sequential(s.in, s.ref);
    }
  }
}

sapp::RuntimeOptions Bench::runtime_options(
    const std::string& store_dir) const {
  // Default AdaptiveOptions and calibration: feedback stays armed.
  sapp::RuntimeOptions o;
  o.threads = pool_;
  if (def_.shape == Shape::kServing) {
    o.max_sites = def_.max_sites;
    o.decision_cache_dir = store_dir;
    o.adaptive.check.enabled = true;
    o.adaptive.check.sample_rate = kCheckRate;
  }
  return o;
}

std::size_t Bench::pick(std::uint64_t r, sapp::Rng& rng) const {
  if (def_.shape == Shape::kFig3) return r % sites_.size();
  if (def_.window == 0) return rng.below(def_.initial);
  const std::uint64_t base = (r / advance_every_) % def_.population;
  return (base + rng.below(def_.window)) % def_.population;
}

Leg Bench::drive(sapp::Runtime& rt, unsigned clients, std::uint64_t requests,
                 std::uint64_t first_req, std::uint64_t salt, bool traced,
                 std::uint64_t parent) {
  struct ClientOut {
    std::vector<double> lat_s;
    std::vector<Span> spans;
    Tally tally;
  };
  std::vector<ClientOut> outs(clients);
  std::atomic<std::uint64_t> next{first_req};
  const std::uint64_t end = first_req + requests;
  const bool fig3 = def_.shape == Shape::kFig3;

  auto client = [&](unsigned c) {
    sapp::Rng rng(opt_.seed * 0x9E3779B97F4A7C15ull + salt * 977 + c);
    std::vector<double> buf(max_dim_, 0.0);
    ClientOut& mine = outs[c];
    mine.lat_s.reserve(requests / clients + 1);
    for (;;) {
      const std::uint64_t r = next.fetch_add(1, std::memory_order_relaxed);
      if (r >= end) break;
      const std::size_t idx = pick(r, rng);
      const Site& s = sites_[idx];
      const std::span<double> out(buf.data(), s.in.pattern.dim);
      std::fill(out.begin(), out.end(), 0.0);
      ++mine.tally.submits;
      const std::int64_t t0 = now_ns();
      sapp::SchemeResult res;
      try {
        res = rt.submit(s.id, s.in, out);
      } catch (const std::exception&) {
        ++mine.tally.failed;
        continue;
      }
      const std::int64_t t = now_ns();
      mine.lat_s.push_back(secs(t - t0));
      if (traced) {
        Span sp = submit_span(t0, t, idx, parent, res);
        sp.tid = c;
        sp.req = r;
        mine.spans.push_back(sp);
      }
      if (!fig3 && !s.ref.empty()) {
        ++mine.tally.verified;
        if (!matches(out, s.ref)) ++mine.tally.failed;
      }
    }
  };

  const std::int64_t start = now_ns();
  std::vector<std::thread> threads;
  for (unsigned c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);  // the main thread is client 0
  for (auto& th : threads) th.join();

  Leg leg;
  leg.wall_s = secs(now_ns() - start);
  leg.next_req = end;
  for (ClientOut& o : outs) {
    leg.lat_s.insert(leg.lat_s.end(), o.lat_s.begin(), o.lat_s.end());
    leg.spans.insert(leg.spans.end(), o.spans.begin(), o.spans.end());
    leg.tally.add(o.tally);
  }
  std::sort(leg.lat_s.begin(), leg.lat_s.end());
  tally_.add(leg.tally);
  if (leg.tally.failed > 0)
    note(std::to_string(leg.tally.failed) +
         " wrong or failed submits in a timed leg");
  return leg;
}

double Bench::submit_checked(sapp::Runtime& rt, std::size_t idx,
                             std::vector<double>& buf, std::uint64_t parent) {
  const Site& s = sites_[idx];
  const std::span<double> out(buf.data(), s.in.pattern.dim);
  std::fill(out.begin(), out.end(), 0.0);
  ++tally_.submits;
  const std::int64_t t0 = now_ns();
  sapp::SchemeResult res;
  try {
    res = rt.submit(s.id, s.in, out);
  } catch (const std::exception& e) {
    fail("submit to " + s.id + " threw: " + e.what());
    return 0.0;
  }
  const std::int64_t t1 = now_ns();
  if (trace_ != nullptr) trace_->add(submit_span(t0, t1, idx, parent, res));
  if (!s.ref.empty()) {
    ++tally_.verified;
    if (!matches(out, s.ref)) fail("wrong output from " + s.id);
  }
  return secs(t1 - t0);
}

std::unique_ptr<sapp::Runtime> Bench::setup(const std::string& store_dir,
                                            double* setup_s,
                                            std::uint64_t parent) {
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  std::vector<double> buf(max_dim_, 0.0);
  Scope span(trace_, "setup", "core.runtime", parent);
  const std::int64_t t0 = now_ns();
  auto rt = std::make_unique<sapp::Runtime>(runtime_options(store_dir));
  double s = secs(now_ns() - t0);
  for (std::size_t i = 0; i < def_.initial; ++i)
    s += submit_checked(*rt, i, buf, span.id());
  *setup_s = s;
  if (def_.shape == Shape::kFig3 && rt->site_count() != sites_.size())
    fail("cold pass left " + std::to_string(rt->site_count()) +
         " live sites, want " + std::to_string(sites_.size()));
  return rt;
}

void Bench::end_of_rep(sapp::Runtime& rt, std::uint64_t parent) {
  if (def_.shape == Shape::kFig3) {
    // Verification pass: every row once more, outside the timed part.
    Scope span(trace_, "verify_pass", "bench", parent);
    std::vector<double> buf(max_dim_, 0.0);
    for (std::size_t i = 0; i < sites_.size(); ++i)
      (void)submit_checked(rt, i, buf, span.id());
  }
  if (rt.check_failures() > 0)
    fail(std::to_string(rt.check_failures()) + " in-flight check failures");
  if (def_.max_sites > 0) {
    (void)rt.sweep();
    if (rt.site_count() > def_.max_sites)
      fail("site table above its cap after the rep");
  }
}

JsonValue Bench::environment() const {
  JsonValue env = JsonValue::object();
  env.set("commit", opt_.commit);
  env.set("nproc", std::thread::hardware_concurrency());
  env.set("pool_threads", pool_);
  env.set("clients", clients_);
  env.set("kernel_backend", sapp::kernels::active().name);
  env.set("kernel_dispatch", sapp::kernels::dispatch_summary());
  env.set("topology", sapp::CpuTopology::host().summary());
  env.set("seed", static_cast<unsigned long long>(opt_.seed));
  env.set("build_type", SAPP_BENCH_BUILD_TYPE);
  env.set("seconds", opt_.seconds);
  env.set("smoke", opt_.smoke);
  return env;
}

// Layer self time of a submit: its wall time minus the SchemeResult parts
// it reports (inspect, init, loop, merge, check) — site lookup, the pool
// arbiter, post-execute feedback and rollback snapshots.
double residual_s(const Span& s) {
  return secs(s.t1_ns - s.t0_ns) - s.r.inspect_s - s.r.phases.total() -
         s.r.check_s;
}

std::vector<Metric> Bench::layers(sapp::Runtime& rt, const Leg& timed,
                                  std::uint64_t rt_submits,
                                  std::uint64_t parent,
                                  const Counters& delta) {
  std::vector<Metric> m;
  auto add = [&](std::string name, double v, const char* unit,
                 std::uint64_t n) {
    m.push_back({std::move(name), v, unit, {}, n});
  };
  const auto n = static_cast<std::uint64_t>(timed.spans.size());
  const double per_1k = n > 0 ? 1000.0 / static_cast<double>(n) : 0.0;

  // ---- core.runtime / core.adaptive / reductions / check, from the
  // traced submits of the timed leg.
  std::vector<double> overhead, inspect, check;
  double wall = 0, t_over = 0, t_insp = 0, t_init = 0, t_loop = 0,
         t_merge = 0, t_check = 0;
  for (const Span& s : timed.spans) {
    const double o = residual_s(s);
    overhead.push_back(o * 1e6);
    inspect.push_back(s.r.inspect_s * 1e6);
    if (s.r.check_s > 0) check.push_back(s.r.check_s * 1e6);
    wall += secs(s.t1_ns - s.t0_ns);
    t_over += o;
    t_insp += s.r.inspect_s;
    t_init += s.r.phases.init_s;
    t_loop += s.r.phases.loop_s;
    t_merge += s.r.phases.merge_s;
    t_check += s.r.check_s;
  }
  auto share = [&](double part) { return wall > 0 ? part / wall : 0.0; };
  const double over_p50 = quantile_of(overhead, 0.5);
  add("runtime.overhead_us.p50", over_p50, "us", n);
  add("runtime.overhead_us.p99", quantile_of(overhead, 0.99), "us", n);
  add("runtime.overhead_share", share(t_over), "ratio", n);

  add("runtime.evictions_per_1k", delta.evictions * per_1k, "count/1k", n);
  add("runtime.warm_offers_per_1k", delta.warm_offers * per_1k, "count/1k",
      n);

  add("adaptive.inspect_us.p50", quantile_of(inspect, 0.5), "us", n);
  add("adaptive.inspect_us.p99", quantile_of(inspect, 0.99), "us", n);
  add("adaptive.inspect_share", share(t_insp), "ratio", n);
  {
    // Live sites only (evicted sites took their counters with them); the
    // sweep first trims any transient overshoot so the maintenance thread
    // evicts nothing while the reducers are read.
    (void)rt.sweep();
    double rechar = 0, switches = 0, demotions = 0;
    for (const std::string& id : rt.site_ids()) {
      const sapp::AdaptiveReducer& r = rt.site(id);
      rechar += r.recharacterizations();
      switches += r.scheme_switches();
      demotions += r.time_drift_demotions();
    }
    const double k = 1000.0 / static_cast<double>(std::max<std::uint64_t>(
                                  rt_submits, 1));
    add("adaptive.recharacterizations_per_1k", rechar * k, "count/1k",
        rt_submits);
    add("adaptive.switches_per_1k", switches * k, "count/1k", rt_submits);
    add("adaptive.time_demotions_per_1k", demotions * k, "count/1k",
        rt_submits);
  }
  add("reductions.init_share", share(t_init), "ratio", n);
  add("reductions.loop_share", share(t_loop), "ratio", n);
  add("reductions.merge_share", share(t_merge), "ratio", n);
  add("check.us.p50", quantile_of(check, 0.5), "us", check.size());
  add("check.share", share(t_check), "ratio", n);
  add("check.checks_per_1k", delta.checks * per_1k, "count/1k", n);
  add("decision_store.flushes_per_s",
      timed.wall_s > 0 ? delta.flushes / timed.wall_s : 0.0, "1/s", n);

  // ---- the same residual with one client: the difference estimates the
  // time submits spend waiting for each other (mostly the pool arbiter).
  {
    Scope solo_span(trace_, "solo_leg", "bench", parent);
    Leg solo = drive(rt, 1, std::min(kSoloRequests, rep_requests_),
                     timed.next_req, /*salt=*/1000, /*traced=*/true,
                     solo_span.id());
    std::vector<double> so;
    for (const Span& s : solo.spans) so.push_back(residual_s(s) * 1e6);
    const double solo_p50 = quantile_of(so, 0.5);
    add("runtime.overhead_solo_us.p50", solo_p50, "us", so.size());
    add("runtime.arbiter_wait_est_us", over_p50 - solo_p50, "us", n);
    trace_->append(solo.spans);
  }

  // ---- common.thread_pool: empty regions with every client idle.
  {
    Scope pool_span(trace_, "probe.thread_pool", "bench", parent);
    constexpr int kRegions = 20000;
    std::vector<double> us;
    us.reserve(kRegions);
    for (int i = 0; i < kRegions; ++i) {
      Scope sp(trace_, "pool.run", "common.thread_pool", pool_span.id());
      const std::int64_t t0 = now_ns();
      rt.pool().run([](unsigned) {});
      us.push_back(secs(now_ns() - t0) * 1e6);
    }
    add("thread_pool.region_us.p50", quantile_of(us, 0.5), "us", kRegions);
    add("thread_pool.region_us.p99", quantile_of(us, 0.99), "us", kRegions);
  }

  // ---- per-site probes: characterize, decide, plan, every candidate
  // scheme timed directly with a prebuilt plan, the steady submit and
  // the single-thread sequential baseline.
  std::vector<std::size_t> probe;
  for (std::size_t i = 0; i < def_.initial; ++i)
    if (!sites_[i].ref.empty() &&
        (def_.shape == Shape::kFig3 || probe.size() < kServingProbeSites))
      probe.push_back(i);

  struct SiteProbe {
    sapp::Decision decision;
    // Per applicable scheme, parallel arrays.
    std::vector<sapp::SchemeKind> kinds;
    std::vector<double> exec_s;  ///< median of 3 executes, plan prebuilt
    std::vector<double> plan_s;
    std::vector<std::size_t> private_bytes;
    double submit_s = 0, seq_s = 0;  ///< medians of 3
  };
  std::vector<SiteProbe> probes(probe.size());
  double char_s = 0, refs = 0;
  std::vector<double> decide_us;
  std::vector<double> buf(max_dim_, 0.0);
  {
    Scope probe_span(trace_, "probe.sites", "bench", parent);
    for (std::size_t p = 0; p < probe.size(); ++p) {
      const auto idx = static_cast<std::int64_t>(probe[p]);
      const Site& s = sites_[probe[p]];
      SiteProbe& sp = probes[p];
      const std::span<double> out(buf.data(), s.in.pattern.dim);

      sapp::PatternStats stats;
      {
        Scope c(trace_, "characterize", "core.characterize", probe_span.id(),
                idx);
        const std::int64_t t0 = now_ns();
        stats = sapp::characterize(s.in.pattern, rt.threads());
        char_s += secs(now_ns() - t0);
        refs += static_cast<double>(s.in.pattern.num_refs());
      }
      {
        Scope c(trace_, "decide_model", "core.decision", probe_span.id(), idx);
        const std::int64_t t0 = now_ns();
        sp.decision = sapp::decide_model(stats, s.in.pattern.body_flops,
                                         rt.coeffs());
        decide_us.push_back(secs(now_ns() - t0) * 1e6);
      }
      std::vector<double> t3;
      for (int k = 0; k < 3; ++k)
        t3.push_back(submit_checked(rt, probe[p], buf, probe_span.id()));
      sp.submit_s = sapp::median(t3);
      t3.clear();
      for (int k = 0; k < 3; ++k) {
        Scope c(trace_, "run_sequential", "reductions", probe_span.id(), idx);
        std::fill(out.begin(), out.end(), 0.0);
        const std::int64_t t0 = now_ns();
        sapp::run_sequential(s.in, out);
        t3.push_back(secs(now_ns() - t0));
      }
      sp.seq_s = sapp::median(t3);
      for (const sapp::SchemeKind kind : sapp::candidate_scheme_kinds()) {
        const auto scheme = sapp::make_scheme(kind);
        if (!scheme->applicable(s.in.pattern)) continue;
        std::unique_ptr<sapp::SchemePlan> plan;
        {
          Scope c(trace_, "plan", "reductions", probe_span.id(), idx);
          const std::int64_t t0 = now_ns();
          plan = scheme->plan(s.in.pattern, rt.threads());
          sp.plan_s.push_back(secs(now_ns() - t0));
        }
        t3.clear();
        std::size_t bytes = 0;
        for (int k = 0; k < 3; ++k) {
          Scope c(trace_, "execute", "reductions", probe_span.id(), idx);
          std::fill(out.begin(), out.end(), 0.0);
          const std::int64_t t0 = now_ns();
          const sapp::SchemeResult r =
              scheme->execute(plan.get(), s.in, rt.pool(), out);
          t3.push_back(secs(now_ns() - t0));
          bytes = r.private_bytes;
        }
        ++tally_.verified;
        if (!matches(out, s.ref))
          fail("wrong output from " + std::string(to_string(kind)) + " on " +
               s.id);
        sp.kinds.push_back(kind);
        sp.exec_s.push_back(sapp::median(t3));
        sp.private_bytes.push_back(bytes);
      }
    }
  }
  add("characterize.ms", char_s * 1e3, "ms", probe.size());
  add("characterize.ns_per_ref", refs > 0 ? char_s * 1e9 / refs : 0.0, "ns",
      probe.size());
  add("decision.decide_us.p50", quantile_of(decide_us, 0.5), "us",
      decide_us.size());

  // The scheme each probed site runs now (snapshot reads hold site locks).
  (void)rt.sweep();
  const sapp::DecisionCache live = rt.snapshot_decisions();
  const sapp::DecisionCache stored = rt.persisted_decisions();
  double steady_sum = 0, best_sum = 0, plan_sum = 0, seq_sum = 0,
         submit_sum = 0;
  std::uint64_t hits = 0;
  std::vector<double> pred_ratio, private_mb;
  for (std::size_t p = 0; p < probe.size(); ++p) {
    const SiteProbe& sp = probes[p];
    const sapp::CachedDecision* d = live.find(sites_[probe[p]].id);
    if (d == nullptr) d = stored.find(sites_[probe[p]].id);
    if (d == nullptr) continue;
    std::size_t k = 0;
    while (k < sp.kinds.size() && sp.kinds[k] != d->scheme) ++k;
    if (k == sp.kinds.size()) continue;
    const double steady = sp.exec_s[k];
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(sp.exec_s.begin(), sp.exec_s.end()) -
        sp.exec_s.begin());
    steady_sum += steady;
    best_sum += sp.exec_s[best];
    if (best == k) ++hits;
    plan_sum += sp.plan_s[k];
    private_mb.push_back(static_cast<double>(sp.private_bytes[k]) / 1e6);
    for (const sapp::CostPrediction& cp : sp.decision.predictions)
      if (cp.scheme == d->scheme && steady > 0)
        pred_ratio.push_back((cp.init_s + cp.loop_s + cp.merge_s) / steady);
    seq_sum += sp.seq_s;
    submit_sum += sp.submit_s;
  }
  add("decision.regret", best_sum > 0 ? steady_sum / best_sum : 0.0, "ratio",
      probe.size());
  add("decision.hits", static_cast<double>(hits), "count", probe.size());
  add("decision.sites", static_cast<double>(probe.size()), "count",
      probe.size());
  add("decision.pred_over_meas.p50", quantile_of(pred_ratio, 0.5), "ratio",
      pred_ratio.size());
  std::vector<double> pred_error;
  for (const double r : pred_ratio) pred_error.push_back(std::abs(r - 1.0));
  add("decision.pred_error.p50", quantile_of(pred_error, 0.5), "ratio",
      pred_error.size());
  add("reductions.plan_ms", plan_sum * 1e3, "ms", probe.size());
  add("reductions.private_mb.p50", quantile_of(private_mb, 0.5), "MB",
      private_mb.size());
  add("reductions.speedup_vs_seq",
      submit_sum > 0 ? seq_sum / submit_sum : 0.0, "ratio", probe.size());
  add("kernels.merge_gbps", rt.coeffs().merge_gbps, "GB/s", 1);

  // ---- core.decision_store: a standalone store holding what this run
  // learned, one timed full drain, then point reads.
  {
    Scope store_span(trace_, "probe.decision_store", "bench", parent);
    const std::string dir = opt_.work_dir + "/drain-probe";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    sapp::ShardedDecisionStore store({.dir = dir, .shards = 16});
    std::vector<std::string> ids;
    for (const auto* cache : {&stored, &live})
      for (const sapp::CachedDecision& d : cache->entries()) {
        store.put(d);
        ids.push_back(d.site);
      }
    double drain_s = 0;
    {
      Scope c(trace_, "drain", "core.decision_store", store_span.id());
      const std::int64_t t0 = now_ns();
      (void)store.drain();
      drain_s = secs(now_ns() - t0);
    }
    std::vector<double> get_us;
    for (std::size_t k = 0; !ids.empty() && k < 20000; ++k) {
      Scope c(trace_, "get", "core.decision_store", store_span.id());
      const std::int64_t t0 = now_ns();
      const auto got = store.get(ids[k % ids.size()]);
      get_us.push_back(secs(now_ns() - t0) * 1e6);
      if (!got.has_value()) fail("decision store lost " + ids[k % ids.size()]);
    }
    add("decision_store.drain_ms", drain_s * 1e3, "ms", store.size());
    add("decision_store.get_us.p50", quantile_of(get_us, 0.5), "us",
        get_us.size());
    std::filesystem::remove_all(dir, ec);
  }
  return m;
}

JsonValue Bench::run() {
  const bool traced = trace_ != nullptr;
  std::vector<std::string> ids;
  for (const Site& s : sites_) ids.push_back(s.id);
  if (traced) trace_->begin_workload(std::move(ids));

  // Untraced runs: reps, each on a fresh Runtime, until --seconds have
  // passed (four to eight on a 4-core host). The only minimum is one rep,
  // so on a host slowed several times over a run still ends about one rep
  // after --seconds. Traced runs: one untraced rep, then a traced rep whose
  // Runtime also serves the layer probes; the throughput ratio of the two
  // is the tracing overhead.
  std::vector<double> setup_s, rps, p50, p99, evictions, warm_offers;
  std::vector<std::uint64_t> samples;
  std::vector<Metric> layer_metrics;
  // setup_s is the median over every Runtime an untraced run builds: the
  // reps' and kSetupOnly more that are torn down right after setup.
  for (int k = 0; !traced && k < kSetupOnly; ++k) {
    const std::string store_dir = opt_.work_dir + "/store-setup";
    double s = 0;
    end_of_rep(*setup(store_dir, &s, 0), 0);
    setup_s.push_back(s);
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }
  const std::int64_t start = now_ns();
  auto more_reps = [&](int done) {
    if (traced) return done < 2;
    return done == 0 || secs(now_ns() - start) < opt_.seconds;
  };
  for (int rep = 0; more_reps(rep); ++rep) {
    const bool trace_rep = traced && rep == 1;
    Trace* const saved = trace_;
    if (!trace_rep) trace_ = nullptr;
    Scope rep_span(trace_, "rep", "bench", 0);
    const std::string store_dir =
        opt_.work_dir + "/store-" + std::to_string(rep);
    double setup_time = 0;
    const std::uint64_t before = tally_.submits;
    auto rt = setup(store_dir, &setup_time, rep_span.id());
    const Counters c0 = Counters::of(*rt);
    Leg leg;
    {
      Scope timed(trace_, "timed", "bench", rep_span.id());
      leg = drive(*rt, clients_, rep_requests_, 0,
                  static_cast<std::uint64_t>(rep), trace_rep, timed.id());
    }
    const Counters delta = Counters::of(*rt) - c0;
    evictions.push_back(delta.evictions);
    warm_offers.push_back(delta.warm_offers);
    setup_s.push_back(setup_time);
    rps.push_back(static_cast<double>(leg.lat_s.size()) / leg.wall_s);
    p50.push_back(leg.lat_s.empty() ? 0 : nearest_rank(leg.lat_s, 0.5) * 1e6);
    p99.push_back(leg.lat_s.empty() ? 0 : nearest_rank(leg.lat_s, 0.99) * 1e6);
    samples.push_back(leg.lat_s.size());
    if (trace_rep) {
      layer_metrics =
          layers(*rt, leg, tally_.submits - before, rep_span.id(), delta);
      layer_metrics.push_back(
          {"trace.overhead_pct", (rps[0] / rps[1] - 1.0) * 100.0, "%", {},
           2});
      trace_->append(leg.spans);
    }
    end_of_rep(*rt, rep_span.id());
    rt.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
    trace_ = saved;
  }

  JsonValue doc = JsonValue::object();
  doc.set("schema", "sapp_bench/1");
  doc.set("workload", def_.name);
  doc.set("traced", traced);
  doc.set("correct", tally_.failed == 0);
  doc.set("attempted", static_cast<unsigned long long>(tally_.submits));
  doc.set("failed", static_cast<unsigned long long>(tally_.failed));
  doc.set("verified", static_cast<unsigned long long>(tally_.verified));
  doc.set("fail_frac",
          tally_.verified > 0 ? static_cast<double>(tally_.failed) /
                                    static_cast<double>(tally_.verified)
                              : (tally_.failed > 0 ? 1.0 : 0.0));
  JsonValue problems = JsonValue::array();
  for (const std::string& p : problems_) problems.push_back(p);
  doc.set("problems", std::move(problems));
  doc.set("environment", environment());
  if (traced) {
    doc.set("layers", to_json(layer_metrics));
  } else {
    const std::uint64_t min_samples =
        *std::min_element(samples.begin(), samples.end());
    std::uint64_t total = 0;
    for (auto s : samples) total += s;
    std::vector<Metric> e2e = {
        {"setup_s", sapp::median(setup_s), "s", setup_s, setup_s.size()},
        {"throughput_rps", sapp::median(rps), "1/s", rps, total},
        {"p50_us", sapp::median(p50), "us", p50, min_samples},
        {"p99_us", sapp::median(p99), "us", p99, min_samples},
        {"peak_rss_mb", peak_rss_mb(), "MB", {}, 1},
    };
    doc.set("metrics", to_json(e2e));
    // The traffic mix each rep ran: the same on every host when the
    // rep's work is fixed.
    doc.set("rep_requests", static_cast<unsigned long long>(rep_requests_));
    doc.set("rep_counters",
            to_json({{"evictions", sapp::median(evictions), "count",
                      evictions, evictions.size()},
                     {"warm_offers", sapp::median(warm_offers), "count",
                      warm_offers, warm_offers.size()}}));
  }
  return doc;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sapp_bench --workload <serving_hot|serving_churn|fig3_steady>\n"
      "                  [--seed N] [--seconds S] [--trace]\n"
      "                  [--trace-out FILE] [--commit ID] [--work-dir DIR]\n"
      "       sapp_bench --smoke [--trace] [--seed N]\n"
      "       sapp_bench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      selftest_only = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--trace") {
      opt.trace = true;
    } else if (a == "--workload" && (v = value())) {
      opt.workload = v;
    } else if (a == "--seed" && (v = value())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace-out" && (v = value())) {
      opt.trace_out = v;
    } else if (a == "--commit" && (v = value())) {
      opt.commit = v;
    } else if (a == "--work-dir" && (v = value())) {
      opt.work_dir = v;
    } else {
      return usage();
    }
  }
  if (selftest_only) return selftest();

  std::vector<const WorkloadDef*> defs;
  for (const WorkloadDef& w : kWorkloads)
    if (opt.smoke ? opt.workload.empty() || opt.workload == w.name
                  : opt.workload == w.name)
      defs.push_back(&w);
  if (defs.empty() || !(opt.seconds > 0)) return usage();
  // Smoke: the whole set in a few seconds; numbers are not comparable.
  if (opt.smoke) opt.seconds = std::min(opt.seconds, 1.2);

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sapp_bench: cannot create %s: %s\n",
                 opt.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  auto trace = opt.trace ? std::make_unique<Trace>() : nullptr;
  JsonValue docs = JsonValue::array();
  bool ok = true;
  for (const WorkloadDef* w : defs) {
    Bench bench(*w, opt, trace.get());
    JsonValue doc = bench.run();
    ok = ok && doc.find("correct")->as_bool();
    docs.push_back(std::move(doc));
  }
  std::fputs(docs.dump().c_str(), stdout);
  std::fflush(stdout);
  if (trace && !opt.trace_out.empty() && !trace->write(opt.trace_out)) {
    std::fprintf(stderr, "sapp_bench: cannot write %s\n",
                 opt.trace_out.c_str());
    ok = false;
  }
  std::filesystem::remove_all(opt.work_dir, ec);
  return ok ? 0 : 1;
}
