#include "core/decision_cache.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "reductions/registry.hpp"
#include "repro/json.hpp"

namespace sapp {

namespace {

using repro::JsonValue;

/// Schema version of the cache document; bump on incompatible layout
/// changes (a reader seeing an unknown version treats the file as absent).
/// v3 replaced v2's model prediction and measured phase-time history with
/// the one settled `min_time_s` — older files are rejected into a
/// graceful cold start rather than warm-starting with the timing
/// demotion unarmed.
constexpr int kCacheSchemaVersion = 3;
constexpr const char* kGenerator = "sapp-decision-cache";

double rel_change(double a, double b) {
  const double mx = a > b ? a : b;
  if (mx <= 0.0) return 0.0;
  return std::abs(a - b) / mx;
}

/// The 64-bit signature fingerprints are stored as hex strings: JSON
/// numbers are doubles and silently lose precision above 2^53.
std::string to_hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool from_hex(const std::string& s, std::uint64_t& out) {
  if (s.size() < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X'))
    return false;
  const auto [p, ec] =
      std::from_chars(s.data() + 2, s.data() + s.size(), out, 16);
  return ec == std::errc{} && p == s.data() + s.size();
}

/// `v` as a T when it is a non-negative integral JSON number that T can
/// hold; nullopt otherwise. Shard files come from disk, and casting a
/// negative, non-finite or out-of-range double to an integer is undefined
/// behaviour — such a document is malformed (a cold start) instead.
template <typename T>
std::optional<T> read_count(const JsonValue* v) {
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double x = v->as_number();
  // 2^digits(T), exact in a double: every integral x below it fits in T.
  const double limit =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(x >= 0.0 && x < limit) || x != std::floor(x)) return std::nullopt;
  return static_cast<T>(x);
}

bool read_hex(const JsonValue& obj, const char* key, std::uint64_t& out) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_string() && from_hex(v->as_string(), out);
}

}  // namespace

void DecisionCache::put(CachedDecision d) {
  for (auto& e : entries_) {
    if (e.site == d.site) {
      e = std::move(d);
      return;
    }
  }
  entries_.push_back(std::move(d));
}

const CachedDecision* DecisionCache::find(std::string_view site) const {
  for (const auto& e : entries_)
    if (e.site == site) return &e;
  return nullptr;
}

bool DecisionCache::matches(const CachedDecision& d,
                            const PatternSignature& sig, unsigned threads,
                            double tolerance) {
  if (d.threads != threads) return false;
  if (d.signature.dim != sig.dim) return false;
  if (rel_change(static_cast<double>(d.signature.iterations),
                 static_cast<double>(sig.iterations)) > tolerance)
    return false;
  if (rel_change(static_cast<double>(d.signature.refs),
                 static_cast<double>(sig.refs)) > tolerance)
    return false;
  return rel_change(static_cast<double>(d.signature.sampled_index_sum),
                    static_cast<double>(sig.sampled_index_sum)) <= tolerance;
}

std::string DecisionCache::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema_version", kCacheSchemaVersion);
  doc.set("generator", kGenerator);
  JsonValue sites = JsonValue::array();
  for (const auto& e : entries_) {
    JsonValue s = JsonValue::object();
    s.set("site", e.site);
    s.set("scheme", to_string(e.scheme));
    s.set("threads", e.threads);
    JsonValue sig = JsonValue::object();
    sig.set("dim", static_cast<unsigned long long>(e.signature.dim));
    sig.set("iterations",
            static_cast<unsigned long long>(e.signature.iterations));
    sig.set("refs", static_cast<unsigned long long>(e.signature.refs));
    sig.set("index_sum", to_hex(e.signature.sampled_index_sum));
    s.set("signature", std::move(sig));
    s.set("min_time_s", e.min_time_s);
    s.set("invocations", static_cast<unsigned long long>(e.invocations));
    s.set("rationale", e.rationale);
    sites.push_back(std::move(s));
  }
  doc.set("sites", std::move(sites));
  return doc.dump();
}

std::optional<DecisionCache> DecisionCache::from_json(std::string_view text,
                                                      std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::optional<DecisionCache> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::string parse_err;
  const auto doc = JsonValue::parse(text, &parse_err);
  if (!doc) return fail("decision cache does not parse: " + parse_err);
  if (!doc->is_object()) return fail("decision cache root is not an object");
  const JsonValue* ver = doc->find("schema_version");
  if (ver == nullptr || !ver->is_number() ||
      ver->as_number() != kCacheSchemaVersion)
    return fail("decision cache has a missing or unsupported schema_version");
  const JsonValue* sites = doc->find("sites");
  if (sites == nullptr || !sites->is_array())
    return fail("decision cache has no 'sites' array");

  DecisionCache cache;
  for (const auto& s : sites->items()) {
    if (!s.is_object()) return fail("site entry is not an object");
    CachedDecision d;
    const JsonValue* site = s.find("site");
    const JsonValue* scheme = s.find("scheme");
    const auto threads = read_count<unsigned>(s.find("threads"));
    const JsonValue* sig = s.find("signature");
    if (site == nullptr || !site->is_string() || scheme == nullptr ||
        !scheme->is_string() || !threads.has_value() || sig == nullptr ||
        !sig->is_object())
      return fail("site entry is missing site/scheme/threads/signature");
    d.site = site->as_string();
    try {
      d.scheme = scheme_kind_from_name(scheme->as_string());
    } catch (const std::invalid_argument&) {
      return fail("unknown scheme name '" + scheme->as_string() + "'");
    }
    d.threads = *threads;
    const auto dim = read_count<std::size_t>(sig->find("dim"));
    const auto iterations = read_count<std::size_t>(sig->find("iterations"));
    const auto refs = read_count<std::size_t>(sig->find("refs"));
    // An `index_xor` key, which older builds wrote, is ignored.
    if (!dim || !iterations || !refs ||
        !read_hex(*sig, "index_sum", d.signature.sampled_index_sum))
      return fail("malformed signature for site '" + d.site + "'");
    d.signature.dim = *dim;
    d.signature.iterations = *iterations;
    d.signature.refs = *refs;
    // Required by schema v3: a non-negative, finite number of seconds. A
    // malformed minimum is a malformed file (cold start), not a silently
    // unarmed timing demotion.
    const JsonValue* min_time = s.find("min_time_s");
    if (min_time == nullptr || !min_time->is_number() ||
        !(min_time->as_number() >= 0.0) ||
        !std::isfinite(min_time->as_number()))
      return fail("missing or malformed min_time_s for site '" + d.site + "'");
    d.min_time_s = min_time->as_number();
    // Optional (absent = no evidence yet), but never a garbage count.
    if (const JsonValue* inv = s.find("invocations"); inv != nullptr) {
      const auto n = read_count<std::uint64_t>(inv);
      if (!n) return fail("malformed invocations for site '" + d.site + "'");
      d.invocations = *n;
    }
    if (const JsonValue* why = s.find("rationale");
        why != nullptr && why->is_string())
      d.rationale = why->as_string();
    cache.put(std::move(d));
  }
  return cache;
}

}  // namespace sapp
