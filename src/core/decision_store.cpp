#include "core/decision_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace sapp {

namespace {

constexpr std::size_t kMaxShards = 256;

void append_error(std::string* error, const std::string& msg) {
  if (error == nullptr) return;
  if (!error->empty()) *error += "; ";
  *error += msg;
}

}  // namespace

ShardedDecisionStore::ShardedDecisionStore(DecisionStoreOptions opt)
    : opt_(std::move(opt)),
      shards_(std::clamp<std::size_t>(opt_.shards, 1, kMaxShards)) {
  opt_.shards = shards_.size();
}

std::uint64_t ShardedDecisionStore::fingerprint(std::string_view site) {
  // FNV-1a, 64-bit: stable across builds and platforms, unlike std::hash.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::size_t ShardedDecisionStore::shard_of(std::string_view site) const {
  return static_cast<std::size_t>(fingerprint(site) % shards_.size());
}

std::string ShardedDecisionStore::shard_path(std::size_t shard) const {
  return opt_.dir + "/shard-" + std::to_string(shard) + ".json";
}

std::size_t ShardedDecisionStore::load(std::string* error) {
  if (!persistent()) return 0;
  std::error_code ec;
  std::filesystem::create_directories(opt_.dir, ec);
  if (ec) {
    append_error(error, "cannot create '" + opt_.dir + "': " + ec.message());
    return 0;
  }
  // Two passes so an entry present both in its home shard and (from an
  // older layout) a foreign one resolves to the home copy.
  std::vector<std::pair<CachedDecision, std::size_t>> foreign;
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string path = shard_path(i);
    if (!std::filesystem::exists(path, ec)) continue;
    std::string err;
    std::optional<DecisionCache> cache;
    if (std::ifstream file(path); file) {
      std::ostringstream text;
      text << file.rdbuf();
      cache = DecisionCache::from_json(text.str(), &err);
    } else {
      err = "cannot open";
    }
    if (!cache.has_value()) {
      // A torn or alien file is a cold shard, never a crash. (Atomic
      // renames make this unreachable for our own writes; it guards
      // against truncation by other tools.)
      append_error(error, "skipped '" + path + "': " + err);
      continue;
    }
    for (const auto& e : cache->entries()) {
      const std::size_t home = shard_of(e.site);
      if (home == i) {
        std::scoped_lock lk(shards_[i].mu);
        shards_[i].cache.put(e);
        ++loaded;
      } else {
        foreign.emplace_back(e, i);
      }
    }
  }
  for (auto& [e, from] : foreign) {
    const std::size_t home = shard_of(e.site);
    {
      std::scoped_lock lk(shards_[home].mu);
      if (shards_[home].cache.find(e.site) != nullptr) continue;
      std::string site = e.site;
      shards_[home].cache.put(std::move(e));
      shards_[home].dirty.insert(std::move(site));
      ++loaded;
    }
    // Rewriting the source shard drops the foreign entry (serialization
    // only ever renders the in-memory shard, which is home-keyed).
    std::scoped_lock lk(shards_[from].mu);
    shards_[from].dirty.insert("");  // sentinel: shard content changed
  }
  return loaded;
}

void ShardedDecisionStore::put(CachedDecision d) {
  Shard& s = shards_[shard_of(d.site)];
  std::string site = d.site;
  std::scoped_lock lk(s.mu);
  s.cache.put(std::move(d));
  if (persistent()) s.dirty.insert(std::move(site));
}

std::optional<CachedDecision> ShardedDecisionStore::get(
    std::string_view site) const {
  const Shard& s = shards_[shard_of(site)];
  std::scoped_lock lk(s.mu);
  if (const CachedDecision* d = s.cache.find(site); d != nullptr) return *d;
  return std::nullopt;
}

std::size_t ShardedDecisionStore::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::scoped_lock lk(s.mu);
    n += s.cache.size();
  }
  return n;
}

DecisionCache ShardedDecisionStore::merged() const {
  DecisionCache all;
  for (const auto& s : shards_) {
    std::scoped_lock lk(s.mu);
    for (const auto& e : s.cache.entries()) all.put(e);
  }
  return all;
}

void ShardedDecisionStore::mark_dirty(std::string_view site) {
  if (!persistent()) return;
  Shard& s = shards_[shard_of(site)];
  std::scoped_lock lk(s.mu);
  s.dirty.insert(std::string(site));
}

std::size_t ShardedDecisionStore::dirty_count() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::scoped_lock lk(s.mu);
    n += s.dirty.size();
  }
  return n;
}

void ShardedDecisionStore::set_flush_failure_hook(FlushFailureHook hook) {
  std::scoped_lock lk(hook_mu_);
  hook_ = std::move(hook);
}

std::size_t ShardedDecisionStore::drain(const Snapshotter& snap,
                                        std::string* error) {
  if (!persistent()) return 0;
  std::scoped_lock drain_lk(drain_mu_);
  std::size_t written = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    std::unordered_set<std::string> dirty;
    {
      std::scoped_lock lk(s.mu);
      if (s.dirty.empty()) continue;
      dirty.swap(s.dirty);
    }
    // Refresh each dirty site from live state outside the shard lock —
    // the snapshotter takes site locks and must not nest inside ours.
    if (snap) {
      for (const auto& site : dirty) {
        if (site.empty()) continue;  // re-home sentinel
        CachedDecision d;
        if (snap(site, d)) {
          // The site may have been evicted (its final snapshot put) since
          // `snap` released its lock: never replace a newer snapshot, whose
          // lifetime invocation count is larger.
          std::scoped_lock lk(s.mu);
          const CachedDecision* held = s.cache.find(site);
          if (held == nullptr || held->invocations <= d.invocations)
            s.cache.put(std::move(d));
        }
      }
    }
    std::string json;
    {
      std::scoped_lock lk(s.mu);
      json = s.cache.to_json();
    }
    if (write_shard(i, json, error)) {
      ++written;
    } else {
      // Keep the sites dirty so the next drain retries (new dirtiness
      // accumulated meanwhile wins the merge).
      std::scoped_lock lk(s.mu);
      s.dirty.merge(dirty);
    }
  }
  return written;
}

bool ShardedDecisionStore::write_shard(std::size_t i, const std::string& json,
                                       std::string* error) {
  FlushFailureHook hook;
  {
    std::scoped_lock lk(hook_mu_);
    hook = hook_;
  }
  const std::string path = shard_path(i);
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    append_error(error, "cannot open '" + tmp + "' for writing");
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (hook && hook(i, FlushPhase::kTempWrite)) {
    // Simulated crash mid-write: leave a torn temp file behind, never
    // rename it — the shard file keeps its previous complete contents.
    (void)std::fwrite(json.data(), 1, json.size() / 2, f);
    (void)std::fclose(f);
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) ==
                         json.size() &&
                     std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    append_error(error, "write to '" + tmp + "' failed");
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (hook && hook(i, FlushPhase::kRename)) {
    // Simulated crash between the complete temp write and the rename:
    // the new version exists only as .tmp and is ignored by load().
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    append_error(error, "rename '" + tmp + "' -> '" + path + "' failed");
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace sapp
