// ShardedDecisionStore — the one persistence path of the decision cache.
//
// One JSON document for the whole database would not suit a runtime
// serving thousands of churning sites: every flush would serialize every
// site, and a crash mid-rewrite would lose the whole database. The store
// splits the cache across `shards` files keyed by a stable 64-bit FNV-1a
// fingerprint of the site id, and owns all of its file I/O:
//
//     <dir>/shard-<k>.json        (each file is a DecisionCache document)
//
// Properties:
//   * per-shard mutexes — writers to unrelated sites never contend;
//   * dirty-set coalescing — `mark_dirty` is a cheap set insert on the
//     submit path; `drain()` (called by the runtime's maintenance thread,
//     never by submitters) snapshots the dirty sites and rewrites only
//     the shards that changed;
//   * atomic flushes — each shard is written to `<file>.tmp`, fsync'd,
//     then renamed over the old file, so a reader (or a crash) sees
//     either the old complete document or the new complete document,
//     never a torn one. A failure hook can abandon a flush mid-write
//     (tests/decision_store_test.cpp proves the old-or-new invariant);
//   * re-homing — entries found in the wrong shard file (the directory
//     was written under a different shard count) are adopted into their
//     home shard and both shards are marked dirty, so the layout
//     converges instead of resurrecting stale duplicates.
//
// The store itself is runtime-agnostic: `sapp::Runtime` owns one, feeds
// it evicted-site snapshots, and passes a live-site snapshotter to
// `drain()` so persisted state always reflects the latest invocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/decision_cache.hpp"

namespace sapp {

/// Construction knobs of the sharded store.
struct DecisionStoreOptions {
  /// Directory holding the shard files. Empty = in-memory only: the store
  /// still shards its map and serves get/put (the runtime's eviction
  /// warm-restart path), but mark_dirty/drain are no-ops.
  std::string dir;
  /// Number of shard files; clamped to [1, 256]. Changing it later is
  /// safe (entries re-home on load) but rewrites shards once.
  std::size_t shards = 16;
};

/// Sharded, asynchronously flushable decision database.
class ShardedDecisionStore {
 public:
  /// Where a simulated crash strikes during one shard flush.
  enum class FlushPhase {
    kTempWrite,  ///< mid temp-file write: a torn .tmp, no rename
    kRename      ///< after a complete temp write, before the rename
  };
  /// Fault-injection hook consulted during every shard flush; returning
  /// true abandons the flush at `phase` as a crash would (the shard's
  /// sites stay dirty and are retried on the next drain).
  using FlushFailureHook =
      std::function<bool(std::size_t shard, FlushPhase phase)>;
  /// Refreshes a dirty site's entry from live state at flush time.
  /// Returns false when the site has no live state to snapshot (evicted
  /// or never invoked) — the store then keeps its current entry.
  using Snapshotter =
      std::function<bool(const std::string& site, CachedDecision& out)>;

  explicit ShardedDecisionStore(DecisionStoreOptions opt);

  ShardedDecisionStore(const ShardedDecisionStore&) = delete;
  ShardedDecisionStore& operator=(const ShardedDecisionStore&) = delete;

  /// Stable 64-bit FNV-1a fingerprint of a site id (not std::hash, which
  /// may differ across libstdc++ versions — shard files outlive builds).
  [[nodiscard]] static std::uint64_t fingerprint(std::string_view site);
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(std::string_view site) const;
  [[nodiscard]] std::string shard_path(std::size_t shard) const;
  [[nodiscard]] bool persistent() const { return !opt_.dir.empty(); }

  /// Load every shard file under the directory (creating the directory if
  /// missing). A malformed or missing shard contributes nothing — a cold
  /// shard, never an error; `error` collects a description of skipped
  /// files. Returns the number of entries loaded.
  std::size_t load(std::string* error = nullptr);

  /// Insert or replace the entry for `d.site` and mark its shard dirty.
  void put(CachedDecision d);
  /// Copy of the entry for `site` (copies: the caller may outlive locks).
  [[nodiscard]] std::optional<CachedDecision> get(
      std::string_view site) const;
  [[nodiscard]] std::size_t size() const;
  /// Every entry folded into one document (Runtime::persisted_decisions).
  [[nodiscard]] DecisionCache merged() const;

  /// Record that `site`'s live state has advanced past what the store
  /// holds; coalesced per shard until the next drain. No-op when the
  /// store is not persistent.
  void mark_dirty(std::string_view site);
  [[nodiscard]] std::size_t dirty_count() const;

  /// Flush every dirty shard: refresh each dirty site via `snap` (when
  /// given; a snapshot never replaces a held entry with more lifetime
  /// invocations), then rewrite the shard file atomically. Returns the number
  /// of shard files written; failed shards stay dirty for retry. Safe to
  /// call concurrently with put/mark_dirty and with other drains (drains
  /// serialize: two writers of one shard's temp file would tear it).
  std::size_t drain(const Snapshotter& snap = nullptr,
                    std::string* error = nullptr);

  /// Shard files successfully written since construction.
  [[nodiscard]] std::uint64_t flushes() const { return flushes_.load(); }
  /// Flushes abandoned (injected crash or real I/O failure).
  [[nodiscard]] std::uint64_t flush_failures() const {
    return flush_failures_.load();
  }
  void set_flush_failure_hook(FlushFailureHook hook);

 private:
  struct Shard {
    mutable std::mutex mu;
    DecisionCache cache;
    std::unordered_set<std::string> dirty;
  };

  /// Atomically replace shard `i`'s file with `json` (temp + rename),
  /// honouring the failure hook. Returns false on abandonment/failure.
  bool write_shard(std::size_t i, const std::string& json,
                   std::string* error);

  DecisionStoreOptions opt_;
  std::vector<Shard> shards_;
  /// Held for a whole drain(): guards the shard files (and their .tmp
  /// siblings) on disk, which one writer at a time may touch.
  std::mutex drain_mu_;
  mutable std::mutex hook_mu_;
  FlushFailureHook hook_;
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> flush_failures_{0};
};

}  // namespace sapp
