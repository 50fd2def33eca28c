// ShardedDecisionStore contract: stable sharding, persistence round
// trips, dirty-set coalescing, and — the load-bearing part — crash
// atomicity. A flush abandoned at any point (mid temp-file write, or
// after the temp write but before the rename) must leave the on-disk
// shard either the old complete document or the new complete document,
// never a torn one, and a store loading the directory afterwards must
// warm-start from whichever survived. The failure hook injects those
// crashes deterministically (decision_store.hpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/decision_store.hpp"

namespace sapp {
namespace {

namespace fs = std::filesystem;

class DecisionStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("sapp_store_test." + std::to_string(::getpid()) + "." +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

CachedDecision decision(const std::string& site, std::uint64_t invocations,
                        SchemeKind scheme = SchemeKind::kRep) {
  CachedDecision d;
  d.site = site;
  d.scheme = scheme;
  d.threads = 4;
  d.signature.dim = 1000;
  d.signature.iterations = 500;
  d.signature.refs = 1000;
  d.signature.sampled_index_sum = 12345;
  d.min_time_s = 0.0011;
  d.invocations = invocations;
  d.rationale = "test entry";
  return d;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST_F(DecisionStoreTest, FingerprintIsStableAndSpreadsSites) {
  // FNV-1a reference value: shard files outlive builds, so the
  // fingerprint must be this exact function forever, not std::hash.
  EXPECT_EQ(ShardedDecisionStore::fingerprint(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(ShardedDecisionStore::fingerprint("a"), 0xaf63dc4c8601ec8cull);

  ShardedDecisionStore store({.dir = "", .shards = 16});
  std::vector<int> used(16, 0);
  for (int i = 0; i < 200; ++i)
    used[store.shard_of("App/loop" + std::to_string(i))] = 1;
  int nonempty = 0;
  for (int u : used) nonempty += u;
  EXPECT_GE(nonempty, 12) << "200 sites should spread across most shards";
}

TEST_F(DecisionStoreTest, MemoryOnlyStoreServesPutGetWithoutFiles) {
  ShardedDecisionStore store({.dir = "", .shards = 8});
  EXPECT_FALSE(store.persistent());
  store.put(decision("A/x", 3));
  store.put(decision("A/y", 5, SchemeKind::kSelective));
  ASSERT_TRUE(store.get("A/x").has_value());
  EXPECT_EQ(store.get("A/x")->invocations, 3u);
  EXPECT_EQ(store.get("A/y")->scheme, SchemeKind::kSelective);
  EXPECT_FALSE(store.get("A/z").has_value());
  EXPECT_EQ(store.size(), 2u);
  // Not persistent: nothing to flush, nothing marked dirty.
  store.mark_dirty("A/x");
  EXPECT_EQ(store.dirty_count(), 0u);
  EXPECT_EQ(store.drain(), 0u);
}

TEST_F(DecisionStoreTest, PersistenceRoundTripsAcrossStores) {
  {
    ShardedDecisionStore store({.dir = dir_, .shards = 4});
    std::string err;
    EXPECT_EQ(store.load(&err), 0u) << err;  // cold start, creates dir
    for (int i = 0; i < 20; ++i)
      store.put(decision("App/s" + std::to_string(i),
                         static_cast<std::uint64_t>(i + 1)));
    EXPECT_EQ(store.dirty_count(), 20u);
    EXPECT_GT(store.drain(), 0u);
    EXPECT_EQ(store.dirty_count(), 0u);
  }
  ShardedDecisionStore reloaded({.dir = dir_, .shards = 4});
  std::string err;
  EXPECT_EQ(reloaded.load(&err), 20u) << err;
  for (int i = 0; i < 20; ++i) {
    auto got = reloaded.get("App/s" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(got->invocations, static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(reloaded.merged().size(), 20u);
}

TEST_F(DecisionStoreTest, DrainRewritesOnlyDirtyShards) {
  ShardedDecisionStore store({.dir = dir_, .shards = 8});
  (void)store.load();
  for (int i = 0; i < 32; ++i)
    store.put(decision("App/s" + std::to_string(i), 1));
  const std::size_t first = store.drain();
  EXPECT_GT(first, 0u);
  // One site re-dirtied: exactly its home shard is rewritten.
  store.mark_dirty("App/s7");
  EXPECT_EQ(store.dirty_count(), 1u);
  EXPECT_EQ(store.drain(), 1u);
  EXPECT_EQ(store.flushes(), first + 1);
  // Nothing dirty: drain is free.
  EXPECT_EQ(store.drain(), 0u);
}

TEST_F(DecisionStoreTest, SnapshotterRefreshesDirtySitesAtFlushTime) {
  ShardedDecisionStore store({.dir = dir_, .shards = 2});
  (void)store.load();
  store.put(decision("App/a", 1));
  store.put(decision("App/b", 1));
  const auto snap = [](const std::string& site, CachedDecision& out) {
    if (site != "App/a") return false;  // b: keep the stored entry
    out = decision(site, 99);
    return true;
  };
  EXPECT_GT(store.drain(snap), 0u);
  EXPECT_EQ(store.get("App/a")->invocations, 99u);
  EXPECT_EQ(store.get("App/b")->invocations, 1u);

  ShardedDecisionStore reloaded({.dir = dir_, .shards = 2});
  (void)reloaded.load();
  EXPECT_EQ(reloaded.get("App/a")->invocations, 99u);
  EXPECT_EQ(reloaded.get("App/b")->invocations, 1u);
}

// The satellite this file exists for: a crash at either flush phase
// leaves the shard file old-or-new-complete, never torn, and the next
// drain retries the lost work.
TEST_F(DecisionStoreTest, AbandonedFlushLeavesOldCompleteFile) {
  for (const auto phase : {ShardedDecisionStore::FlushPhase::kTempWrite,
                           ShardedDecisionStore::FlushPhase::kRename}) {
    const std::string dir =
        dir_ + (phase == ShardedDecisionStore::FlushPhase::kTempWrite ? ".tw"
                                                                      : ".rn");
    ShardedDecisionStore store({.dir = dir, .shards = 1});
    (void)store.load();
    store.put(decision("App/a", 1));
    ASSERT_EQ(store.drain(), 1u);
    const std::string old_doc = read_file(store.shard_path(0));
    ASSERT_FALSE(old_doc.empty());

    // Crash every flush at `phase`: the visible file must not change.
    store.set_flush_failure_hook(
        [phase](std::size_t, ShardedDecisionStore::FlushPhase p) {
          return p == phase;
        });
    store.put(decision("App/a", 50));
    store.put(decision("App/b", 2));
    EXPECT_EQ(store.drain(), 0u);
    EXPECT_GE(store.flush_failures(), 1u);
    EXPECT_EQ(read_file(store.shard_path(0)), old_doc)
        << "abandoned flush must leave the old complete document";
    // Whatever is on disk warm-starts a fresh store (the .tmp leftover —
    // torn for kTempWrite, complete for kRename — is ignored).
    {
      ShardedDecisionStore crashed({.dir = dir, .shards = 1});
      std::string err;
      EXPECT_EQ(crashed.load(&err), 1u) << err;
      ASSERT_TRUE(crashed.get("App/a").has_value());
      EXPECT_EQ(crashed.get("App/a")->invocations, 1u);
      EXPECT_FALSE(crashed.get("App/b").has_value());
    }

    // The failed sites stayed dirty: clearing the fault and draining
    // again lands the new document atomically.
    store.set_flush_failure_hook(nullptr);
    EXPECT_EQ(store.drain(), 1u);
    ShardedDecisionStore recovered({.dir = dir, .shards = 1});
    (void)recovered.load();
    EXPECT_EQ(recovered.get("App/a")->invocations, 50u);
    ASSERT_TRUE(recovered.get("App/b").has_value());
    EXPECT_EQ(recovered.get("App/b")->invocations, 2u);
    fs::remove_all(dir);
  }
}

TEST_F(DecisionStoreTest, ConcurrentDrainsNeverTearAShard) {
  // The runtime's maintenance thread and an explicit
  // Runtime::flush_decisions() may drain at the same time. Both writing
  // one shard's temp file would fail a rename or tear the document.
  ShardedDecisionStore store({.dir = dir_, .shards = 1});
  (void)store.load();
  constexpr int kRounds = 40;
  const auto writer = [&](const std::string& site) {
    for (int k = 1; k <= kRounds; ++k) {
      store.put(decision(site, static_cast<std::uint64_t>(k)));
      (void)store.drain();
    }
  };
  std::thread a(writer, "App/a");
  std::thread b(writer, "App/b");
  a.join();
  b.join();
  (void)store.drain();
  EXPECT_EQ(store.flush_failures(), 0u);
  ShardedDecisionStore reloaded({.dir = dir_, .shards = 1});
  std::string err;
  EXPECT_EQ(reloaded.load(&err), 2u) << err;
  EXPECT_EQ(reloaded.get("App/a")->invocations,
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(reloaded.get("App/b")->invocations,
            static_cast<std::uint64_t>(kRounds));
}

TEST_F(DecisionStoreTest, MalformedShardIsAColdStartNotAnError) {
  {
    ShardedDecisionStore store({.dir = dir_, .shards = 2});
    (void)store.load();
    store.put(decision("App/a", 7));
    store.put(decision("App/b", 8));
    (void)store.drain();
  }
  // Corrupt one shard file wholesale; the other must still load.
  const std::size_t corrupt =
      ShardedDecisionStore({.dir = dir_, .shards = 2}).shard_of("App/a");
  {
    std::ofstream f(dir_ + "/shard-" + std::to_string(corrupt) + ".json");
    f << "{ not json";
  }
  ShardedDecisionStore reloaded({.dir = dir_, .shards = 2});
  std::string err;
  const std::size_t n = reloaded.load(&err);
  if (reloaded.shard_of("App/a") == reloaded.shard_of("App/b")) {
    EXPECT_EQ(n, 0u);  // both entries lived in the corrupted shard
  } else {
    EXPECT_EQ(n, 1u);
    EXPECT_TRUE(reloaded.get("App/b").has_value());
  }
  EXPECT_FALSE(err.empty()) << "skipped shards should be described";
}

TEST_F(DecisionStoreTest, EntriesRehomeWhenShardCountChanges) {
  {
    ShardedDecisionStore store({.dir = dir_, .shards = 1});
    (void)store.load();
    for (int i = 0; i < 16; ++i)
      store.put(decision("App/s" + std::to_string(i), 1));
    (void)store.drain();
  }
  // Same directory, eight shards: every entry must surface, and a drain
  // must migrate the layout so a third store finds them in home shards.
  {
    ShardedDecisionStore store({.dir = dir_, .shards = 8});
    std::string err;
    EXPECT_EQ(store.load(&err), 16u) << err;
    for (int i = 0; i < 16; ++i)
      EXPECT_TRUE(store.get("App/s" + std::to_string(i)).has_value()) << i;
    EXPECT_GT(store.dirty_count(), 0u) << "re-homed entries marked dirty";
    EXPECT_GT(store.drain(), 0u);
  }
  ShardedDecisionStore reloaded({.dir = dir_, .shards = 8});
  EXPECT_EQ(reloaded.load(), 16u);
  for (int i = 0; i < 16; ++i) {
    const std::string site = "App/s" + std::to_string(i);
    const std::string home = read_file(reloaded.shard_path(reloaded.shard_of(site)));
    EXPECT_NE(home.find("\"" + site + "\""), std::string::npos)
        << site << " should live in its home shard after migration";
  }
}

TEST_F(DecisionStoreTest, ShardCountIsClamped) {
  EXPECT_EQ(ShardedDecisionStore({.dir = "", .shards = 0}).shard_count(), 1u);
  EXPECT_EQ(ShardedDecisionStore({.dir = "", .shards = 10000}).shard_count(),
            256u);
}

}  // namespace
}  // namespace sapp
