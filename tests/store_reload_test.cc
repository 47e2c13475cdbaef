// Tests for the live store lifecycle: versioned snapshots (the content
// version Save persists), delta snapshot builds with changed-key
// tracking, ServingNode hot reload (per-key cache invalidation,
// bit-identical unchanged rankings, zero failures under concurrent
// swaps), and the StoreRefresher ingest → mine → swap tick.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/testbed.h"
#include "serving/serving_node.h"
#include "serving/store_refresher.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/hash.h"

namespace optselect {
namespace store {
namespace {

StoredEntry MakeEntry(const std::string& root, size_t n_specs,
                      double first_prob_scale = 1.0) {
  StoredEntry entry;
  entry.query = root;
  double norm = 0;
  std::vector<double> probs;
  for (size_t s = 0; s < n_specs; ++s) {
    double p = (s == 0 ? first_prob_scale : 1.0) /
               static_cast<double>(n_specs);
    probs.push_back(p);
    norm += p;
  }
  for (size_t s = 0; s < n_specs; ++s) {
    StoredSpecialization sp;
    sp.query = root + " mod" + std::to_string(s);
    sp.probability = probs[s] / norm;
    sp.surrogates.push_back(text::TermVector::FromEntries(
        {{static_cast<text::TermId>(10 * s), 1.0}}));
    entry.specializations.push_back(std::move(sp));
  }
  return entry;
}

// ----------------------------------------------------- format versioning

TEST(StoreVersionTest, SaveLoadRoundTripsContentVersion) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("apple", 2)).ok());
  store.set_version(41);
  std::string path = ::testing::TempDir() + "/store_v2.bin";
  ASSERT_TRUE(store.Save(path).ok());

  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  DiversificationStore loaded = mapped.value()->Materialize();
  EXPECT_EQ(loaded.version(), 41u);
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
}

// Legacy v1-format *bytes* (including the legacy checksum basis) are
// covered by the checked-in golden fixture tests/data/store_v1.bin in
// tests/store_backcompat_test.cc.

TEST(StoreVersionTest, RemoveDropsNormalizedKey) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("New  York", 2)).ok());
  EXPECT_FALSE(store.Remove("boston"));
  EXPECT_TRUE(store.Remove("  NEW york "));
  EXPECT_TRUE(store.empty());
}

TEST(StoreVersionTest, StoredEntriesEqualComparesDeeply) {
  StoredEntry a = MakeEntry("apple", 2);
  EXPECT_TRUE(StoredEntriesEqual(a, MakeEntry("apple", 2)));
  EXPECT_FALSE(StoredEntriesEqual(a, MakeEntry("apple", 3)));
  EXPECT_FALSE(StoredEntriesEqual(a, MakeEntry("apple", 2, 2.0)));
  StoredEntry c = MakeEntry("apple", 2);
  c.specializations[1].surrogates[0] =
      text::TermVector::FromEntries({{99, 1.0}});
  EXPECT_FALSE(StoredEntriesEqual(a, c));
}

// -------------------------------------------------------- BuildSnapshot

TEST(BuildSnapshotTest, AppliesDeltaAndTracksChangedKeys) {
  DiversificationStore base;
  ASSERT_TRUE(base.Put(MakeEntry("apple", 2)).ok());
  ASSERT_TRUE(base.Put(MakeEntry("jaguar", 2)).ok());
  ASSERT_TRUE(base.Put(MakeEntry("leopard", 2)).ok());
  base.set_version(7);
  auto snapshot = StoreSnapshot::Own(std::move(base));

  StoreDelta delta;
  delta.upserts.push_back(MakeEntry("apple", 2, 3.0));  // changed probs
  delta.upserts.push_back(MakeEntry("jaguar", 2));      // identical
  delta.upserts.push_back(MakeEntry("phoenix", 3));     // new entry
  delta.removals.push_back("leopard");
  delta.removals.push_back("never stored");

  SnapshotBuildResult built = BuildSnapshot(snapshot.get(), delta);
  EXPECT_EQ(built.snapshot->version(), 8u);
  EXPECT_EQ(built.upserts_applied, 2u);
  EXPECT_EQ(built.removals_applied, 1u);
  EXPECT_EQ(built.unchanged_skipped, 1u);
  EXPECT_EQ(built.changed_keys,
            (std::vector<std::string>{"apple", "leopard", "phoenix"}));

  const DiversificationStore& next = built.snapshot->store();
  EXPECT_EQ(next.size(), 3u);  // apple, jaguar, phoenix
  EXPECT_EQ(next.Find("leopard"), nullptr);
  ASSERT_NE(next.Find("phoenix"), nullptr);
  // The base snapshot is untouched (immutability across the rebuild).
  EXPECT_EQ(snapshot->version(), 7u);
  EXPECT_NE(snapshot->store().Find("leopard"), nullptr);
}

TEST(BuildSnapshotTest, SubAmbiguousUpsertActsAsRemoval) {
  DiversificationStore base;
  ASSERT_TRUE(base.Put(MakeEntry("apple", 2)).ok());
  auto snapshot = StoreSnapshot::Own(std::move(base));

  StoreDelta delta;
  delta.upserts.push_back(MakeEntry("apple", 1));  // < 2 specializations
  SnapshotBuildResult built = BuildSnapshot(snapshot.get(), delta);
  EXPECT_EQ(built.snapshot->store().Find("apple"), nullptr);
  EXPECT_EQ(built.removals_applied, 1u);
  EXPECT_EQ(built.changed_keys, (std::vector<std::string>{"apple"}));
}

TEST(BuildSnapshotTest, NullBaseStartsEmptyAtVersionOne) {
  StoreDelta delta;
  delta.upserts.push_back(MakeEntry("apple", 2));
  SnapshotBuildResult built = BuildSnapshot(nullptr, delta);
  EXPECT_EQ(built.snapshot->version(), 1u);
  EXPECT_EQ(built.snapshot->store().size(), 1u);
}

}  // namespace
}  // namespace store

// ------------------------------------------------- serving-tier reload

namespace serving {
namespace {

class StoreReloadServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    store::DiversificationStore base;
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    store::BuildStore(testbed_->detector(), testbed_->searcher(),
                      testbed_->snippets(), testbed_->analyzer(),
                      testbed_->corpus().store, roots, {}, &base);
    ASSERT_GE(base.size(), 2u);
    // Nodes start on the store's v4 image, as in production; every
    // reload below swaps in a heap snapshot built by BuildSnapshot.
    auto image = store::MappedStoreFile::FromStore(base);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    snapshot_ = new std::shared_ptr<const store::StoreSnapshot>(
        store::StoreSnapshot::FromMapped(std::move(image).value()));

    // Two stored keys: `target` is the one the reload changes, `pinned`
    // must survive every swap bit-identically.
    for (const auto& [key, entry] : (*snapshot_)->store().entries()) {
      if (target_key_->empty() || key < *target_key_) *target_key_ = key;
    }
    for (const auto& [key, entry] : (*snapshot_)->store().entries()) {
      if (key != *target_key_ &&
          (pinned_key_->empty() || key < *pinned_key_)) {
        *pinned_key_ = key;
      }
    }
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete testbed_;
    snapshot_ = nullptr;
    testbed_ = nullptr;
  }

  static ServingConfig BaseConfig() {
    ServingConfig config;
    config.num_workers = 2;
    config.queue_capacity = 512;
    config.params.num_candidates = 100;
    config.params.diversify.k = 10;
    return config;
  }

  static ServingNode MakeNode(ServingConfig config) {
    return ServingNode(*snapshot_, &testbed_->searcher(),
                       &testbed_->snippets(), &testbed_->analyzer(),
                       &testbed_->corpus().store, config);
  }

  /// A delta that rescales the target entry's specialization
  /// distribution by `scale`; 1.0 upserts a bit-identical copy of the
  /// base entry (the "refresh found nothing new" case).
  static store::StoreDelta TargetDelta(double scale) {
    store::StoreDelta delta;
    store::StoredEntry entry =
        *(*snapshot_)->store().Find(*target_key_);
    if (scale != 1.0) {
      entry.specializations[0].probability *= scale;
      double norm = 0;
      for (const auto& sp : entry.specializations) norm += sp.probability;
      for (auto& sp : entry.specializations) sp.probability /= norm;
    }
    delta.upserts.push_back(std::move(entry));
    return delta;
  }

  static pipeline::Testbed* testbed_;
  static std::shared_ptr<const store::StoreSnapshot>* snapshot_;
  static std::string* target_key_;
  static std::string* pinned_key_;
};

pipeline::Testbed* StoreReloadServingTest::testbed_ = nullptr;
std::shared_ptr<const store::StoreSnapshot>*
    StoreReloadServingTest::snapshot_ = nullptr;
std::string* StoreReloadServingTest::target_key_ = new std::string();
std::string* StoreReloadServingTest::pinned_key_ = new std::string();

TEST_F(StoreReloadServingTest, ReloadInvalidatesOnlyChangedKeys) {
  ServingNode node = MakeNode(BaseConfig());

  Response target_before = node.Submit(Request(*target_key_));
  Response pinned_before = node.Submit(Request(*pinned_key_));
  ASSERT_TRUE(target_before.ok);
  ASSERT_TRUE(pinned_before.ok);
  // Warm the cache for both.
  ASSERT_TRUE(node.Submit(Request(*target_key_)).cache_hit);
  ASSERT_TRUE(node.Submit(Request(*pinned_key_)).cache_hit);

  store::SnapshotBuildResult built =
      store::BuildSnapshot(node.snapshot().get(), TargetDelta(0.25));
  ASSERT_EQ(built.changed_keys, (std::vector<std::string>{*target_key_}));
  ServingNode::ReloadOutcome outcome =
      node.ReloadStore(built.snapshot, built.changed_keys);
  EXPECT_EQ(outcome.old_version, 0u);
  EXPECT_EQ(outcome.new_version, 1u);
  EXPECT_EQ(outcome.invalidated, 1u);

  // Unchanged key: still served from cache, bit-identical.
  Response pinned_after = node.Submit(Request(*pinned_key_));
  EXPECT_TRUE(pinned_after.cache_hit);
  EXPECT_EQ(pinned_after.ranking, pinned_before.ranking);

  // Changed key: recomputed on the new snapshot.
  Response target_after = node.Submit(Request(*target_key_));
  EXPECT_FALSE(target_after.cache_hit);
  EXPECT_TRUE(target_after.diversified);
  EXPECT_EQ(target_after.store_version, 1u);

  ServingStats stats = node.Stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.store_version, 1u);
  EXPECT_EQ(stats.cache_invalidations, 1u);
}

TEST_F(StoreReloadServingTest, ReloadingIdenticalSnapshotKeepsRankings) {
  ServingNode node = MakeNode(BaseConfig());
  Response before = node.Submit(Request(*target_key_));

  // scale=1.0 re-mines to an identical entry ⇒ nothing changes.
  store::SnapshotBuildResult built =
      store::BuildSnapshot(node.snapshot().get(), TargetDelta(1.0));
  EXPECT_TRUE(built.changed_keys.empty());
  EXPECT_EQ(built.unchanged_skipped, 1u);
  node.ReloadStore(built.snapshot, built.changed_keys);

  Response after = node.Submit(Request(*target_key_));
  EXPECT_TRUE(after.cache_hit);  // nothing was invalidated
  EXPECT_EQ(after.ranking, before.ranking);
}

TEST_F(StoreReloadServingTest, SwapsUnderConcurrentLoadLoseNothing) {
  ServingConfig config = BaseConfig();
  config.num_workers = 2;
  ServingNode node = MakeNode(config);

  std::vector<DocId> pinned_reference =
      node.Submit(Request(*pinned_key_)).ranking;
  ASSERT_FALSE(pinned_reference.empty());

  constexpr size_t kClients = 3;
  constexpr size_t kPerClient = 40;
  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> pinned_mismatches{0};
  std::atomic<bool> stop_swapper{false};

  // Swapper flips the target entry's distribution as fast as it can.
  std::thread swapper([&] {
    bool flip = false;
    while (!stop_swapper.load()) {
      auto cur = node.snapshot();
      store::SnapshotBuildResult built = store::BuildSnapshot(
          cur.get(), TargetDelta(flip ? 0.25 : 1.0));
      flip = !flip;
      node.ReloadStore(built.snapshot, built.changed_keys);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        bool pinned = (c + i) % 2 == 0;
        Response r = node.Submit(Request(pinned ? *pinned_key_ : *target_key_));
        if (r.ok) ok_count.fetch_add(1);
        if (pinned && r.ranking != pinned_reference) {
          pinned_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop_swapper.store(true);
  swapper.join();

  // Zero failed requests, and the unchanged query stayed bit-identical
  // through every swap.
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  EXPECT_EQ(pinned_mismatches.load(), 0u);
  ServingStats stats = node.Stats();
  EXPECT_EQ(stats.completed, kClients * kPerClient + 1);
  EXPECT_GE(stats.reloads, 1u);
  EXPECT_EQ(stats.store_version, stats.reloads);
}

// ------------------------------------------------------- StoreRefresher

TEST_F(StoreReloadServingTest, RefresherTickIngestsMinesAndSwaps) {
  std::string log_path = ::testing::TempDir() + "/refresher_log.tsv";
  ASSERT_TRUE(
      testbed_->log_result().log.SaveTsv(log_path).ok());

  ServingNode node = MakeNode(BaseConfig());
  StoreRefresherConfig rc;
  rc.log_path = log_path;
  StoreRefresher refresher(&node, &testbed_->searcher(),
                           &testbed_->snippets(), &testbed_->analyzer(),
                           &testbed_->corpus().store,
                           testbed_->log_result().log, rc);

  // Tick on an unchanged file: nothing ingested, nothing swapped.
  ASSERT_TRUE(refresher.TickOnce().ok());
  EXPECT_EQ(refresher.stats().ticks, 1u);
  EXPECT_EQ(refresher.stats().ingested_records, 0u);
  EXPECT_EQ(refresher.stats().swaps, 0u);
  EXPECT_EQ(node.Stats().reloads, 0u);

  // Append fresh traffic boosting one specialization of the target
  // entry: its P(q'|q) distribution must shift, so the tick re-mines
  // the root and hot-swaps a new snapshot version.
  const store::StoredEntry* target =
      node.snapshot()->store().Find(*target_key_);
  ASSERT_NE(target, nullptr);
  const std::string boosted = target->specializations.back().query;
  {
    std::ofstream out(log_path, std::ios::app);
    for (int i = 0; i < 400; ++i) {
      out << boosted << "\t9999\t" << (2000000000 + i) << "\t1,2\t\n";
    }
  }
  ASSERT_TRUE(refresher.TickOnce().ok());
  StoreRefresherStats rs = refresher.stats();
  EXPECT_EQ(rs.ticks, 2u);
  EXPECT_EQ(rs.ingested_records, 400u);
  EXPECT_EQ(rs.malformed_lines, 0u);
  EXPECT_EQ(rs.swaps, 1u);
  EXPECT_GE(rs.upserts, 1u);
  EXPECT_EQ(rs.store_version, 1u);
  EXPECT_EQ(node.Stats().store_version, 1u);
  EXPECT_EQ(node.Stats().reloads, 1u);

  // The swapped entry reflects the boost: the boosted specialization's
  // probability strictly increased.
  const store::StoredEntry* before = target;
  const store::StoredEntry* after =
      node.snapshot()->store().Find(*target_key_);
  ASSERT_NE(after, nullptr);
  double prob_before = 0, prob_after = 0;
  for (const auto& sp : before->specializations) {
    if (sp.query == boosted) prob_before = sp.probability;
  }
  for (const auto& sp : after->specializations) {
    if (sp.query == boosted) prob_after = sp.probability;
  }
  EXPECT_GT(prob_after, prob_before);

  std::remove(log_path.c_str());
}

TEST_F(StoreReloadServingTest, RefresherKeyFilterDropsForeignChanges) {
  // Sharded serving: a shard's refresher mines the full dirty set but
  // must apply only the slice its node owns. A reject-all filter is the
  // extreme case — the tick ingests and mines, yet swaps nothing.
  std::string log_path = ::testing::TempDir() + "/filtered_log.tsv";
  ASSERT_TRUE(testbed_->log_result().log.SaveTsv(log_path).ok());

  ServingNode node = MakeNode(BaseConfig());
  StoreRefresherConfig rc;
  rc.log_path = log_path;
  rc.key_filter = [](const std::string&) { return false; };
  StoreRefresher refresher(&node, &testbed_->searcher(),
                           &testbed_->snippets(), &testbed_->analyzer(),
                           &testbed_->corpus().store,
                           testbed_->log_result().log, rc);

  const store::StoredEntry* target =
      node.snapshot()->store().Find(*target_key_);
  ASSERT_NE(target, nullptr);
  const std::string boosted = target->specializations.back().query;
  {
    std::ofstream out(log_path, std::ios::app);
    for (int i = 0; i < 400; ++i) {
      out << boosted << "\t9999\t" << (2000000000 + i) << "\t1,2\t\n";
    }
  }
  ASSERT_TRUE(refresher.TickOnce().ok());
  StoreRefresherStats rs = refresher.stats();
  EXPECT_EQ(rs.ingested_records, 400u);  // the mining half still ran
  EXPECT_EQ(rs.swaps, 0u);               // the delta was fully foreign
  EXPECT_EQ(node.Stats().reloads, 0u);
  EXPECT_EQ(node.Stats().store_version, 0u);

  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace serving
}  // namespace optselect
