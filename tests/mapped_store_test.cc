// Tests for the mmap-able store format v4 and its serving lifecycle.
//
// Three layers of guarantees:
//
//   bytes  — WriteV4 → Map → Materialize round-trips content, plans,
//            and the store version bit-identically; mapped spans view
//            the exact term/weight/norm bits of their heap twins;
//            FromStore's anonymous image holds exactly the bytes Save
//            writes.
//   views  — FromMapped/MappedShard snapshots resolve lookups zero-copy
//            through EntryRef; shard views partition the file exactly
//            as the ShardFilter assigns its keys; the mapping's
//            shared_ptr lifetime outlives any snapshot or unlink.
//   serving — a node on a mapped snapshot (file or image) answers
//            bit-identically to a node on the equivalent heap
//            snapshot, across the plan, streaming, materialized and
//            passthrough paths; hot reload retires a mapped snapshot
//            RCU-style (pinned readers keep the old pages); an
//            injected reload fault leaves the node serving the old
//            mapping.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "pipeline/testbed.h"
#include "serving/fault_injector.h"
#include "serving/serving_node.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/strings.h"

namespace optselect {
namespace store {
namespace {

StoredEntry MakeEntry(const std::string& root, size_t n_specs) {
  StoredEntry entry;
  entry.query = root;
  for (size_t s = 0; s < n_specs; ++s) {
    StoredSpecialization sp;
    sp.query = root + " mod" + std::to_string(s);
    sp.probability = 1.0 / static_cast<double>(n_specs);
    sp.surrogates.push_back(text::TermVector::FromEntries(
        {{static_cast<text::TermId>(10 * s), 1.0},
         {static_cast<text::TermId>(10 * s + 3), 0.5}}));
    if (s % 2 == 0) {
      sp.surrogates.push_back(text::TermVector::FromEntries(
          {{static_cast<text::TermId>(100 + s), 2.0}}));
    }
    entry.specializations.push_back(std::move(sp));
  }
  return entry;
}

QueryPlan MakePlan(const StoredEntry& entry, size_t n) {
  QueryPlan plan;
  const size_t m = entry.specializations.size();
  plan.num_candidates_requested = 100;
  plan.threshold_c = 0.0;
  for (size_t j = 0; j < m; ++j) {
    plan.probability.push_back(entry.specializations[j].probability);
    plan.spec_order.push_back(static_cast<uint32_t>(j));
  }
  for (size_t i = 0; i < n; ++i) {
    plan.docs.push_back(static_cast<DocId>(7 * i + 1));
    plan.relevance.push_back(1.0 / static_cast<double>(i + 1));
    for (size_t j = 0; j < m; ++j) {
      plan.utilities.push_back(static_cast<double>(i + j) * 0.125);
    }
    double w = 0.0;
    for (size_t j = 0; j < m; ++j) {
      w += plan.probability[j] * plan.utilities[i * m + j];
    }
    plan.weighted.push_back(w);
  }
  return plan;
}

DiversificationStore MakeStore() {
  DiversificationStore store;
  StoredEntry jaguar = MakeEntry("jaguar", 2);
  jaguar.plan = MakePlan(jaguar, 3);
  EXPECT_TRUE(store.Put(std::move(jaguar)).ok());
  EXPECT_TRUE(store.Put(MakeEntry("apple", 3)).ok());
  EXPECT_TRUE(store.Put(MakeEntry("phoenix", 4)).ok());
  EXPECT_TRUE(store.Put(MakeEntry("mercury", 2)).ok());
  store.set_version(21);
  return store;
}

std::string SaveToTemp(const DiversificationStore& store,
                       const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(store.Save(path).ok());
  return path;
}

/// The file Save writes for `store`, read back whole.
std::string SavedBytes(const DiversificationStore& store,
                       const std::string& name) {
  std::string path = SaveToTemp(store, name);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

/// FromStore(store) must map exactly the bytes Save(store) writes, on a
/// page-aligned base, and index them like Map does.
void ExpectImageMatchesSave(const DiversificationStore& store,
                            const std::string& name) {
  auto image = MappedStoreFile::FromStore(store);
  ASSERT_TRUE(image.ok()) << name << ": " << image.status().ToString();
  const MappedStoreFile& file = *image.value();
  const std::string saved = SavedBytes(store, name);
  EXPECT_EQ(file.mapped_bytes(), saved.size()) << name;
  EXPECT_TRUE(file.bytes() == saved) << name << ": image bytes differ";
  const auto base = reinterpret_cast<uintptr_t>(file.bytes().data());
  EXPECT_EQ(base % static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE)), 0u)
      << name;
  EXPECT_EQ(file.store_version(), store.version()) << name;
  ASSERT_EQ(file.entry_count(), store.size()) << name;
  for (const auto& [key, entry] : store.entries()) {
    const MappedEntry* mapped = file.FindEntry(key);
    ASSERT_NE(mapped, nullptr) << name << ": " << key;
    EXPECT_EQ(mapped->has_plan, !entry.plan.empty()) << name << ": " << key;
  }
}

// ------------------------------------------------------------- bytes

TEST(MappedStoreTest, MapMaterializeRoundTripsBitIdentically) {
  DiversificationStore store = MakeStore();
  std::string path = SaveToTemp(store, "roundtrip_v4.bin");

  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const MappedStoreFile& file = *mapped.value();
  EXPECT_EQ(file.store_version(), 21u);
  EXPECT_EQ(file.entry_count(), store.size());

  DiversificationStore back = file.Materialize();
  EXPECT_EQ(back.version(), 21u);
  ASSERT_EQ(back.size(), store.size());
  for (const auto& [key, entry] : store.entries()) {
    const StoredEntry* re = back.Find(key);
    ASSERT_NE(re, nullptr) << key;
    EXPECT_TRUE(StoredEntriesEqual(*re, entry)) << key;
    ASSERT_EQ(re->plan.empty(), entry.plan.empty()) << key;
    if (!entry.plan.empty()) {
      EXPECT_EQ(re->plan.docs, entry.plan.docs);
      EXPECT_EQ(re->plan.relevance, entry.plan.relevance);
      EXPECT_EQ(re->plan.probability, entry.plan.probability);
      EXPECT_EQ(re->plan.spec_order, entry.plan.spec_order);
      EXPECT_EQ(re->plan.utilities, entry.plan.utilities);
      EXPECT_EQ(re->plan.weighted, entry.plan.weighted);
    }
  }
  std::remove(path.c_str());
}

TEST(MappedStoreTest, MappedSpansViewTheHeapBitsExactly) {
  DiversificationStore store = MakeStore();
  std::string path = SaveToTemp(store, "spans_v4.bin");
  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  for (const auto& [key, entry] : store.entries()) {
    const MappedEntry* me = mapped.value()->FindEntry(key);
    ASSERT_NE(me, nullptr) << key;
    EXPECT_EQ(me->key, key);
    EXPECT_EQ(me->query, entry.query);
    ASSERT_EQ(me->specializations.size(), entry.specializations.size());
    for (size_t j = 0; j < entry.specializations.size(); ++j) {
      const StoredSpecialization& hs = entry.specializations[j];
      const MappedSpecialization& ms = me->specializations[j];
      EXPECT_EQ(ms.query, hs.query);
      EXPECT_EQ(ms.probability, hs.probability);
      EXPECT_EQ(me->probability_column[j], hs.probability)
          << "probability column must duplicate the spec probabilities";
      ASSERT_EQ(ms.surrogates.size(), hs.surrogates.size());
      for (size_t r = 0; r < hs.surrogates.size(); ++r) {
        const text::TermVector& hv = hs.surrogates[r];
        const text::TermVectorSpan& span = ms.surrogates[r];
        ASSERT_EQ(span.size, hv.size());
        EXPECT_EQ(span.norm, hv.norm()) << "norm must carry exact bits";
        for (size_t t = 0; t < hv.size(); ++t) {
          EXPECT_EQ(span.terms[t], hv.entries()[t].first);
          EXPECT_EQ(span.weights[t], hv.entries()[t].second);
        }
      }
    }
  }
  EXPECT_EQ(mapped.value()->FindEntry("never stored"), nullptr);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- views

TEST(MappedStoreTest, FromMappedSnapshotFindsEntriesZeroCopy) {
  DiversificationStore store = MakeStore();
  std::string path = SaveToTemp(store, "snapshot_v4.bin");
  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok());

  auto snapshot = StoreSnapshot::FromMapped(mapped.value());
  EXPECT_TRUE(snapshot->mapped());
  EXPECT_EQ(snapshot->version(), 21u);
  EXPECT_EQ(snapshot->entry_count(), store.size());

  EntryRef ref = snapshot->Find("jaguar");
  ASSERT_TRUE(static_cast<bool>(ref));
  EXPECT_TRUE(ref.mapped());
  EXPECT_EQ(ref.num_specializations(), 2u);
  EXPECT_EQ(ref.spec_probability(0), 0.5);
  EXPECT_EQ(ref.heap_surrogates(0), nullptr);
  ASSERT_NE(ref.spec_spans(0), nullptr);
  EXPECT_TRUE(ref.HasCompatiblePlan(100, 0.0));
  EXPECT_FALSE(ref.HasCompatiblePlan(100, 0.5));
  EXPECT_FALSE(ref.HasCompatiblePlan(17, 0.0));
  EXPECT_EQ(ref.PlanNumCandidates(), 3u);
  EXPECT_EQ(ref.PlanNumSpecializations(), 2u);
  EXPECT_EQ(ref.PlanDocs()[0], 1u);

  EXPECT_FALSE(static_cast<bool>(snapshot->Find("never stored")));

  // ToProfiles materializes the same profile a heap entry produces.
  auto heap_profiles =
      DiversificationStore::ToProfiles(*store.Find("jaguar"));
  auto mapped_profiles = ref.ToProfiles();
  ASSERT_EQ(mapped_profiles.size(), heap_profiles.size());
  for (size_t j = 0; j < heap_profiles.size(); ++j) {
    EXPECT_EQ(mapped_profiles[j].probability, heap_profiles[j].probability);
    ASSERT_EQ(mapped_profiles[j].results.size(),
              heap_profiles[j].results.size());
    for (size_t r = 0; r < heap_profiles[j].results.size(); ++r) {
      EXPECT_EQ(mapped_profiles[j].results[r].entries(),
                heap_profiles[j].results[r].entries());
    }
  }

  // store() lazily materializes a heap copy with identical content.
  const DiversificationStore& lazy = snapshot->store();
  EXPECT_EQ(lazy.size(), store.size());
  EXPECT_EQ(lazy.version(), 21u);
  for (const auto& [key, entry] : store.entries()) {
    ASSERT_NE(lazy.Find(key), nullptr) << key;
    EXPECT_TRUE(StoredEntriesEqual(*lazy.Find(key), entry)) << key;
  }
  std::remove(path.c_str());
}

TEST(MappedStoreTest, MappedShardViewsPartitionTheStore) {
  DiversificationStore store = MakeStore();
  std::string path = SaveToTemp(store, "shards_v4.bin");
  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok());

  const size_t n = 3;
  std::vector<std::shared_ptr<const StoreSnapshot>> shards;
  std::vector<ShardFilter> filters(n);
  for (size_t i = 0; i < n; ++i) {
    filters[i].num_shards = n;
    filters[i].shard_index = i;
    shards.push_back(StoreSnapshot::MappedShard(
        mapped.value(), [filter = filters[i]](std::string_view key) {
          return filter.Keeps(key);
        }));
  }

  // Disjoint partition: every key on exactly one shard, and the shard
  // view agrees with the filter.
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += shards[i]->entry_count();
    size_t kept = 0;
    for (const auto& [key, entry] : store.entries()) {
      kept += filters[i].Keeps(key) ? 1 : 0;
      EXPECT_EQ(static_cast<bool>(shards[i]->Find(key)),
                filters[i].Keeps(key))
          << "shard " << i << " key " << key;
    }
    EXPECT_EQ(shards[i]->entry_count(), kept) << i;
  }
  EXPECT_EQ(total, store.size());

  // Replication: a replicated key becomes visible on every shard.
  ShardFilter replicated = filters[0];
  replicated.replicated.insert("phoenix");
  auto replica_view = StoreSnapshot::MappedShard(
      mapped.value(), [replicated](std::string_view key) {
        return replicated.Keeps(key);
      });
  EXPECT_TRUE(static_cast<bool>(replica_view->Find("phoenix")));

  // A shard's lazy store() materializes only its slice.
  const DiversificationStore& slice = shards[0]->store();
  EXPECT_EQ(slice.size(), shards[0]->entry_count());
  for (const auto& [key, entry] : slice.entries()) {
    EXPECT_TRUE(filters[0].Keeps(key)) << key;
  }
  std::remove(path.c_str());
}

TEST(MappedStoreTest, MissingPlanCountMatchesServingCompatibility) {
  DiversificationStore store = MakeStore();  // only "jaguar" has a plan
  std::string path = SaveToTemp(store, "plans_v4.bin");
  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok());

  // The plan was compiled at candidates=100, c=0.0 (MakePlan).
  EXPECT_EQ(mapped.value()->MissingPlanCount(100, 0.0), store.size() - 1);
  // Mismatched serving params make every entry plan-less.
  EXPECT_EQ(mapped.value()->MissingPlanCount(100, 0.5), store.size());
  EXPECT_EQ(mapped.value()->MissingPlanCount(42, 0.0), store.size());
  std::remove(path.c_str());
}

TEST(MappedStoreTest, WarmupAppliesAndFallsBackGracefully) {
  DiversificationStore store = MakeStore();
  std::string path = SaveToTemp(store, "warmup_v4.bin");
  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok());

  MapWarmupOutcome none = mapped.value()->Warm(MapWarmup::kNone);
  EXPECT_EQ(none.applied, MapWarmup::kNone);
  EXPECT_FALSE(none.fell_back);

  MapWarmupOutcome madvised = mapped.value()->Warm(MapWarmup::kMadvise);
  EXPECT_EQ(madvised.applied, MapWarmup::kMadvise);
  EXPECT_FALSE(madvised.fell_back);

  // mlock either pins the pages or (RLIMIT_MEMLOCK / no CAP_IPC_LOCK)
  // falls back to madvise with the refusal recorded — never a failure.
  MapWarmupOutcome locked = mapped.value()->Warm(MapWarmup::kMlock);
  if (locked.fell_back) {
    EXPECT_EQ(locked.applied, MapWarmup::kMadvise);
    EXPECT_FALSE(locked.detail.empty());
  } else {
    EXPECT_EQ(locked.applied, MapWarmup::kMlock);
  }
  // Warmed or not, the mapping serves identically.
  EXPECT_NE(mapped.value()->FindEntry("jaguar"), nullptr);

  MapWarmup parsed = MapWarmup::kNone;
  EXPECT_TRUE(ParseMapWarmup("madvise", &parsed));
  EXPECT_EQ(parsed, MapWarmup::kMadvise);
  EXPECT_TRUE(ParseMapWarmup("mlock", &parsed));
  EXPECT_EQ(parsed, MapWarmup::kMlock);
  EXPECT_TRUE(ParseMapWarmup("none", &parsed));
  EXPECT_EQ(parsed, MapWarmup::kNone);
  EXPECT_FALSE(ParseMapWarmup("always", &parsed));
  EXPECT_FALSE(ParseMapWarmup("", &parsed));
  std::remove(path.c_str());
}

TEST(MappedStoreTest, MappingOutlivesSnapshotsAndUnlink) {
  DiversificationStore store = MakeStore();
  std::string path = SaveToTemp(store, "lifetime_v4.bin");
  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok());

  // Unlink the file: POSIX keeps the pages alive while mapped — exactly
  // how a builder can replace store.bin under a serving node.
  ASSERT_EQ(std::remove(path.c_str()), 0);

  std::shared_ptr<const MappedStoreFile> file = mapped.value();
  auto snapshot = StoreSnapshot::FromMapped(file);
  EntryRef ref = snapshot->Find("apple");
  ASSERT_TRUE(static_cast<bool>(ref));

  // Retire the snapshot; the caller's shared_ptr keeps the mapping (and
  // with it every span the ref hands out) valid.
  snapshot.reset();
  const MappedEntry* entry = file->FindEntry("apple");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->specializations.size(), 3u);
  EXPECT_EQ(entry->specializations[0].surrogates[0].weights[0], 1.0);
}

// ----------------------------------------------------------- serving

class MappedServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    store_ = new DiversificationStore();
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    BuildStore(testbed_->detector(), testbed_->searcher(),
               testbed_->snippets(), testbed_->analyzer(),
               testbed_->corpus().store, roots, {}, store_);
    ASSERT_GE(store_->size(), 2u);
    store_->set_version(5);
    path_ = new std::string(::testing::TempDir() + "/serving_v4.bin");
    ASSERT_TRUE(store_->Save(*path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete store_;
    delete testbed_;
    path_ = nullptr;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  static serving::ServingConfig Config() {
    serving::ServingConfig config;
    config.num_workers = 2;
    config.queue_capacity = 256;
    config.enable_cache = false;  // compare computed rankings, not cache
    config.params.num_candidates = 100;
    config.params.diversify.k = 10;
    return config;
  }

  static std::unique_ptr<serving::ServingNode> MakeNode(
      std::shared_ptr<const StoreSnapshot> snapshot,
      serving::ServingConfig config = Config()) {
    return std::make_unique<serving::ServingNode>(
        std::move(snapshot), &testbed_->searcher(), &testbed_->snippets(),
        &testbed_->analyzer(), &testbed_->corpus().store, config);
  }

  static pipeline::Testbed* testbed_;
  static DiversificationStore* store_;
  static std::string* path_;
};

pipeline::Testbed* MappedServingTest::testbed_ = nullptr;
DiversificationStore* MappedServingTest::store_ = nullptr;
std::string* MappedServingTest::path_ = nullptr;

TEST_F(MappedServingTest, MappedServingIsBitIdenticalToHeap) {
  auto mapped = MappedStoreFile::Map(*path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  auto heap_node = MakeNode(StoreSnapshot::Own(mapped.value()->Materialize()));
  auto mapped_node = MakeNode(StoreSnapshot::FromMapped(mapped.value()));

  // Every stored (ambiguous ⇒ diversified, streaming or plan) query and
  // a noise (passthrough) query must answer identically.
  std::vector<std::string> queries;
  for (const auto& [key, entry] : store_->entries()) queries.push_back(key);
  queries.push_back(testbed_->universe().noise_queries[0]);

  size_t diversified = 0;
  for (const std::string& q : queries) {
    serving::Response heap_result = heap_node->Submit(serving::Request(q));
    serving::Response mapped_result = mapped_node->Submit(serving::Request(q));
    ASSERT_TRUE(heap_result.ok) << q;
    ASSERT_TRUE(mapped_result.ok) << q;
    EXPECT_EQ(mapped_result.diversified, heap_result.diversified) << q;
    EXPECT_EQ(mapped_result.plan_served, heap_result.plan_served) << q;
    EXPECT_EQ(mapped_result.ranking, heap_result.ranking) << q;
    if (heap_result.diversified) ++diversified;
  }
  EXPECT_GE(diversified, 2u) << "test must exercise the diversified path";
  EXPECT_EQ(mapped_node->Stats().store_version,
            heap_node->Stats().store_version);
}

TEST_F(MappedServingTest, FromStoreImagesTheBytesSaveWrites) {
  // The Small-testbed store with plans (version 5), the same entries
  // with plans off, the empty store (a header and a directory only)
  // and the hand-built store (version 21, one plan).
  DiversificationStore plans_off;
  for (const auto& [key, entry] : store_->entries()) {
    StoredEntry copy = entry;
    copy.plan = QueryPlan();
    ASSERT_TRUE(plans_off.Put(std::move(copy)).ok());
  }
  ASSERT_NO_FATAL_FAILURE(ExpectImageMatchesSave(*store_, "image_small.bin"));
  ASSERT_NO_FATAL_FAILURE(
      ExpectImageMatchesSave(plans_off, "image_plans_off.bin"));
  ASSERT_NO_FATAL_FAILURE(
      ExpectImageMatchesSave(DiversificationStore(), "image_empty.bin"));
  ASSERT_NO_FATAL_FAILURE(ExpectImageMatchesSave(MakeStore(), "image.bin"));
}

TEST_F(MappedServingTest, ImageNodeIsBitIdenticalToHeapNode) {
  // Nodes start on images, but every reload swaps in a heap snapshot
  // (BuildSnapshot gives StoreSnapshot::Own), so EntryRef's heap branch
  // must answer exactly like the image on every path.
  auto image = MappedStoreFile::FromStore(*store_);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  std::shared_ptr<const StoreSnapshot> heap = StoreSnapshot::Own(*store_);
  ASSERT_FALSE(heap->mapped());

  std::vector<std::string> queries;
  for (const auto& [key, entry] : store_->entries()) queries.push_back(key);
  const size_t stored = queries.size();
  for (const std::string& noise : testbed_->universe().noise_queries) {
    queries.push_back(noise);
  }

  // The plans were compiled at the default 200 candidates: at 200 the
  // stored queries are plan-served, at Config()'s 100 they take the
  // streaming cold path, and with streaming off the materialized one.
  serving::ServingConfig plan_config = Config();
  plan_config.params.num_candidates = 200;
  serving::ServingConfig materialized_config = Config();
  materialized_config.streaming_cold_path = false;
  for (const serving::ServingConfig& config :
       {plan_config, Config(), materialized_config}) {
    auto image_node = MakeNode(StoreSnapshot::FromMapped(image.value()),
                               config);
    auto heap_node = MakeNode(heap, config);
    ASSERT_TRUE(image_node->snapshot()->mapped());
    size_t diversified = 0, plan_served = 0, streaming_served = 0;
    for (const std::string& q : queries) {
      serving::Response from_image = image_node->Submit(serving::Request(q));
      serving::Response from_heap = heap_node->Submit(serving::Request(q));
      ASSERT_TRUE(from_image.ok) << q;
      ASSERT_TRUE(from_heap.ok) << q;
      EXPECT_EQ(from_image.diversified, from_heap.diversified) << q;
      EXPECT_EQ(from_image.plan_served, from_heap.plan_served) << q;
      EXPECT_EQ(from_image.streaming_served, from_heap.streaming_served)
          << q;
      EXPECT_EQ(from_image.ranking, from_heap.ranking) << q;
      diversified += from_image.diversified;
      plan_served += from_image.plan_served;
      streaming_served += from_image.streaming_served;
    }
    const bool plans = config.params.num_candidates == 200;
    EXPECT_EQ(diversified, stored);
    EXPECT_EQ(plan_served, plans ? stored : 0u);
    EXPECT_EQ(streaming_served,
              !plans && config.streaming_cold_path ? stored : 0u);
    EXPECT_EQ(image_node->Stats().store_version, 5u);
  }
}

TEST_F(MappedServingTest, SlicedServingZeroCopyMatchesHeapSplit) {
  // The `serve --listen --shard-index I --num-shards N` regression: a
  // shard process must serve a MappedShard view over the one shared
  // mapping, bit-identical to a heap copy of the same slice.
  std::shared_ptr<const MappedStoreFile> file;
  {
    auto mapped = MappedStoreFile::Map(*path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    file = mapped.value();
  }
  std::weak_ptr<const MappedStoreFile> watch = file;

  const size_t num_shards = 2;
  std::vector<std::string> queries;
  for (const auto& [key, entry] : store_->entries()) queries.push_back(key);
  queries.push_back(testbed_->universe().noise_queries[0]);

  size_t diversified = 0;
  std::vector<std::shared_ptr<const StoreSnapshot>> views;
  for (size_t i = 0; i < num_shards; ++i) {
    ShardFilter filter;
    filter.num_shards = num_shards;
    filter.shard_index = i;
    auto view = StoreSnapshot::MappedShard(
        file, [filter](std::string_view key) { return filter.Keeps(key); });
    DiversificationStore slice = *store_;
    for (const auto& [key, entry] : store_->entries()) {
      if (!filter.Keeps(key)) slice.Remove(key);
    }
    ASSERT_EQ(view->entry_count(), slice.size()) << i;

    auto mapped_node = MakeNode(view);
    auto heap_node = MakeNode(StoreSnapshot::Own(std::move(slice)));
    ASSERT_TRUE(mapped_node->snapshot()->mapped());
    // The view shares the caller's mapping — no remap, no copy.
    EXPECT_EQ(mapped_node->snapshot()->mapped_file().get(), file.get());

    // Every query (owned here, owned elsewhere, never stored) answers
    // bit-identically: misses pass through, hits serve off the slice.
    for (const std::string& q : queries) {
      serving::Response from_view = mapped_node->Submit(serving::Request(q));
      serving::Response from_copy = heap_node->Submit(serving::Request(q));
      ASSERT_TRUE(from_view.ok) << q;
      ASSERT_TRUE(from_copy.ok) << q;
      EXPECT_EQ(from_view.diversified, from_copy.diversified) << q;
      EXPECT_EQ(from_view.plan_served, from_copy.plan_served) << q;
      EXPECT_EQ(from_view.ranking, from_copy.ranking) << q;
      if (from_view.diversified) ++diversified;
    }
    views.push_back(mapped_node->snapshot());
  }
  EXPECT_GE(diversified, 2u) << "slices must exercise the diversified path";

  // Both shard views pin the one mapping; it stays alive past the
  // caller's handle and dies only when the last view drops.
  file.reset();
  EXPECT_FALSE(watch.expired());
  views.clear();
  EXPECT_TRUE(watch.expired());
}

TEST_F(MappedServingTest, SharedShardViewsSurviveUnlinkAndReload) {
  // Two "processes" (nodes) over one mapping: the store file vanishes
  // under them, one hot-reloads away — the other keeps serving off the
  // shared pages until it is the last reader.
  std::string copy = ::testing::TempDir() + "/serving_unlink_v4.bin";
  ASSERT_TRUE(store_->Save(copy).ok());
  std::shared_ptr<const MappedStoreFile> file;
  {
    auto mapped = MappedStoreFile::Map(copy);
    ASSERT_TRUE(mapped.ok());
    file = mapped.value();
  }
  std::weak_ptr<const MappedStoreFile> watch = file;

  // An even/odd key split (rather than the hash partition, tested
  // above) guarantees both views are non-empty for any store >= 2.
  std::vector<std::string> keys;
  for (const auto& [key, entry] : store_->entries()) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::unordered_set<std::string> evens;
  for (size_t i = 0; i < keys.size(); i += 2) evens.insert(keys[i]);
  auto node0 = MakeNode(StoreSnapshot::MappedShard(
      file, [evens](std::string_view key) {
        return evens.count(std::string(key)) > 0;
      }));
  auto node1 = MakeNode(StoreSnapshot::MappedShard(
      file, [evens](std::string_view key) {
        return evens.count(std::string(key)) == 0;
      }));
  const std::string key0 = keys[0];
  const std::string key1 = keys[1];
  file.reset();  // nodes now hold the only references

  // A builder replacing store.bin unlinks it under the fleet; POSIX
  // keeps the mapped pages alive for every process still serving.
  ASSERT_EQ(std::remove(copy.c_str()), 0);
  EXPECT_TRUE(node0->Submit(serving::Request(key0)).diversified);
  EXPECT_TRUE(node1->Submit(serving::Request(key1)).diversified);

  // Shard 0 RCU-reloads onto a heap snapshot: the mapping must survive
  // for shard 1, then release once shard 1 drops too.
  StoreDelta delta;
  delta.upserts.push_back(MakeEntry("reload probe query", 2));
  SnapshotBuildResult built =
      BuildSnapshot(node0->snapshot().get(), delta);
  ASSERT_TRUE(node0->ReloadStore(built.snapshot, built.changed_keys).ok);
  EXPECT_FALSE(node0->snapshot()->mapped());
  EXPECT_FALSE(watch.expired())
      << "shard 1 still serves off the shared mapping";
  EXPECT_TRUE(node1->Submit(serving::Request(key1)).diversified);

  node0.reset();
  EXPECT_FALSE(watch.expired());
  node1.reset();
  EXPECT_TRUE(watch.expired())
      << "the last shard view must release the mapping";
}

TEST_F(MappedServingTest, HotReloadRetiresMappedSnapshotRcuStyle) {
  std::shared_ptr<const MappedStoreFile> file;
  {
    auto mapped = MappedStoreFile::Map(*path_);
    ASSERT_TRUE(mapped.ok());
    file = mapped.value();
  }
  std::weak_ptr<const MappedStoreFile> watch = file;
  auto node = MakeNode(StoreSnapshot::FromMapped(file));
  std::string stored_key = store_->entries().begin()->first;

  // A "request in flight": pin the mapped snapshot like a worker batch
  // does, and hold a span into the mapped pages across the swap.
  std::shared_ptr<const StoreSnapshot> pinned = node->snapshot();
  EntryRef pinned_ref = pinned->Find(stored_key);
  ASSERT_TRUE(pinned_ref.mapped());
  const std::vector<text::TermVectorSpan>* spans = pinned_ref.spec_spans(0);
  ASSERT_NE(spans, nullptr);

  // Swap to a delta-built heap snapshot (the refresher path: the mapped
  // base materializes lazily inside BuildSnapshot).
  StoreDelta delta;
  delta.upserts.push_back(MakeEntry("brand new query", 2));
  SnapshotBuildResult built = BuildSnapshot(pinned.get(), delta);
  ASSERT_EQ(built.changed_keys.size(), 1u);
  serving::ServingNode::ReloadOutcome outcome =
      node->ReloadStore(built.snapshot, built.changed_keys);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.new_version, 6u);

  // The pinned snapshot still reads the old mapped pages after the
  // swap; new requests see the new content.
  EXPECT_EQ(pinned->version(), 5u);
  ASSERT_FALSE(spans->empty());
  EXPECT_GT((*spans)[0].size, 0u);
  EXPECT_TRUE(static_cast<bool>(node->snapshot()->Find("brand new query")));

  // Drop every reference: node's new snapshot is heap-backed, and the
  // local shared_ptrs go away — the mapping must actually unmap (the
  // RCU reclamation point).
  file.reset();
  pinned.reset();
  node.reset();
  EXPECT_TRUE(watch.expired())
      << "dropping the last reader must release the mapping";
}

TEST_F(MappedServingTest, ReloadFaultLeavesNodeOnOldMapping) {
  auto mapped = MappedStoreFile::Map(*path_);
  ASSERT_TRUE(mapped.ok());
  auto node = MakeNode(StoreSnapshot::FromMapped(mapped.value()));
  std::string stored_key = store_->entries().begin()->first;

  serving::ScriptedFaultInjector injector;
  node->set_fault_injector(&injector);
  injector.SetFailReloads(true);

  StoreDelta delta;
  delta.upserts.push_back(MakeEntry("chaos query", 2));
  SnapshotBuildResult built =
      BuildSnapshot(node->snapshot().get(), delta);
  serving::ServingNode::ReloadOutcome refused =
      node->ReloadStore(built.snapshot, built.changed_keys);
  EXPECT_FALSE(refused.ok);

  // The refused swap leaves the node on the mapped snapshot, still
  // serving correctly off the mapped pages.
  EXPECT_TRUE(node->snapshot()->mapped());
  EXPECT_EQ(node->snapshot()->version(), 5u);
  serving::Response result = node->Submit(serving::Request(stored_key));
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.diversified);

  // Clearing the fault lets the retry land.
  injector.SetFailReloads(false);
  serving::ServingNode::ReloadOutcome landed =
      node->ReloadStore(built.snapshot, built.changed_keys);
  EXPECT_TRUE(landed.ok);
  EXPECT_FALSE(node->snapshot()->mapped());
  EXPECT_EQ(node->snapshot()->version(), 6u);
  node->set_fault_injector(nullptr);
}

}  // namespace
}  // namespace store
}  // namespace optselect
