// Tests for store-v3 compiled query plans: compile correctness against
// the live utility computation, a parallel build byte-identical to a
// sequential one, bit-identical plan-served rankings,
// binary round-tripping, v2-format backcompat with recompile-on-load,
// stale-plan rejection, and plan preservation through delta snapshot
// builds (only dirty entries recompile).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/optselect.h"
#include "core/utility.h"
#include "pipeline/testbed.h"
#include "serving/serving_node.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/query_plan.h"
#include "store/store_builder.h"
#include "store/store_snapshot.h"
#include "util/hash.h"
#include "util/strings.h"

namespace optselect {
namespace store {
namespace {

class QueryPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    roots_ = new std::vector<std::string>();
    for (const auto& topic : testbed_->universe().topics) {
      roots_->push_back(topic.root_query);
    }
  }
  static void TearDownTestSuite() {
    delete roots_;
    delete testbed_;
    roots_ = nullptr;
    testbed_ = nullptr;
  }

  static PlanCompileOptions PlanOpts() {
    PlanCompileOptions opts;
    opts.num_candidates = 100;
    opts.threshold_c = 0.0;
    return opts;
  }

  /// Builds the store from the testbed roots, with or without plans.
  static DiversificationStore Build(
      bool with_plans, const PlanCompileOptions& plan = PlanOpts()) {
    StoreBuilderOptions options;
    options.compile_plans = with_plans;
    options.plan = plan;
    DiversificationStore store;
    BuildStore(testbed_->detector(), testbed_->searcher(),
               testbed_->snippets(), testbed_->analyzer(),
               testbed_->corpus().store, *roots_, options, &store);
    return store;
  }

  /// `store` as a node serves it: a snapshot over its v4 image.
  static std::shared_ptr<const StoreSnapshot> Image(
      const DiversificationStore& store) {
    auto image = MappedStoreFile::FromStore(store);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    return StoreSnapshot::FromMapped(std::move(image).value());
  }

  static serving::ServingConfig NodeConfig() {
    serving::ServingConfig config;
    config.num_workers = 2;
    config.queue_capacity = 256;
    config.enable_cache = false;
    config.params.num_candidates = PlanOpts().num_candidates;
    config.params.threshold_c = PlanOpts().threshold_c;
    config.params.diversify.k = 10;
    return config;
  }

  static pipeline::Testbed* testbed_;
  static std::vector<std::string>* roots_;
};

pipeline::Testbed* QueryPlanTest::testbed_ = nullptr;
std::vector<std::string>* QueryPlanTest::roots_ = nullptr;

TEST_F(QueryPlanTest, CompiledBlocksMatchLiveComputation) {
  // The compiler fills its blocks with ComputeUtilityRow, as the
  // streaming cold path does; the merge-cosine UtilityComputer::Compute
  // is the independent reference here. Every entry, at the fixture's
  // c = 0 and at a c that zeroes part of the blocks.
  PlanCompileOptions thresholded = PlanOpts();
  thresholded.threshold_c = 0.3;
  size_t zeros_at[2] = {0, 0};
  for (const PlanCompileOptions& opts : {PlanOpts(), thresholded}) {
    SCOPED_TRACE("c = " + std::to_string(opts.threshold_c));
    DiversificationStore store = Build(/*with_plans=*/true, opts);
    ASSERT_GE(store.size(), 2u);
    size_t& zeros = zeros_at[opts.threshold_c > 0 ? 1 : 0];

    for (const auto& [key, entry] : store.entries()) {
      const QueryPlan& plan = entry.plan;
      ASSERT_FALSE(plan.empty()) << key;
      ASSERT_TRUE(plan.SizesConsistent());
      EXPECT_TRUE(plan.CompatibleWith(opts.num_candidates,
                                      opts.threshold_c));
      const size_t n = plan.num_candidates();
      const size_t m = plan.num_specializations();
      ASSERT_EQ(m, entry.specializations.size());

      // Recompute what the materialized serving fallback would: same
      // retrieval, same surrogates, the merge-cosine utility code.
      std::vector<text::TermId> terms = testbed_->analyzer().AnalyzeReadOnly(
          util::NormalizeQueryText(entry.query));
      index::ResultList rq =
          testbed_->searcher().SearchTerms(terms, opts.num_candidates);
      ASSERT_EQ(rq.size(), n);

      core::DiversificationInput input;
      double max_score = rq.front().score;
      for (const auto& hit : rq) max_score = std::max(max_score, hit.score);
      for (size_t i = 0; i < n; ++i) {
        core::Candidate c;
        c.doc = rq[i].doc;
        c.relevance = max_score > 0 ? rq[i].score / max_score : 0.0;
        c.vector = testbed_->snippets().ExtractVector(
            testbed_->corpus().store.Get(rq[i].doc), terms);
        EXPECT_EQ(plan.docs[i], c.doc);
        EXPECT_EQ(plan.relevance[i], c.relevance);
        input.candidates.push_back(std::move(c));
      }
      input.specializations = DiversificationStore::ToProfiles(entry);

      core::UtilityMatrix matrix =
          core::UtilityComputer(
              core::UtilityComputer::Options{opts.threshold_c})
              .Compute(input);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < m; ++j) {
          ASSERT_EQ(plan.utilities[i * m + j], matrix.At(i, j))
              << key << " [" << i << "][" << j << "]";
          zeros += plan.utilities[i * m + j] == 0.0;
        }
        EXPECT_EQ(plan.weighted[i],
                  matrix.WeightedRowSum(i, plan.probability.data()));
      }
      // spec_order: probability descending, ties by index ascending.
      for (size_t j = 0; j + 1 < m; ++j) {
        double pa = plan.probability[plan.spec_order[j]];
        double pb = plan.probability[plan.spec_order[j + 1]];
        EXPECT_TRUE(pa > pb || (pa == pb &&
                                plan.spec_order[j] < plan.spec_order[j + 1]));
      }
    }
  }
  // The threshold really cut cells, so the c > 0 branch was compared.
  EXPECT_GT(zeros_at[1], zeros_at[0]);
}

TEST_F(QueryPlanTest, ParallelBuildIsByteIdenticalToSequentialBuild) {
  // BuildStore and CompilePlans work on several threads; BuildStore
  // over one root works on the calling thread alone. Both must write
  // the same store image.
  auto image_bytes = [](const DiversificationStore& store) {
    auto image = MappedStoreFile::FromStore(store);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    return image.ok() ? std::string(image.value()->bytes()) : std::string();
  };
  std::string with_plans_bytes;
  for (bool with_plans : {false, true}) {
    SCOPED_TRACE(with_plans ? "plans on" : "plans off");
    StoreBuilderOptions options;
    options.compile_plans = with_plans;
    options.plan = PlanOpts();
    DiversificationStore sequential;
    for (const std::string& root : *roots_) {
      BuildStore(testbed_->detector(), testbed_->searcher(),
                 testbed_->snippets(), testbed_->analyzer(),
                 testbed_->corpus().store, {root}, options, &sequential);
    }
    ASSERT_GE(sequential.size(), 2u);
    const std::string want = image_bytes(sequential);
    EXPECT_TRUE(image_bytes(Build(with_plans)) == want);
    if (with_plans) with_plans_bytes = want;
  }

  DiversificationStore upgraded = Build(/*with_plans=*/false);
  EXPECT_EQ(CompilePlans(&upgraded, testbed_->searcher(),
                         testbed_->snippets(), testbed_->analyzer(),
                         testbed_->corpus().store, PlanOpts()),
            upgraded.size());
  EXPECT_TRUE(image_bytes(upgraded) == with_plans_bytes);
}

TEST_F(QueryPlanTest, PlanServedRankingsBitIdenticalToColdPath) {
  DiversificationStore cold_store = Build(/*with_plans=*/false);
  DiversificationStore plan_store = Build(/*with_plans=*/true);
  serving::ServingNode cold(Image(cold_store), testbed_, NodeConfig());
  serving::ServingNode fast(Image(plan_store), testbed_, NodeConfig());

  for (const auto& [key, entry] : plan_store.entries()) {
    serving::Response a = cold.Submit(serving::Request(key));
    serving::Response b = fast.Submit(serving::Request(key));
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_TRUE(a.diversified);
    EXPECT_FALSE(a.plan_served);
    EXPECT_TRUE(b.plan_served) << key;
    EXPECT_EQ(a.ranking, b.ranking) << key;
  }
  EXPECT_EQ(fast.Stats().plan_served, plan_store.size());
  EXPECT_EQ(cold.Stats().plan_served, 0u);
}

TEST_F(QueryPlanTest, ParamsMismatchFallsBackToColdComputation) {
  DiversificationStore plan_store = Build(/*with_plans=*/true);
  serving::ServingConfig config = NodeConfig();
  config.params.num_candidates = PlanOpts().num_candidates / 2;
  serving::ServingNode node(Image(plan_store), testbed_, config);

  const std::string& key = plan_store.entries().begin()->first;
  serving::Response r = node.Submit(serving::Request(key));
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.diversified);
  EXPECT_FALSE(r.plan_served) << "incompatible plan must be ignored";
}

TEST_F(QueryPlanTest, SaveLoadRoundTripsPlansBitwise) {
  DiversificationStore store = Build(/*with_plans=*/true);
  store.set_version(7);
  std::string path = ::testing::TempDir() + "/plans_roundtrip.bin";
  ASSERT_TRUE(store.Save(path).ok());

  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  DiversificationStore loaded = mapped.value()->Materialize();
  EXPECT_EQ(loaded.version(), 7u);
  EXPECT_EQ(loaded.size(), store.size());
  for (const auto& [key, entry] : store.entries()) {
    const StoredEntry* round = loaded.Find(key);
    ASSERT_NE(round, nullptr);
    EXPECT_EQ(round->plan.num_candidates_requested,
              entry.plan.num_candidates_requested);
    EXPECT_EQ(round->plan.threshold_c, entry.plan.threshold_c);
    EXPECT_EQ(round->plan.docs, entry.plan.docs);
    EXPECT_EQ(round->plan.relevance, entry.plan.relevance);
    EXPECT_EQ(round->plan.probability, entry.plan.probability);
    EXPECT_EQ(round->plan.spec_order, entry.plan.spec_order);
    EXPECT_EQ(round->plan.utilities, entry.plan.utilities);
    EXPECT_EQ(round->plan.weighted, entry.plan.weighted);
  }
  std::remove(path.c_str());
}

TEST_F(QueryPlanTest, CompilePlansUpgradesPlanLessStoreOnLoad) {
  // A plan-less store (a plans-off build) round-tripped through disk,
  // then given plans in place with CompilePlans — what a serving node
  // runs at startup.
  DiversificationStore plan_less = Build(/*with_plans=*/false);
  std::string path = ::testing::TempDir() + "/plan_less.bin";
  ASSERT_TRUE(plan_less.Save(path).ok());
  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  DiversificationStore upgraded = mapped.value()->Materialize();
  for (const auto& [key, entry] : upgraded.entries()) {
    ASSERT_TRUE(entry.plan.empty());
  }

  size_t compiled = CompilePlans(
      &upgraded, testbed_->searcher(), testbed_->snippets(),
      testbed_->analyzer(), testbed_->corpus().store, PlanOpts());
  EXPECT_EQ(compiled, upgraded.size());
  for (const auto& [key, entry] : upgraded.entries()) {
    EXPECT_FALSE(entry.plan.empty()) << key;
  }
  // Idempotent: compatible plans are not recompiled.
  EXPECT_EQ(CompilePlans(&upgraded, testbed_->searcher(),
                         testbed_->snippets(), testbed_->analyzer(),
                         testbed_->corpus().store, PlanOpts()),
            0u);

  // The upgraded store serves bit-identically to a natively compiled one.
  DiversificationStore native = Build(/*with_plans=*/true);
  serving::ServingNode a(Image(upgraded), testbed_, NodeConfig());
  serving::ServingNode b(Image(native), testbed_, NodeConfig());
  for (const auto& [key, entry] : native.entries()) {
    serving::Response ra = a.Submit(serving::Request(key));
    serving::Response rb = b.Submit(serving::Request(key));
    EXPECT_TRUE(ra.plan_served);
    EXPECT_TRUE(rb.plan_served);
    EXPECT_EQ(ra.ranking, rb.ranking) << key;
  }
  std::remove(path.c_str());
}

TEST_F(QueryPlanTest, PutDropsPlanThatDisagreesWithMinedContent) {
  DiversificationStore store = Build(/*with_plans=*/true);
  const std::string& key = store.entries().begin()->first;
  StoredEntry tampered = *store.Find(key);
  ASSERT_FALSE(tampered.plan.empty());

  // Perturb the mined distribution without recompiling — the stale plan
  // must be dropped, not served.
  tampered.specializations[0].probability *= 0.5;
  ASSERT_TRUE(store.Put(tampered).ok());
  EXPECT_TRUE(store.Find(key)->plan.empty());

  // A plan whose spec_order is not a permutation of [0, m) — e.g. an
  // out-of-range index from a corrupted-but-checksummed file — is
  // dropped too (it would index probability/utilities out of bounds).
  StoredEntry bad_order = *store.Find(key);
  ASSERT_TRUE(bad_order.plan.empty());  // dropped above; rebuild it
  bad_order = *Build(/*with_plans=*/true).Find(key);
  bad_order.plan.spec_order[0] = 0xFFFFFFFFu;
  ASSERT_TRUE(store.Put(bad_order).ok());
  EXPECT_TRUE(store.Find(key)->plan.empty());

  // An untampered re-Put keeps its plan.
  DiversificationStore fresh = Build(/*with_plans=*/true);
  StoredEntry intact = *fresh.Find(key);
  ASSERT_TRUE(fresh.Put(intact).ok());
  EXPECT_FALSE(fresh.Find(key)->plan.empty());
}

TEST_F(QueryPlanTest, DeltaBuildsPreservePlansAndRecompileOnlyDirty) {
  DiversificationStore base_store = Build(/*with_plans=*/true);
  ASSERT_GE(base_store.size(), 2u);
  std::shared_ptr<const StoreSnapshot> base =
      StoreSnapshot::Own(std::move(base_store));

  // Re-mine exactly one stored query. MineDelta compiles plans for its
  // upserts; every other entry must ride through BuildSnapshot with its
  // original plan bit-intact.
  const std::string dirty = base->store().entries().begin()->second.query;
  StoreBuilderOptions options;
  options.compile_plans = true;
  options.plan = PlanOpts();
  StoreDelta delta = MineDelta(
      testbed_->detector(), testbed_->searcher(), testbed_->snippets(),
      testbed_->analyzer(), testbed_->corpus().store, {dirty}, options,
      base->store());
  for (const StoredEntry& upsert : delta.upserts) {
    EXPECT_FALSE(upsert.plan.empty()) << upsert.query;
  }

  SnapshotBuildResult built = BuildSnapshot(base.get(), delta);
  for (const auto& [key, entry] : built.snapshot->store().entries()) {
    const StoredEntry* before = base->store().Find(key);
    ASSERT_NE(before, nullptr);
    EXPECT_FALSE(entry.plan.empty()) << key;
    if (entry.query == dirty) continue;
    // Unchanged entries keep the identical compiled blocks.
    EXPECT_EQ(entry.plan.utilities, before->plan.utilities) << key;
    EXPECT_EQ(entry.plan.weighted, before->plan.weighted) << key;
  }
}

}  // namespace
}  // namespace store
}  // namespace optselect
