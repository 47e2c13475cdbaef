// Unified Frontend API tests: every serving tier (single node, sharded
// cluster) answers through the same Submit(Request) -> Response
// contract, bit-identically; the default SubmitAsync adapter runs the
// blocking Submit inline exactly once; and the Frontend* replay drivers
// drive any implementation. The remote-vs-local half of the contract
// lives in net_test.cc.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sharded_cluster.h"
#include "pipeline/testbed.h"
#include "serving/frontend.h"
#include "serving/replay.h"
#include "serving/serving_node.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "util/hash.h"

namespace optselect {
namespace serving {
namespace {

uint64_t RankHash(const std::vector<DocId>& ranking) {
  return util::Fnv1a64(ranking.data(), ranking.size() * sizeof(DocId));
}

class FrontendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new pipeline::Testbed(pipeline::TestbedConfig::Small());
    store_ = new store::DiversificationStore();
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    store::BuildStore(testbed_->detector(), testbed_->searcher(),
                      testbed_->snippets(), testbed_->analyzer(),
                      testbed_->corpus().store, roots, {}, store_);
    ASSERT_GE(store_->size(), 2u);
    auto image = store::MappedStoreFile::FromStore(*store_);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    mapped_ = std::move(image).value();
  }
  static void TearDownTestSuite() {
    mapped_.reset();
    delete store_;
    delete testbed_;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  static ServingConfig NodeConfig() {
    ServingConfig config;
    config.num_workers = 1;
    config.queue_capacity = 256;
    config.params.diversify.k = 10;
    return config;
  }

  static std::vector<std::string> Mix() {
    std::vector<std::string> mix;
    for (const auto& [key, entry] : store_->entries()) mix.push_back(key);
    std::sort(mix.begin(), mix.end());
    mix.push_back(testbed_->universe().noise_queries[0]);
    return mix;
  }

  static pipeline::Testbed* testbed_;
  static store::DiversificationStore* store_;
  /// store_'s in-memory v4 image, what the in-process cluster serves.
  static std::shared_ptr<const store::MappedStoreFile> mapped_;
};

pipeline::Testbed* FrontendTest::testbed_ = nullptr;
store::DiversificationStore* FrontendTest::store_ = nullptr;
std::shared_ptr<const store::MappedStoreFile> FrontendTest::mapped_;

TEST_F(FrontendTest, NodeAndClusterAnswerIdenticallyThroughTheInterface) {
  ServingNode node(store_, testbed_, NodeConfig());
  cluster::ClusterConfig cc;
  cc.num_shards = 2;
  cc.replicate_hot = 0;
  cc.node = NodeConfig();
  cluster::ShardedCluster cluster(mapped_, testbed_, nullptr, cc);

  // Callers hold only the interface — the tiers are interchangeable.
  Frontend* tiers[] = {&node, &cluster};
  for (const std::string& query : Mix()) {
    Response reference = tiers[0]->Submit(Request(query));
    ASSERT_TRUE(reference.ok) << query;
    Response other = tiers[1]->Submit(Request(query));
    ASSERT_TRUE(other.ok) << query;
    EXPECT_EQ(RankHash(reference.ranking), RankHash(other.ranking)) << query;
    EXPECT_EQ(reference.diversified, other.diversified);
    EXPECT_EQ(reference.num_specializations, other.num_specializations);
    EXPECT_FALSE(other.degraded);
  }
  node.Shutdown();
}

// A minimal Frontend that implements only the blocking call: the
// default SubmitAsync adapter must run it inline, invoke the callback
// exactly once, and report acceptance.
class BlockingOnlyFrontend : public Frontend {
 public:
  Response Submit(const Request& request) override {
    ++calls;
    Response response;
    response.ok = true;
    response.ranking = {static_cast<DocId>(request.query.size()), 7u};
    return response;
  }
  int calls = 0;
};

TEST(FrontendDefaultAdapterTest, SubmitAsyncRunsBlockingSubmitInline) {
  BlockingOnlyFrontend frontend;
  int callbacks = 0;
  Response seen;
  bool accepted = frontend.SubmitAsync(Request("abcd"), [&](Response r) {
    ++callbacks;
    seen = std::move(r);
  });
  EXPECT_TRUE(accepted);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(frontend.calls, 1);
  ASSERT_TRUE(seen.ok);
  EXPECT_EQ(seen.ranking, (std::vector<DocId>{4u, 7u}));
}

TEST_F(FrontendTest, ReplayMixDrivesAnyFrontend) {
  ServingNode node(store_, testbed_, NodeConfig());
  cluster::ClusterConfig cc;
  cc.num_shards = 2;
  cc.node = NodeConfig();
  cluster::ShardedCluster cluster(mapped_, testbed_, nullptr, cc);

  std::vector<std::string> mix = Mix();
  for (Frontend* frontend :
       {static_cast<Frontend*>(&node), static_cast<Frontend*>(&cluster)}) {
    ReplayOutcome outcome = ReplayMix(frontend, mix);
    EXPECT_EQ(outcome.accepted, mix.size());
  }
  node.Shutdown();
}

}  // namespace
}  // namespace serving
}  // namespace optselect
