// Tests for the serving-side diversification store (Section 4.1): Put /
// Find semantics, binary persistence with corruption detection, builder
// integration, and the footprint accounting.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/optselect.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"
#include "text/analyzer.h"

namespace optselect {
namespace store {
namespace {

StoredEntry MakeEntry(const std::string& root, size_t n_specs,
                      size_t n_surrogates) {
  StoredEntry entry;
  entry.query = root;
  for (size_t s = 0; s < n_specs; ++s) {
    StoredSpecialization sp;
    sp.query = root + " mod" + std::to_string(s);
    sp.probability = 1.0 / static_cast<double>(n_specs);
    for (size_t v = 0; v < n_surrogates; ++v) {
      sp.surrogates.push_back(text::TermVector::FromEntries(
          {{static_cast<text::TermId>(10 * s + v), 1.5},
           {static_cast<text::TermId>(100 + v), 0.25}}));
    }
    entry.specializations.push_back(std::move(sp));
  }
  return entry;
}

TEST(StoreTest, PutAndFind) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("apple", 3, 2)).ok());
  EXPECT_EQ(store.size(), 1u);
  const StoredEntry* entry = store.Find("apple");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->specializations.size(), 3u);
  EXPECT_EQ(store.Find("nothing"), nullptr);
}

TEST(StoreTest, FindNormalizesCasingAndSpacing) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("New  York", 2, 1)).ok());
  const StoredEntry* entry = store.Find("new york");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->query, "New  York");  // original string preserved
  EXPECT_NE(store.Find("  NEW YORK "), nullptr);
  EXPECT_EQ(store.size(), 1u);
  // Differently cased Put lands in the same slot (replace, not grow).
  ASSERT_TRUE(store.Put(MakeEntry("new york", 3, 1)).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find("new york")->specializations.size(), 3u);
}

TEST(StoreTest, RejectsNonAmbiguousEntries) {
  DiversificationStore store;
  util::Status s = store.Put(MakeEntry("solo", 1, 2));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(store.empty());
}

TEST(StoreTest, PutReplacesExisting) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("apple", 2, 1)).ok());
  ASSERT_TRUE(store.Put(MakeEntry("apple", 4, 1)).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find("apple")->specializations.size(), 4u);
}

TEST(StoreTest, ToProfilesPreservesEverything) {
  StoredEntry entry = MakeEntry("apple", 2, 3);
  auto profiles = DiversificationStore::ToProfiles(entry);
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].query, "apple mod0");
  EXPECT_DOUBLE_EQ(profiles[0].probability, 0.5);
  EXPECT_EQ(profiles[0].results.size(), 3u);
  EXPECT_DOUBLE_EQ(profiles[0].results[0].WeightOf(0), 1.5);
}

TEST(StoreTest, SurrogatePayloadBytesCountsEntries) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("apple", 2, 2)).ok());
  // 2 specs × 2 surrogates × 2 entries × (4 + 8) bytes.
  EXPECT_EQ(store.SurrogatePayloadBytes(), 2ull * 2 * 2 * 12);
}

TEST(StoreTest, SaveLoadRoundTrip) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("apple", 3, 2)).ok());
  ASSERT_TRUE(store.Put(MakeEntry("jaguar", 2, 4)).ok());
  std::string path = ::testing::TempDir() + "/store_roundtrip.bin";
  ASSERT_TRUE(store.Save(path).ok());

  auto mapped = MappedStoreFile::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const DiversificationStore l = mapped.value()->Materialize();
  EXPECT_EQ(l.size(), 2u);
  const StoredEntry* apple = l.Find("apple");
  ASSERT_NE(apple, nullptr);
  ASSERT_EQ(apple->specializations.size(), 3u);
  EXPECT_EQ(apple->specializations[0].query, "apple mod0");
  EXPECT_NEAR(apple->specializations[0].probability, 1.0 / 3.0, 1e-12);
  ASSERT_EQ(apple->specializations[1].surrogates.size(), 2u);
  EXPECT_DOUBLE_EQ(apple->specializations[1].surrogates[0].WeightOf(10),
                   1.5);
  std::remove(path.c_str());
}

TEST(StoreTest, SaveIsDeterministic) {
  DiversificationStore a, b;
  // Insert in different orders.
  ASSERT_TRUE(a.Put(MakeEntry("apple", 2, 1)).ok());
  ASSERT_TRUE(a.Put(MakeEntry("jaguar", 2, 1)).ok());
  ASSERT_TRUE(b.Put(MakeEntry("jaguar", 2, 1)).ok());
  ASSERT_TRUE(b.Put(MakeEntry("apple", 2, 1)).ok());
  std::string pa = ::testing::TempDir() + "/store_a.bin";
  std::string pb = ::testing::TempDir() + "/store_b.bin";
  ASSERT_TRUE(a.Save(pa).ok());
  ASSERT_TRUE(b.Save(pb).ok());
  std::ifstream fa(pa, std::ios::binary), fb(pb, std::ios::binary);
  std::string ba((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string bb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(ba, bb) << "snapshots must be byte-identical";
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(StoreTest, LoadDetectsCorruption) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("apple", 2, 2)).ok());
  std::string path = ::testing::TempDir() + "/store_corrupt.bin";
  ASSERT_TRUE(store.Save(path).ok());

  // Flip one byte in the middle.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x5A));
  }
  auto r = MappedStoreFile::Map(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StoreTest, LoadDetectsTruncation) {
  DiversificationStore store;
  ASSERT_TRUE(store.Put(MakeEntry("apple", 2, 2)).ok());
  std::string path = ::testing::TempDir() + "/store_trunc.bin";
  ASSERT_TRUE(store.Save(path).ok());
  // Truncate the file.
  {
    std::ifstream in(path, std::ios::binary);
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
  }
  auto r = MappedStoreFile::Map(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(StoreTest, LoadRejectsWrongMagic) {
  std::string path = ::testing::TempDir() + "/store_magic.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPEnopenopenopenope";
  }
  auto r = MappedStoreFile::Map(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StoreTest, LoadMissingFileIsIoError) {
  auto r = MappedStoreFile::Map("/nonexistent/store.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kIoError);
}

// --------------------------------------------------------- StoreBuilder

TEST(StoreBuilderTest, BuildsEntriesForDetectedTopicsOnly) {
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  StoreBuilderOptions options;

  std::vector<std::string> queries;
  for (const auto& topic : testbed.universe().topics) {
    queries.push_back(topic.root_query);
  }
  queries.push_back(testbed.universe().noise_queries[0]);  // not ambiguous

  DiversificationStore built;
  size_t stored = BuildStore(testbed.detector(), testbed.searcher(),
                             testbed.snippets(), testbed.analyzer(),
                             testbed.corpus().store, queries, options,
                             &built);
  EXPECT_GE(stored, 6u) << "most planted topics should be stored";
  EXPECT_EQ(stored, built.size());
  EXPECT_EQ(built.Find(testbed.universe().noise_queries[0]), nullptr);

  // Entries are usable: probabilities sum to 1, surrogates bounded.
  for (const auto& [query, entry] : built.entries()) {
    double sum = 0;
    for (const auto& sp : entry.specializations) {
      sum += sp.probability;
      EXPECT_LE(sp.surrogates.size(), pipeline::kResultsPerSpecialization);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(StoreBuilderTest, ServingFromStoreMatchesLivePipeline) {
  // Build the store offline, then answer a query using only the store +
  // live candidate retrieval; the diversified ranking must equal the
  // live pipeline's (same inputs, same algorithm).
  pipeline::Testbed testbed(pipeline::TestbedConfig::Small());
  pipeline::PipelineParams params;
  params.num_candidates = 100;
  params.diversify.k = 10;
  pipeline::DiversificationPipeline live(&testbed, params);

  const std::string& query = testbed.universe().topics[0].root_query;
  pipeline::DiversifiedResult live_result = live.Prepare(query);
  ASSERT_TRUE(live_result.specializations.ambiguous());

  DiversificationStore built;
  BuildStore(testbed.detector(), testbed.searcher(), testbed.snippets(),
             testbed.analyzer(), testbed.corpus().store, {query}, {},
             &built);
  const StoredEntry* entry = built.Find(query);
  ASSERT_NE(entry, nullptr);

  // Serving-time assembly: candidates from live retrieval, stored
  // specializations.
  core::DiversificationInput input;
  input.query = query;
  input.candidates = live_result.input.candidates;
  input.specializations = DiversificationStore::ToProfiles(*entry);

  core::UtilityMatrix utilities = core::UtilityComputer().Compute(input);
  core::OptSelectDiversifier algo;
  EXPECT_EQ(algo.Select(input, utilities, params.diversify),
            algo.Select(live_result.input, live_result.utilities,
                        params.diversify));
}

}  // namespace
}  // namespace store
}  // namespace optselect
