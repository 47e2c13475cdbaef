// Golden-file tests for the store.bin format.
//
// tests/data/ holds tiny checked-in fixtures with identical hand-chosen
// mined content. store_v4.bin is the format Save writes and Map and
// serving read. store_v1.bin through store_v3.bin are frozen bytes in
// the stream layouts older releases wrote; nothing in the repository
// reads them any more, so they are refusal inputs only. The tests pin:
//   - the content the v4 fixture holds, its compiled plan included,
//   - the writer: Save must byte-reproduce the v4 fixture,
//   - plan adoption: store::BuildSnapshot applying the fixture's
//     entries as a delta onto the same content without plans must
//     adopt the fixture's plan bit for bit and change no key,
//   - refusal: Map rejects v1–v3 bytes and damaged v4 bytes as
//     corruption, without crashing.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/store_snapshot.h"
#include "util/hash.h"

namespace optselect {
namespace store {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(OPTSELECT_TEST_DATA_DIR) + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// store_v4.bin, read the way serving reads it (Map), as heap entries.
DiversificationStore LoadFixture() {
  auto mapped = MappedStoreFile::Map(FixturePath("store_v4.bin"));
  EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
  return mapped.ok() ? mapped.value()->Materialize() : DiversificationStore();
}

/// The golden mined content every fixture holds.
void ExpectGoldenContent(const DiversificationStore& store) {
  EXPECT_EQ(store.size(), 2u);

  const StoredEntry* jaguar = store.Find("jaguar");
  ASSERT_NE(jaguar, nullptr);
  ASSERT_EQ(jaguar->specializations.size(), 2u);
  EXPECT_EQ(jaguar->specializations[0].query, "jaguar car");
  EXPECT_EQ(jaguar->specializations[0].probability, 0.6);
  ASSERT_EQ(jaguar->specializations[0].surrogates.size(), 1u);
  EXPECT_EQ(jaguar->specializations[0].surrogates[0].entries(),
            (std::vector<text::TermVector::Entry>{{42, 1.5}}));
  EXPECT_EQ(jaguar->specializations[1].query, "jaguar cat");
  EXPECT_EQ(jaguar->specializations[1].probability, 0.4);
  EXPECT_TRUE(jaguar->specializations[1].surrogates.empty());

  const StoredEntry* apple = store.Find("apple");
  ASSERT_NE(apple, nullptr);
  ASSERT_EQ(apple->specializations.size(), 3u);
  EXPECT_EQ(apple->specializations[0].query, "apple iphone");
  EXPECT_EQ(apple->specializations[0].probability, 0.5);
  ASSERT_EQ(apple->specializations[0].surrogates.size(), 1u);
  EXPECT_EQ(apple->specializations[0].surrogates[0].entries(),
            (std::vector<text::TermVector::Entry>{{7, 0.25}, {9, 1.0}}));
  EXPECT_EQ(apple->specializations[1].query, "apple fruit");
  EXPECT_EQ(apple->specializations[1].probability, 0.3);
  EXPECT_EQ(apple->specializations[2].query, "apple records");
  EXPECT_EQ(apple->specializations[2].probability, 0.2);
  EXPECT_TRUE(apple->plan.empty()) << "only jaguar has a plan";
}

/// Exact plan-block equality — "bit-identical" for compiled plans.
void ExpectPlansEqual(const QueryPlan& a, const QueryPlan& b) {
  EXPECT_EQ(a.num_candidates_requested, b.num_candidates_requested);
  EXPECT_EQ(a.threshold_c, b.threshold_c);
  EXPECT_EQ(a.docs, b.docs);
  EXPECT_EQ(a.relevance, b.relevance);
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.spec_order, b.spec_order);
  EXPECT_EQ(a.utilities, b.utilities);
  EXPECT_EQ(a.weighted, b.weighted);
}

TEST(StoreBackcompatTest, V4FixtureLoadsTheGoldenContent) {
  DiversificationStore v4 = LoadFixture();
  EXPECT_EQ(v4.version(), 13u);
  ExpectGoldenContent(v4);

  const QueryPlan& plan = v4.Find("jaguar")->plan;
  ASSERT_FALSE(plan.empty());
  EXPECT_TRUE(plan.SizesConsistent());
  EXPECT_EQ(plan.num_candidates_requested, 200u);
  EXPECT_EQ(plan.threshold_c, 0.25);
  EXPECT_EQ(plan.docs, (std::vector<DocId>{5, 1, 9}));
  EXPECT_EQ(plan.relevance, (std::vector<double>{1.0, 0.75, 0.5}));
  EXPECT_EQ(plan.probability, (std::vector<double>{0.6, 0.4}));
  EXPECT_EQ(plan.spec_order, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(plan.utilities,
            (std::vector<double>{0.5, 0.0, 0.0, 0.25, 0.125, 0.125}));
  // The λ-independent sums, in the compiler's accumulation order.
  std::vector<double> weighted;
  for (size_t i = 0; i < 3; ++i) {
    double w = 0.0;
    for (size_t j = 0; j < 2; ++j) {
      w += plan.probability[j] * plan.utilities[i * 2 + j];
    }
    weighted.push_back(w);
  }
  EXPECT_EQ(plan.weighted, weighted);
}

TEST(StoreBackcompatTest, BuildSnapshotAdoptsPlansOntoAPlanLessBase) {
  DiversificationStore fixture = LoadFixture();

  // The same mined content with its plans dropped: what a plans-off
  // build holds before a plan-compiling miner refreshes it.
  DiversificationStore plan_less;
  plan_less.set_version(fixture.version());
  for (const auto& [key, entry] : fixture.entries()) {
    StoredEntry copy = entry;
    copy.plan = QueryPlan();
    ASSERT_TRUE(plan_less.Put(std::move(copy)).ok()) << key;
  }
  ASSERT_TRUE(plan_less.Find("jaguar")->plan.empty());

  // Apply the fixture's entries as a delta: content-identical upserts
  // are skipped, but the compiled plan is adopted where the base had
  // none.
  std::shared_ptr<const StoreSnapshot> base =
      StoreSnapshot::Own(std::move(plan_less));
  StoreDelta delta;
  for (const auto& [key, entry] : fixture.entries()) {
    delta.upserts.push_back(entry);
  }
  SnapshotBuildResult built = BuildSnapshot(base.get(), delta);
  // Mined content did not change, so no cached ranking is at risk.
  EXPECT_TRUE(built.changed_keys.empty());
  EXPECT_EQ(built.unchanged_skipped, 2u);

  const DiversificationStore& adopted = built.snapshot->store();
  EXPECT_EQ(adopted.size(), fixture.size());
  for (const auto& [key, entry] : fixture.entries()) {
    SCOPED_TRACE(key);
    const StoredEntry* got = adopted.Find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(StoredEntriesEqual(*got, entry));
    EXPECT_EQ(got->plan.empty(), entry.plan.empty());
    if (!entry.plan.empty()) ExpectPlansEqual(got->plan, entry.plan);
  }
}

TEST(StoreBackcompatTest, SaveByteReproducesTheV4Fixture) {
  // Current-format freeze: load the v4 fixture, save it again, and the
  // bytes must match exactly (the v4 writer is deterministic — entries
  // in normalized-key order, fixed padding). A diff here means the
  // writer changed — bump the format version and add a new fixture.
  DiversificationStore v4 = LoadFixture();
  std::string path = ::testing::TempDir() + "/store_v4_resave.bin";
  ASSERT_TRUE(v4.Save(path).ok());
  std::string golden = ReadBytes(FixturePath("store_v4.bin"));
  std::string resaved = ReadBytes(path);
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(resaved.size(), golden.size());
  EXPECT_TRUE(resaved == golden)
      << "Save() no longer reproduces the frozen v4 layout";
  std::remove(path.c_str());
}

TEST(StoreBackcompatTest, MapRejectsTheLegacyFormats) {
  // v4 is the only format Map reads: a v1–v3 stream from an older
  // release fails with a status like any corrupt file, never a crash.
  for (const char* fixture :
       {"store_v1.bin", "store_v2.bin", "store_v3.bin"}) {
    auto mapped = MappedStoreFile::Map(FixturePath(fixture));
    ASSERT_FALSE(mapped.ok()) << fixture;
    EXPECT_EQ(mapped.status().code(), util::StatusCode::kCorruption)
        << fixture << ": " << mapped.status().ToString();
  }
}

TEST(StoreBackcompatTest, CorruptedV4FilesAreRejected) {
  std::string golden = ReadBytes(FixturePath("store_v4.bin"));
  ASSERT_GT(golden.size(), 136u);
  std::string dir = ::testing::TempDir();
  auto write = [&](const std::string& name, const std::string& bytes) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  auto rejects = [&](const std::string& name, const char* why) {
    EXPECT_FALSE(MappedStoreFile::Map(dir + "/" + name).ok()) << why;
    std::remove((dir + "/" + name).c_str());
  };

  // Truncation at several depths: inside the header, inside the body,
  // and just shy of the full file (file_size check catches all three).
  for (size_t cut : {size_t{32}, golden.size() / 2, golden.size() - 1}) {
    write("v4_truncated.bin", golden.substr(0, cut));
    rejects("v4_truncated.bin", "truncated v4 must be rejected");
  }

  // A flipped byte anywhere in the body fails the body checksum; in the
  // header (past the magic) it fails the header checksum or a field
  // validation.
  for (size_t at : {size_t{8}, size_t{70}, golden.size() - 9}) {
    std::string flipped = golden;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
    write("v4_flipped.bin", flipped);
    rejects("v4_flipped.bin", "flipped v4 byte must fail a checksum");
  }

  // A header whose directory offset (byte 32) points out of bounds,
  // with both checksums recomputed so only the bounds check can catch
  // it.
  {
    std::string evil = golden;
    uint64_t bad_offset = golden.size() + 4096;
    std::memcpy(&evil[32], &bad_offset, sizeof(bad_offset));
    uint64_t head = util::Fnv1a64(evil.data(), 56);
    std::memcpy(&evil[56], &head, sizeof(head));
    write("v4_bad_dir.bin", evil);
    rejects("v4_bad_dir.bin",
            "out-of-bounds directory offset must be rejected");
  }

  // Wrong endianness tag (byte 8) — a file written on a foreign-endian
  // machine must refuse to map rather than serve garbage.
  {
    std::string evil = golden;
    uint32_t reversed = 0x04030201u;
    std::memcpy(&evil[8], &reversed, sizeof(reversed));
    uint64_t head = util::Fnv1a64(evil.data(), 56);
    std::memcpy(&evil[56], &head, sizeof(head));
    write("v4_endian.bin", evil);
    rejects("v4_endian.bin", "foreign endianness must be rejected");
  }
}

}  // namespace
}  // namespace store
}  // namespace optselect
