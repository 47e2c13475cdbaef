// Golden-file tests for the store.bin formats and the v1–v3 converter.
//
// tests/data/ holds tiny checked-in fixtures — store_v1.bin through
// store_v4.bin — with identical hand-chosen mined content in each of
// the four on-disk layouts. They are frozen: no code in the repository
// writes v1–v3, so these bytes are the reference for what older
// releases wrote. v4 is the format Load, Map and serving read; the
// v1–v3 files are read only by store::ReadLegacyStore, the reader
// behind `optselect upgrade`. The tests pin:
//   - the content each layout holds (all four carry the same entries),
//   - the writer: Save must byte-reproduce the v4 fixture, and a v3
//     file converted to v4 must give exactly those bytes,
//   - the split: Load and Map reject v1–v3 bytes as corruption,
//   - plan adoption: store::BuildSnapshot applying the v3 entries as a
//     delta onto a plan-less v1/v2 base must yield entries
//     bit-identical to the v3 fixture's,
//   - the legacy reader's rejection of truncated, flipped and crafted
//     bytes, without crashing.

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
#include "store/legacy_store.h"
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

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

DiversificationStore ExpectRead(util::Result<DiversificationStore> loaded,
                                const std::string& name) {
  EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
  return loaded.ok() ? std::move(loaded).value() : DiversificationStore();
}

/// store_v4.bin, read the way serving reads it.
DiversificationStore LoadFixture(const std::string& name) {
  return ExpectRead(DiversificationStore::Load(FixturePath(name)), name);
}

/// store_v{1,2,3}.bin, read by the converter's reader.
DiversificationStore ReadLegacyFixture(const std::string& name) {
  return ExpectRead(ReadLegacyStore(FixturePath(name)), name);
}

/// The golden mined content every fixture holds.
void ExpectGoldenContent(const DiversificationStore& store,
                         const std::string& label) {
  EXPECT_EQ(store.size(), 2u) << label;

  const StoredEntry* jaguar = store.Find("jaguar");
  ASSERT_NE(jaguar, nullptr) << label;
  ASSERT_EQ(jaguar->specializations.size(), 2u) << label;
  EXPECT_EQ(jaguar->specializations[0].query, "jaguar car");
  EXPECT_EQ(jaguar->specializations[0].probability, 0.6);
  ASSERT_EQ(jaguar->specializations[0].surrogates.size(), 1u);
  EXPECT_EQ(jaguar->specializations[0].surrogates[0].entries(),
            (std::vector<text::TermVector::Entry>{{42, 1.5}}));
  EXPECT_EQ(jaguar->specializations[1].query, "jaguar cat");
  EXPECT_EQ(jaguar->specializations[1].probability, 0.4);
  EXPECT_TRUE(jaguar->specializations[1].surrogates.empty());

  const StoredEntry* apple = store.Find("apple");
  ASSERT_NE(apple, nullptr) << label;
  ASSERT_EQ(apple->specializations.size(), 3u) << label;
  EXPECT_EQ(apple->specializations[0].query, "apple iphone");
  EXPECT_EQ(apple->specializations[0].probability, 0.5);
  ASSERT_EQ(apple->specializations[0].surrogates.size(), 1u);
  EXPECT_EQ(apple->specializations[0].surrogates[0].entries(),
            (std::vector<text::TermVector::Entry>{{7, 0.25}, {9, 1.0}}));
  EXPECT_EQ(apple->specializations[1].query, "apple fruit");
  EXPECT_EQ(apple->specializations[1].probability, 0.3);
  EXPECT_EQ(apple->specializations[2].query, "apple records");
  EXPECT_EQ(apple->specializations[2].probability, 0.2);
  EXPECT_TRUE(apple->plan.empty()) << label << ": only jaguar has a plan";
}

/// Exact plan-block equality — "bit-identical" for compiled plans.
void ExpectPlansEqual(const QueryPlan& a, const QueryPlan& b,
                      const std::string& label) {
  EXPECT_EQ(a.num_candidates_requested, b.num_candidates_requested) << label;
  EXPECT_EQ(a.threshold_c, b.threshold_c) << label;
  EXPECT_EQ(a.docs, b.docs) << label;
  EXPECT_EQ(a.relevance, b.relevance) << label;
  EXPECT_EQ(a.probability, b.probability) << label;
  EXPECT_EQ(a.spec_order, b.spec_order) << label;
  EXPECT_EQ(a.utilities, b.utilities) << label;
  EXPECT_EQ(a.weighted, b.weighted) << label;
}

TEST(StoreBackcompatTest, AllFourFormatsLoadTheGoldenContent) {
  DiversificationStore v1 = ReadLegacyFixture("store_v1.bin");
  DiversificationStore v2 = ReadLegacyFixture("store_v2.bin");
  DiversificationStore v3 = ReadLegacyFixture("store_v3.bin");
  DiversificationStore v4 = LoadFixture("store_v4.bin");

  // Pre-versioning files load as content version 0; v2+ carry it.
  EXPECT_EQ(v1.version(), 0u);
  EXPECT_EQ(v2.version(), 13u);
  EXPECT_EQ(v3.version(), 13u);
  EXPECT_EQ(v4.version(), 13u);

  ExpectGoldenContent(v1, "v1");
  ExpectGoldenContent(v2, "v2");
  ExpectGoldenContent(v3, "v3");
  ExpectGoldenContent(v4, "v4");
  for (const auto& [key, entry] : v1.entries()) {
    EXPECT_TRUE(StoredEntriesEqual(entry, *v2.Find(key))) << key;
    EXPECT_TRUE(StoredEntriesEqual(entry, *v3.Find(key))) << key;
    EXPECT_TRUE(StoredEntriesEqual(entry, *v4.Find(key))) << key;
  }

  // Plans exist only from v3 on; v4 must carry v3's plan bit-for-bit.
  EXPECT_TRUE(v1.Find("jaguar")->plan.empty());
  EXPECT_TRUE(v2.Find("jaguar")->plan.empty());
  ASSERT_FALSE(v4.Find("jaguar")->plan.empty());
  ExpectPlansEqual(v4.Find("jaguar")->plan, v3.Find("jaguar")->plan,
                   "v4 vs v3 plan");
  const QueryPlan& plan = v3.Find("jaguar")->plan;
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

TEST(StoreBackcompatTest, PlanUpgradeOnLoadIsBitIdenticalAcrossFormats) {
  DiversificationStore v3 = ReadLegacyFixture("store_v3.bin");

  // Upgrade a loaded v1 and a loaded v2 base with the v3 entries as a
  // delta: content-identical upserts are skipped, but the compiled plan
  // is adopted where the base had none — the free v2 → v3 migration.
  for (const char* fixture : {"store_v1.bin", "store_v2.bin"}) {
    std::shared_ptr<const StoreSnapshot> base =
        StoreSnapshot::Own(ReadLegacyFixture(fixture));
    StoreDelta delta;
    for (const auto& [key, entry] : v3.entries()) {
      delta.upserts.push_back(entry);
    }
    SnapshotBuildResult built = BuildSnapshot(base.get(), delta);
    // Mined content did not change, so no cached ranking is at risk.
    EXPECT_TRUE(built.changed_keys.empty()) << fixture;
    EXPECT_EQ(built.unchanged_skipped, 2u) << fixture;

    const DiversificationStore& upgraded = built.snapshot->store();
    EXPECT_EQ(upgraded.size(), v3.size()) << fixture;
    for (const auto& [key, entry] : v3.entries()) {
      const StoredEntry* up = upgraded.Find(key);
      ASSERT_NE(up, nullptr) << fixture << " " << key;
      EXPECT_TRUE(StoredEntriesEqual(*up, entry)) << fixture << " " << key;
      EXPECT_EQ(up->plan.empty(), entry.plan.empty())
          << fixture << " " << key;
      if (!entry.plan.empty()) {
        ExpectPlansEqual(up->plan, entry.plan,
                         std::string(fixture) + " " + key);
      }
    }
  }
}

TEST(StoreBackcompatTest, SaveByteReproducesTheV4Fixture) {
  // Current-format freeze: load the v4 fixture, save it again, and the
  // bytes must match exactly (the v4 writer is deterministic — entries
  // in normalized-key order, fixed padding). A diff here means the
  // writer changed — bump the format version and add a new fixture.
  DiversificationStore v4 = LoadFixture("store_v4.bin");
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

TEST(StoreBackcompatTest, OlderFormatsUpgradeToTheV4BytesOnSave) {
  // What `optselect upgrade` does — ReadLegacyStore, then Save — read
  // back the way serving reads it: the golden content at the file's own
  // content version (v1 predates it and converts as 0). v3 must give
  // exactly the v4 fixture's bytes: same content, same version, same
  // deterministic layout. v1/v2 carry no plans, so their v4 bytes
  // legitimately differ from the plan-carrying fixture.
  std::string golden = ReadBytes(FixturePath("store_v4.bin"));
  ASSERT_FALSE(golden.empty());
  const std::pair<std::string, uint64_t> cases[] = {
      {"store_v1.bin", 0}, {"store_v2.bin", 13}, {"store_v3.bin", 13}};
  for (const auto& [fixture, version] : cases) {
    std::string path = ::testing::TempDir() + "/upgraded_v4.bin";
    ASSERT_TRUE(ReadLegacyFixture(fixture).Save(path).ok()) << fixture;
    DiversificationStore upgraded =
        ExpectRead(DiversificationStore::Load(path), fixture);
    EXPECT_EQ(upgraded.version(), version) << fixture;
    ExpectGoldenContent(upgraded, fixture);
    if (fixture == "store_v3.bin") {
      EXPECT_TRUE(ReadBytes(path) == golden)
          << fixture << " did not upgrade to the exact v4 bytes";
    } else {
      EXPECT_TRUE(upgraded.Find("jaguar")->plan.empty()) << fixture;
    }
    std::remove(path.c_str());
  }
}

TEST(StoreBackcompatTest, LoadAndMapRejectTheLegacyFormats) {
  // v4 is the only format Load and Map read: a v1–v3 stream fails like
  // any corrupt file, and serving names the converter instead.
  for (const char* fixture :
       {"store_v1.bin", "store_v2.bin", "store_v3.bin"}) {
    auto loaded = DiversificationStore::Load(FixturePath(fixture));
    ASSERT_FALSE(loaded.ok()) << fixture;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kCorruption)
        << fixture << ": " << loaded.status().ToString();
    auto mapped = MappedStoreFile::Map(FixturePath(fixture));
    ASSERT_FALSE(mapped.ok()) << fixture;
    EXPECT_EQ(mapped.status().code(), util::StatusCode::kCorruption)
        << fixture << ": " << mapped.status().ToString();
  }
  // And the converter's reader takes only the legacy streams.
  auto v4 = ReadLegacyStore(FixturePath("store_v4.bin"));
  ASSERT_FALSE(v4.ok());
  EXPECT_EQ(v4.status().code(), util::StatusCode::kCorruption);
}

TEST(StoreBackcompatTest, TruncatedAndCorruptedFixturesAreRejected) {
  std::string golden = ReadBytes(FixturePath("store_v3.bin"));
  ASSERT_GT(golden.size(), 32u);

  std::string dir = ::testing::TempDir();
  WriteBytes(dir + "/truncated.bin", golden.substr(0, golden.size() / 2));
  EXPECT_FALSE(ReadLegacyStore(dir + "/truncated.bin").ok());

  std::string flipped = golden;
  flipped[golden.size() / 2] =
      static_cast<char>(flipped[golden.size() / 2] ^ 0x5a);
  WriteBytes(dir + "/flipped.bin", flipped);
  EXPECT_FALSE(ReadLegacyStore(dir + "/flipped.bin").ok())
      << "a flipped byte must fail the checksum";
  std::remove((dir + "/truncated.bin").c_str());
  std::remove((dir + "/flipped.bin").c_str());
}

TEST(StoreBackcompatTest, OversizedVectorLengthIsCorruptionNotACrash) {
  // 62 bytes with a valid v2 checksum: one entry, two specializations
  // declared, and the first one's only surrogate claims 0xFFFFFFFF
  // (term, weight) pairs with no bytes left. Sizing an allocation by
  // that length asks for 64 GiB; the reader must reject it instead.
  std::string body;
  auto u32 = [&](uint32_t v) { body.append(reinterpret_cast<char*>(&v), 4); };
  auto u64 = [&](uint64_t v) { body.append(reinterpret_cast<char*>(&v), 8); };
  u32(2);   // format version
  u64(13);  // store version
  u64(1);   // entry count
  u32(1);
  body += "q";
  u32(2);  // specializations
  u32(1);
  body += "a";
  const double probability = 0.5;
  body.append(reinterpret_cast<const char*>(&probability), 8);
  u32(1);            // surrogates
  u32(0xFFFFFFFFu);  // entries in the surrogate
  const uint64_t checksum = util::Fnv1a64(body.data(), body.size());
  std::string bytes = "OSDS" + body;
  bytes.append(reinterpret_cast<const char*>(&checksum), 8);
  ASSERT_EQ(bytes.size(), 62u);

  std::string path = ::testing::TempDir() + "/oversized_vector.bin";
  WriteBytes(path, bytes);
  auto read = ReadLegacyStore(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), util::StatusCode::kCorruption)
      << read.status().ToString();
  std::remove(path.c_str());
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
    EXPECT_FALSE(DiversificationStore::Load(dir + "/" + name).ok()) << why;
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
