// Failure-injection and fuzz-style robustness tests: random-byte inputs
// through the text pipeline, malformed files through every loader, and
// adversarial parameter values through the algorithms. Nothing here may
// crash, hang, or return out-of-contract values.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/optselect.h"
#include "core/select_view.h"
#include "core/utility.h"
#include "eval/trec_io.h"
#include "querylog/query_log.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "text/analyzer.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"
#include "util/hash.h"
#include "util/rng.h"

namespace optselect {
namespace {

std::string RandomBytes(util::Rng* rng, size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return s;
}

std::string RandomAsciiWord(util::Rng* rng, size_t max_len) {
  std::string s;
  size_t len = 1 + rng->Uniform(max_len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->Uniform(26)));
  }
  return s;
}

// ------------------------------------------------------- Text pipeline

TEST(FuzzTest, TokenizerSurvivesRandomBytes) {
  util::Rng rng(1);
  text::Tokenizer tokenizer;
  for (int round = 0; round < 200; ++round) {
    std::string input = RandomBytes(&rng, rng.Uniform(2000));
    std::vector<std::string> tokens = tokenizer.Tokenize(input);
    for (const std::string& t : tokens) {
      EXPECT_FALSE(t.empty());
      EXPECT_LE(t.size(), tokenizer.options().max_token_length);
      for (char c : t) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)));
        EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)));
      }
    }
  }
}

TEST(FuzzTest, StemmerSurvivesRandomWords) {
  // Porter stemming is deterministic and never grows a word, but it is
  // *not* idempotent on arbitrary strings (a known property of the
  // algorithm — e.g. artificial "...ee" endings lose one 'e' per pass);
  // idempotence on real vocabulary is covered in text_test.cc.
  util::Rng rng(2);
  text::PorterStemmer stemmer;
  for (int round = 0; round < 2000; ++round) {
    std::string word = RandomAsciiWord(&rng, 24);
    std::string once = stemmer.Stem(word);
    EXPECT_LE(once.size(), word.size());
    EXPECT_FALSE(once.empty());
    EXPECT_EQ(stemmer.Stem(word), once) << "non-deterministic on " << word;
    // Repeated stemming terminates (strictly shrinking or fixed).
    std::string prev = once;
    for (int pass = 0; pass < 30; ++pass) {
      std::string next = stemmer.Stem(prev);
      ASSERT_LE(next.size(), prev.size());
      if (next == prev) break;
      prev = next;
    }
  }
}

TEST(FuzzTest, AnalyzerSurvivesRandomBytes) {
  util::Rng rng(3);
  text::Analyzer analyzer;
  for (int round = 0; round < 100; ++round) {
    std::string input = RandomBytes(&rng, rng.Uniform(4000));
    std::vector<text::TermId> ids = analyzer.Analyze(input);
    for (text::TermId id : ids) {
      EXPECT_LT(id, analyzer.vocabulary().size());
    }
    // Read-only analysis never grows the vocabulary.
    size_t before = analyzer.vocabulary().size();
    analyzer.AnalyzeReadOnly(RandomBytes(&rng, 500));
    EXPECT_EQ(analyzer.vocabulary().size(), before);
  }
}

// ------------------------------------------------------------ Loaders

class GarbageFileTest : public ::testing::Test {
 protected:
  std::string WriteGarbage(const std::string& name, const std::string& data) {
    std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    return path;
  }
};

TEST_F(GarbageFileTest, QueryLogLoaderNeverCrashes) {
  util::Rng rng(4);
  for (int round = 0; round < 30; ++round) {
    std::string path = WriteGarbage(
        "garbage_log.tsv", RandomBytes(&rng, rng.Uniform(3000)));
    auto result = querylog::QueryLog::LoadTsv(path);
    // Either parses (random bytes can form valid lines) or errors; both
    // are acceptable — crashing is not.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
    }
    std::remove(path.c_str());
  }
}

TEST_F(GarbageFileTest, StoreLoaderNeverCrashes) {
  // Map, the one store reader. "OSV4" and random bytes fail its
  // validation.
  util::Rng rng(5);
  for (int round = 0; round < 30; ++round) {
    std::string path = WriteGarbage(
        "garbage_store.bin", "OSV4" + RandomBytes(&rng, rng.Uniform(2000)));
    auto result = store::MappedStoreFile::Map(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
    std::remove(path.c_str());
  }

  // Damaged fields behind valid checksums: take the golden v4 fixture,
  // overwrite a few bytes, u32s or u64s past the magic (lengths,
  // counts, offsets and values, often tiny or huge ones), and recompute
  // both checksums, so only Map's field validation stands between the
  // damage and serving. Map must refuse the file as corruption or map
  // it. A store that maps must materialize, and OptSelect must select
  // over every plan it holds, read in place as serving reads it.
  std::ifstream in(std::string(OPTSELECT_TEST_DATA_DIR) + "/store_v4.bin",
                   std::ios::binary);
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  constexpr size_t kHeaderBytes = 64;
  constexpr size_t kBodyChecksumAt = 48;    // FNV-1a of [64, size)
  constexpr size_t kHeaderChecksumAt = 56;  // FNV-1a of [0, 56)
  ASSERT_GT(golden.size(), kHeaderBytes);
  constexpr size_t kWidths[] = {1, 4, 8};
  core::OptSelectDiversifier optselect;
  core::SelectScratch scratch;
  core::DiversifyParams params;
  std::vector<size_t> picks;
  size_t mapped = 0;
  for (int round = 0; round < 300; ++round) {
    std::string blob = golden;
    for (size_t hits = 1 + rng.Uniform(3); hits > 0; --hits) {
      const size_t width = kWidths[rng.Uniform(3)];
      const size_t at = 4 + rng.Uniform(blob.size() - 4 - width + 1);
      if (at < kHeaderBytes && at + width > kBodyChecksumAt) {
        continue;  // the checksum slots are recomputed below
      }
      uint64_t value = rng.Next();
      if (rng.Uniform(3) == 0) value %= 256;
      if (rng.Uniform(3) == 0) value |= 0xFFFFFFFFFFFF0000ull;
      std::memcpy(&blob[at], &value, width);
    }
    const uint64_t body = util::Fnv1a64(blob.data() + kHeaderBytes,
                                        blob.size() - kHeaderBytes);
    std::memcpy(&blob[kBodyChecksumAt], &body, sizeof(body));
    const uint64_t header = util::Fnv1a64(blob.data(), kHeaderChecksumAt);
    std::memcpy(&blob[kHeaderChecksumAt], &header, sizeof(header));

    std::string path = WriteGarbage("damaged_store.bin", blob);
    auto result = store::MappedStoreFile::Map(path);
    std::remove(path.c_str());
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption)
          << result.status().ToString();
      continue;
    }
    ++mapped;
    const store::MappedStoreFile& file = *result.value();
    EXPECT_LE(file.Materialize().size(), file.entry_count());
    for (const store::MappedEntry& entry : file.entries()) {
      if (!entry.has_plan) continue;
      const core::DiversificationView view = entry.plan.View();
      optselect.SelectInto(view, params, &scratch, &picks);
      EXPECT_EQ(picks.size(), std::min(params.k, view.num_candidates));
      std::vector<char> seen(view.num_candidates, 0);
      for (size_t i : picks) {
        ASSERT_LT(i, view.num_candidates) << entry.key;
        EXPECT_FALSE(seen[i]) << entry.key << " duplicated index";
        seen[i] = 1;
      }
    }
  }
  // Damage to padding, strings and values leaves files that map, so
  // the selection half above ran.
  EXPECT_GT(mapped, 0u);
}

TEST_F(GarbageFileTest, TrecLoadersRejectGarbage) {
  util::Rng rng(6);
  for (int round = 0; round < 20; ++round) {
    std::string path =
        WriteGarbage("garbage_trec.txt", RandomBytes(&rng, 500));
    // Any of: parse error, or (rarely) an accepted parse — never a crash.
    (void)eval::LoadTopics(path);
    (void)eval::LoadQrels(path);
    (void)eval::LoadRun(path);
    std::remove(path.c_str());
  }
}

// --------------------------------------------------- Algorithm contracts

TEST(AdversarialInputTest, AlgorithmsHandleDegenerateUtilities) {
  // All-zero utilities, zero relevance, extreme λ: selections must still
  // be k distinct valid indices.
  core::DiversificationInput input;
  input.query = "q";
  for (int i = 0; i < 20; ++i) {
    core::Candidate c;
    c.doc = static_cast<DocId>(i);
    c.relevance = 0.0;
    input.candidates.push_back(c);
  }
  for (int j = 0; j < 3; ++j) {
    core::SpecializationProfile sp;
    sp.probability = 1.0 / 3.0;
    input.specializations.push_back(sp);
  }
  core::UtilityMatrix zeros(20, 3);

  for (const std::string& name : core::AvailableDiversifiers()) {
    auto algo = std::move(core::MakeDiversifier(name)).value();
    for (double lambda : {0.0, 0.5, 1.0}) {
      core::DiversifyParams params;
      params.k = 7;
      params.lambda = lambda;
      auto picks = algo->Select(input, zeros, params);
      EXPECT_EQ(picks.size(), 7u) << name << " λ=" << lambda;
      std::vector<char> seen(20, 0);
      for (size_t i : picks) {
        ASSERT_LT(i, 20u);
        EXPECT_FALSE(seen[i]) << name << " duplicated index";
        seen[i] = 1;
      }
    }
  }
}

TEST(AdversarialInputTest, SingleCandidateSingleSpecialization) {
  core::DiversificationInput input;
  input.query = "q";
  core::Candidate c;
  c.doc = 0;
  c.relevance = 1.0;
  input.candidates.push_back(c);
  core::SpecializationProfile sp;
  sp.probability = 1.0;
  input.specializations.push_back(sp);
  core::UtilityMatrix u(1, 1);
  u.Set(0, 0, 0.5);

  for (const std::string& name : core::AvailableDiversifiers()) {
    auto algo = std::move(core::MakeDiversifier(name)).value();
    core::DiversifyParams params;
    params.k = 10;
    EXPECT_EQ(algo->Select(input, u, params),
              (std::vector<size_t>{0})) << name;
  }
}

TEST(AdversarialInputTest, UtilityComputerHandlesEmptyVectors) {
  core::DiversificationInput input;
  input.query = "q";
  core::Candidate c;
  c.doc = 0;  // empty vector
  input.candidates.push_back(c);
  core::SpecializationProfile sp;
  sp.probability = 1.0;
  sp.results.push_back(text::TermVector());  // empty reference too
  input.specializations.push_back(sp);
  core::UtilityMatrix m = core::UtilityComputer().Compute(input);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(AdversarialInputTest, NegativeThresholdKeepsEverything) {
  text::TermVector d = text::TermVector::FromTermIds({1});
  std::vector<text::TermVector> refs = {text::TermVector::FromTermIds({2})};
  core::UtilityComputer computer(core::UtilityComputer::Options{-1.0});
  // Orthogonal vectors: utility 0, but a negative threshold must not
  // manufacture values.
  EXPECT_DOUBLE_EQ(computer.NormalizedUtility(d, refs), 0.0);
}

}  // namespace
}  // namespace optselect
