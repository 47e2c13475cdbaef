// Tests for the streaming cold path's per-candidate work.
//
//   rows        — pipeline::ComputeUtilityRow (a scatter-gather over the
//                 candidate's term ids) equals UtilityComputer::Compute's
//                 merge-cosine row bit for bit, for heap (`results`) and
//                 mapped (`spans`) references: over every candidate of
//                 every stored entry of the Small testbed, and on edge
//                 cases (zero-norm candidate, empty R_q′, reference ids
//                 past every candidate id, negative weights, non-finite
//                 and signed-zero weights, subnormal products, the
//                 intersection shapes a sparse dot can take).
//   stream      — CandidateStream yields BuildCandidates' relevance and
//                 surrogate for every position.
//   concurrency — 4 threads sharing one testbed (the analyzer's token
//                 memo, the posting lists the searcher merges, the
//                 direct index, the extractor's idf table, each thread's
//                 own id counter and scatter buffer) reproduce a
//                 single-threaded pass: retrieval lists, surrogates and
//                 rows. CI runs this binary under ThreadSanitizer.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate.h"
#include "core/utility.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/diversification_pipeline.h"
#include "pipeline/testbed.h"
#include "store/diversification_store.h"
#include "store/mapped_store.h"
#include "store/store_builder.h"

namespace optselect {
namespace pipeline {
namespace {

using text::TermId;
using text::TermVector;

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Owns SoA term/weight columns shaped like a mapped store-v4
/// surrogate list, carrying the heap vectors' exact bits.
class SpanColumns {
 public:
  explicit SpanColumns(const std::vector<TermVector>& vectors)
      : terms_(vectors.size()), weights_(vectors.size()) {
    for (size_t r = 0; r < vectors.size(); ++r) {
      for (const auto& [t, w] : vectors[r].entries()) {
        terms_[r].push_back(t);
        weights_[r].push_back(w);
      }
      text::TermVectorSpan span;
      span.terms = terms_[r].data();
      span.weights = weights_[r].data();
      span.size = static_cast<uint32_t>(terms_[r].size());
      span.norm = vectors[r].norm();
      spans_.push_back(span);
    }
  }
  const std::vector<text::TermVectorSpan>* spans() const { return &spans_; }

 private:
  std::vector<std::vector<uint32_t>> terms_;
  std::vector<std::vector<double>> weights_;
  std::vector<text::TermVectorSpan> spans_;
};

/// Asserts that ComputeUtilityRow over heap and over span references
/// reproduces UtilityComputer::Compute's row for `doc`, bit for bit.
void ExpectRowMatchesCompute(const TermVector& doc,
                             const std::vector<std::vector<TermVector>>& specs,
                             double threshold_c, const std::string& where) {
  const size_t m = specs.size();
  core::DiversificationInput input;
  core::Candidate candidate;
  candidate.doc = 0;
  candidate.vector = doc;
  input.candidates.push_back(candidate);
  std::vector<SpanColumns> columns;
  columns.reserve(m);
  std::vector<SpecializationRef> heap_refs(m);
  std::vector<SpecializationRef> span_refs(m);
  for (size_t j = 0; j < m; ++j) {
    core::SpecializationProfile profile;
    profile.probability = 1.0 / static_cast<double>(m);
    profile.results = specs[j];
    input.specializations.push_back(profile);
    columns.emplace_back(specs[j]);
    heap_refs[j].probability = span_refs[j].probability = profile.probability;
    heap_refs[j].results = &specs[j];
    span_refs[j].spans = columns.back().spans();
  }
  core::UtilityMatrix want =
      core::UtilityComputer(core::UtilityComputer::Options{threshold_c})
          .Compute(input);
  std::vector<double> inv = InverseHarmonics(heap_refs);
  std::vector<double> heap_row(m, -1.0);
  std::vector<double> span_row(m, -1.0);
  ComputeUtilityRow(doc, heap_refs, inv, threshold_c, heap_row.data());
  ComputeUtilityRow(doc, span_refs, inv, threshold_c, span_row.data());
  for (size_t j = 0; j < m; ++j) {
    EXPECT_EQ(Bits(heap_row[j]), Bits(want.At(0, j)))
        << where << " heap spec " << j << ": " << heap_row[j] << " vs "
        << want.At(0, j);
    EXPECT_EQ(Bits(span_row[j]), Bits(want.At(0, j)))
        << where << " span spec " << j << ": " << span_row[j] << " vs "
        << want.At(0, j);
  }
}

TermVector Vec(std::vector<TermVector::Entry> entries) {
  return TermVector::FromEntries(std::move(entries));
}

// ---------------------------------------------------------- edge cases

TEST(ComputeUtilityRowTest, ZeroNormCandidate) {
  std::vector<std::vector<TermVector>> specs = {
      {Vec({{1, 1.0}, {2, 0.5}}), Vec({{2, 2.0}})}, {Vec({{7, 1.0}})}};
  ExpectRowMatchesCompute(TermVector(), specs, 0.0, "empty candidate");
  // Non-empty, but the squared weights underflow: norm is exactly 0.
  TermVector tiny = Vec({{1, 1e-200}, {2, 1e-200}});
  ASSERT_FALSE(tiny.empty());
  ASSERT_EQ(tiny.norm(), 0.0);
  ExpectRowMatchesCompute(tiny, specs, 0.0, "underflowed norm");
  // A zero-norm reference scores 0 against any candidate.
  ExpectRowMatchesCompute(Vec({{1, 1.0}}), {{tiny, Vec({{1, 1.0}})}}, 0.0,
                          "zero-norm reference");
}

TEST(ComputeUtilityRowTest, EmptyReferenceList) {
  TermVector doc = Vec({{1, 1.0}, {3, 2.0}});
  ExpectRowMatchesCompute(doc, {{}, {Vec({{1, 1.0}})}, {}}, 0.0,
                          "empty R_q'");
  ExpectRowMatchesCompute(doc, {{}}, 0.0, "only an empty R_q'");
}

TEST(ComputeUtilityRowTest, ReferenceIdsPastEveryCandidateId) {
  TermVector doc = Vec({{1, 1.0}, {5, 0.5}, {9, 2.0}});
  std::vector<std::vector<TermVector>> specs = {
      // Matches below the candidate's largest id, then ids past it.
      {Vec({{5, 1.5}, {100, 1.0}, {4000000000u, 3.0},
            {text::kInvalidTermId, 2.0}})},
      // Nothing but ids past the candidate's.
      {Vec({{10, 1.0}, {text::kInvalidTermId, 1.0}}),
       Vec({{text::kInvalidTermId, 4.0}})},
      // The candidate's largest id itself, at the end of the reference.
      {Vec({{9, 0.25}})}};
  ExpectRowMatchesCompute(doc, specs, 0.0, "ids past the candidate");
}

TEST(ComputeUtilityRowTest, NonFiniteReferenceWeightsOffTheCandidate) {
  // The merge never multiplies a reference weight whose term the
  // candidate lacks; the gather must not either (0·inf is NaN).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TermVector doc = Vec({{2, 1.0}, {6, 0.5}});
  std::vector<std::vector<TermVector>> specs = {
      {Vec({{1, inf}, {2, 1.0}, {3, nan}, {6, 2.0}})},
      {Vec({{4, -inf}, {6, 1.0}})}};
  ExpectRowMatchesCompute(doc, specs, 0.0, "non-finite off the candidate");
}

TEST(ComputeUtilityRowTest, NaNOnTheCandidateSide) {
  // A NaN candidate weight is gathered like any non-zero one: a matched
  // NaN reaches the dot, and the candidate's norm is NaN either way.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TermVector doc = Vec({{2, nan}, {6, 0.5}});
  std::vector<std::vector<TermVector>> specs = {
      {Vec({{2, 1.0}, {6, 2.0}})},  // matches the NaN
      {Vec({{6, 1.0}, {9, 3.0}})},  // matches around it
      {Vec({{1, 1.0}})}};           // matches nothing
  ExpectRowMatchesCompute(doc, specs, 0.0, "NaN candidate weight");
  ExpectRowMatchesCompute(doc, specs, 0.3, "NaN candidate weight, c=0.3");
}

TEST(ComputeUtilityRowTest, NegativeZeroReferenceWeightOnAMatchedTerm) {
  // FromEntries drops zero weights; FromSortedEntries keeps a −0.0, as a
  // mapped column can hold one. Its product with a matched term is a
  // signed zero, which both sums add.
  TermVector doc = Vec({{2, 1.0}, {4, -2.0}, {6, 0.5}});
  std::vector<std::vector<TermVector>> specs = {
      // The first matched product is −0.0 (1.0·−0.0), then +0.0
      // (−2.0·−0.0), then a real one.
      {TermVector::FromSortedEntries({{2, -0.0}, {4, -0.0}, {6, 1.0}})},
      // −0.0 the only match: the dot is +0.0 + −0.0.
      {TermVector::FromSortedEntries({{1, 1.0}, {2, -0.0}, {9, 1.0}})}};
  ExpectRowMatchesCompute(doc, specs, 0.0, "-0.0 reference weight");
}

TEST(ComputeUtilityRowTest, ProductsThatUnderflow) {
  // 1e-160·1e-160 is the subnormal 1e-320; 1e-200·1e-200 underflows to
  // +0.0. The larger weights keep both norms normal, so the cosines
  // carry the tiny dots.
  TermVector doc = Vec({{1, 1e-160}, {2, 1e-200}, {3, 1.0}});
  std::vector<std::vector<TermVector>> specs = {
      {Vec({{1, 1e-160}, {5, 1.0}})},                // dot subnormal
      {Vec({{2, 1e-200}, {5, 1.0}})},                // dot +0.0
      {Vec({{1, 1e-160}, {2, -1e-200}, {4, 1.0}})},  // both, then −0.0
      {Vec({{1, -1e-160}, {3, 1e-300}})}};           // two subnormals
  ExpectRowMatchesCompute(doc, specs, 0.0, "underflowing products");
}

TEST(ComputeUtilityRowTest, NegativeWeights) {
  TermVector doc = Vec({{1, -1.0}, {2, 0.5}, {3, 2.0}});
  std::vector<std::vector<TermVector>> specs = {
      {Vec({{1, 1.0}, {2, -0.25}})},             // negative cosine
      {Vec({{1, -3.0}, {3, 1.0}}), Vec({{2, -1.0}})},
      {Vec({{1, -1.0}, {2, 0.5}, {3, 2.0}})}};  // identical: cosine 1
  ExpectRowMatchesCompute(doc, specs, 0.0, "negative weights");
  ExpectRowMatchesCompute(doc, specs, 0.3, "negative weights, c=0.3");
}

TEST(ComputeUtilityRowTest, IntersectionShapes) {
  // The sparse-dot shapes: both or one side empty, identical, disjoint
  // interleave, disjoint ranges, one match mid-list, sparse subset, and
  // long random lists with ~50% overlap.
  struct Case {
    std::vector<uint32_t> a, b;
  };
  std::vector<Case> cases = {
      {{}, {}},
      {{1, 2, 3}, {}},
      {{}, {1, 2, 3}},
      {{1, 2, 3}, {1, 2, 3}},
      {{1, 3, 5, 7}, {2, 4, 6, 8}},
      {{1, 2, 3, 4}, {100, 200}},
      {{100, 200}, {1, 2, 3, 4}},
      {{1, 50, 100}, {50}},
      {{0, 7, 9, 13, 40, 41, 42}, {7, 13, 42}},
  };
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 20; ++trial) {
    Case c;
    for (uint32_t t = 0; t < 300; ++t) {
      if (rng() % 2) c.a.push_back(t);
      if (rng() % 2) c.b.push_back(t);
    }
    cases.push_back(std::move(c));
  }
  std::uniform_real_distribution<double> weight(0.25, 2.0);
  auto make = [&](const std::vector<uint32_t>& terms) {
    std::vector<TermVector::Entry> e;
    for (uint32_t t : terms) e.push_back({t, weight(rng)});
    return Vec(std::move(e));
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    TermVector a = make(cases[i].a);
    TermVector b = make(cases[i].b);
    // One reference, then the pair in both rank orders.
    ExpectRowMatchesCompute(a, {{b}, {b, a}, {a, b}}, 0.0,
                            "case " + std::to_string(i));
  }
}

// ------------------------------------------------- the Small testbed

class ColdPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    testbed_ = new Testbed(TestbedConfig::Small());
    store_ = new store::DiversificationStore();
    std::vector<std::string> roots;
    for (const auto& topic : testbed_->universe().topics) {
      roots.push_back(topic.root_query);
    }
    store::BuildStore(testbed_->detector(), testbed_->searcher(),
                      testbed_->snippets(), testbed_->analyzer(),
                      testbed_->corpus().store, roots, {}, store_);
    ASSERT_GE(store_->size(), 2u);
    path_ = new std::string(::testing::TempDir() + "/cold_path_v4.bin");
    ASSERT_TRUE(store_->Save(*path_).ok());
    auto mapped = store::MappedStoreFile::Map(*path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    file_ = new std::shared_ptr<const store::MappedStoreFile>(
        std::move(mapped).value());
  }
  static void TearDownTestSuite() {
    delete file_;
    std::remove(path_->c_str());
    delete path_;
    delete store_;
    delete testbed_;
    file_ = nullptr;
    path_ = nullptr;
    store_ = nullptr;
    testbed_ = nullptr;
  }

  static constexpr size_t kCandidates = 100;

  static Testbed* testbed_;
  static store::DiversificationStore* store_;
  static std::string* path_;
  static std::shared_ptr<const store::MappedStoreFile>* file_;
};

Testbed* ColdPathTest::testbed_ = nullptr;
store::DiversificationStore* ColdPathTest::store_ = nullptr;
std::string* ColdPathTest::path_ = nullptr;
std::shared_ptr<const store::MappedStoreFile>* ColdPathTest::file_ =
    nullptr;

TEST_F(ColdPathTest, RowsMatchComputeForHeapAndMappedReferences) {
  size_t rows = 0;
  for (const store::MappedEntry& mapped : (*file_)->entries()) {
    const store::StoredEntry* heap = store_->Find(mapped.key);
    ASSERT_NE(heap, nullptr) << mapped.key;
    std::vector<TermId> terms =
        testbed_->analyzer().AnalyzeReadOnly(std::string(mapped.key));
    index::ResultList rq =
        testbed_->searcher().SearchTerms(terms, kCandidates);
    core::DiversificationInput input;
    input.candidates = BuildCandidates(rq, testbed_->snippets(),
                                       testbed_->corpus().store, terms);
    input.specializations =
        store::DiversificationStore::ToProfiles(*heap);

    const size_t m = heap->specializations.size();
    ASSERT_EQ(mapped.specializations.size(), m);
    std::vector<SpecializationRef> heap_refs(m);
    std::vector<SpecializationRef> span_refs(m);
    for (size_t j = 0; j < m; ++j) {
      heap_refs[j].probability = heap->specializations[j].probability;
      heap_refs[j].results = &heap->specializations[j].surrogates;
      span_refs[j].probability = mapped.specializations[j].probability;
      span_refs[j].spans = &mapped.specializations[j].surrogates;
    }
    std::vector<double> inv = InverseHarmonics(heap_refs);
    for (double c : {0.0, 0.3}) {
      core::UtilityMatrix want =
          core::UtilityComputer(core::UtilityComputer::Options{c})
              .Compute(input);
      std::vector<double> heap_row(m);
      std::vector<double> span_row(m);
      for (size_t i = 0; i < input.candidates.size(); ++i) {
        const TermVector& doc = input.candidates[i].vector;
        ComputeUtilityRow(doc, heap_refs, inv, c, heap_row.data());
        ComputeUtilityRow(doc, span_refs, inv, c, span_row.data());
        for (size_t j = 0; j < m; ++j) {
          ASSERT_EQ(Bits(heap_row[j]), Bits(want.At(i, j)))
              << mapped.key << " c=" << c << " candidate " << i << " spec "
              << j;
          ASSERT_EQ(Bits(span_row[j]), Bits(want.At(i, j)))
              << mapped.key << " c=" << c << " candidate " << i << " spec "
              << j;
        }
        ++rows;
      }
    }
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(ColdPathTest, StreamYieldsBuildCandidates) {
  for (const store::MappedEntry& mapped : (*file_)->entries()) {
    std::vector<TermId> terms =
        testbed_->analyzer().AnalyzeReadOnly(std::string(mapped.key));
    index::ResultList rq =
        testbed_->searcher().SearchTerms(terms, kCandidates);
    std::vector<core::Candidate> want = BuildCandidates(
        rq, testbed_->snippets(), testbed_->corpus().store, terms);
    CandidateStream stream(&rq, &testbed_->snippets(),
                           &testbed_->corpus().store, &terms);
    ASSERT_EQ(stream.size(), want.size());
    for (; !stream.Done(); stream.Advance()) {
      const core::Candidate& c = want[stream.position()];
      EXPECT_EQ(stream.doc(), c.doc);
      EXPECT_EQ(Bits(stream.relevance()), Bits(c.relevance));
      // Materialize every other candidate, as a pruning scan would.
      if (stream.position() % 2 == 1) continue;
      const TermVector& v = stream.Materialize();
      EXPECT_EQ(v.entries(), c.vector.entries());
      EXPECT_EQ(Bits(v.norm()), Bits(c.vector.norm()));
    }
    EXPECT_EQ(stream.materialized(), (want.size() + 1) / 2);
  }
}

/// Every output of one cold-path pass over the stored entries: query
/// term ids, candidate surrogates and utility rows over the mapped
/// references.
struct PassOutput {
  std::vector<std::vector<TermId>> terms;
  std::vector<index::ResultList> hits;
  std::vector<TermVector> surrogates;
  std::vector<double> rows;
};

PassOutput RunPass(const Testbed& tb, const store::MappedStoreFile& file) {
  PassOutput out;
  for (const store::MappedEntry& mapped : file.entries()) {
    std::vector<TermId> terms =
        tb.analyzer().AnalyzeReadOnly(std::string(mapped.key));
    out.terms.push_back(terms);
    const size_t m = mapped.specializations.size();
    std::vector<SpecializationRef> refs(m);
    for (size_t j = 0; j < m; ++j) {
      refs[j].probability = mapped.specializations[j].probability;
      refs[j].spans = &mapped.specializations[j].surrogates;
    }
    std::vector<double> inv = InverseHarmonics(refs);
    std::vector<double> row(m);
    out.hits.push_back(tb.searcher().SearchTerms(terms, 50));
    for (const index::SearchResult& hit : out.hits.back()) {
      TermVector v =
          tb.snippets().ExtractVector(tb.corpus().store.Get(hit.doc), terms);
      ComputeUtilityRow(v, refs, inv, 0.3, row.data());
      out.rows.insert(out.rows.end(), row.begin(), row.end());
      out.surrogates.push_back(std::move(v));
    }
  }
  return out;
}

TEST_F(ColdPathTest, ConcurrentPassesMatchSingleThreaded) {
  const PassOutput want = RunPass(*testbed_, **file_);
  ASSERT_FALSE(want.rows.empty());
  constexpr int kThreads = 4;
  std::vector<PassOutput> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { got[t] = RunPass(*testbed_, **file_); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t].terms, want.terms) << "thread " << t;
    ASSERT_EQ(got[t].hits.size(), want.hits.size());
    for (size_t q = 0; q < want.hits.size(); ++q) {
      ASSERT_EQ(got[t].hits[q].size(), want.hits[q].size())
          << "thread " << t << " query " << q;
      for (size_t i = 0; i < want.hits[q].size(); ++i) {
        EXPECT_EQ(got[t].hits[q][i].doc, want.hits[q][i].doc)
            << "thread " << t << " query " << q << " rank " << i;
        EXPECT_EQ(Bits(got[t].hits[q][i].score), Bits(want.hits[q][i].score))
            << "thread " << t << " query " << q << " rank " << i;
      }
    }
    ASSERT_EQ(got[t].surrogates.size(), want.surrogates.size());
    for (size_t i = 0; i < want.surrogates.size(); ++i) {
      EXPECT_EQ(got[t].surrogates[i].entries(), want.surrogates[i].entries())
          << "thread " << t << " surrogate " << i;
      EXPECT_EQ(Bits(got[t].surrogates[i].norm()),
                Bits(want.surrogates[i].norm()));
    }
    ASSERT_EQ(got[t].rows.size(), want.rows.size());
    for (size_t i = 0; i < want.rows.size(); ++i) {
      ASSERT_EQ(Bits(got[t].rows[i]), Bits(want.rows[i]))
          << "thread " << t << " row value " << i;
    }
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace optselect
