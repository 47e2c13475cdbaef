// Unit and property tests for the core utility function (Definition 2)
// and the bounded heaps backing Algorithm 2.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/bounded_heap.h"
#include "core/candidate.h"
#include "core/utility.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace optselect {
namespace core {
namespace {

using text::TermVector;

// ------------------------------------------------------------- BoundedTopK

TEST(BoundedTopKTest, KeepsLargestKeys) {
  BoundedTopK<int> heap(3);
  for (int i = 0; i < 10; ++i) {
    heap.Push(static_cast<double>(i), i);
  }
  auto out = heap.ExtractDescending();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, 9);
  EXPECT_EQ(out[1].value, 8);
  EXPECT_EQ(out[2].value, 7);
}

TEST(BoundedTopKTest, ZeroCapacityRejectsAll) {
  BoundedTopK<int> heap(0);
  EXPECT_FALSE(heap.Push(1.0, 1));
  EXPECT_TRUE(heap.empty());
}

TEST(BoundedTopKTest, PushReportsRetention) {
  BoundedTopK<int> heap(2);
  EXPECT_TRUE(heap.Push(5.0, 5));
  EXPECT_TRUE(heap.Push(7.0, 7));
  EXPECT_FALSE(heap.Push(1.0, 1));   // below current min
  EXPECT_TRUE(heap.Push(6.0, 6));    // evicts 5
  auto out = heap.ExtractDescending();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, 7);
  EXPECT_EQ(out[1].value, 6);
}

TEST(BoundedTopKTest, MinKeyTracksSmallestRetained) {
  BoundedTopK<int> heap(2);
  heap.Push(3.0, 3);
  heap.Push(9.0, 9);
  EXPECT_DOUBLE_EQ(heap.min_key(), 3.0);
  heap.Push(5.0, 5);
  EXPECT_DOUBLE_EQ(heap.min_key(), 5.0);
}

// Property: against a shuffled stream, the keeper returns exactly the
// top-capacity keys in descending order.
class BoundedTopKPropertyTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Capacities, BoundedTopKPropertyTest,
                         ::testing::Values(1, 2, 5, 16, 64, 333));

TEST_P(BoundedTopKPropertyTest, MatchesSortOnRandomStreams) {
  const size_t capacity = GetParam();
  util::Rng rng(1234 + capacity);
  for (int round = 0; round < 5; ++round) {
    const size_t n = 50 + rng.Uniform(500);
    std::vector<double> keys(n);
    for (double& k : keys) k = rng.UniformDouble() * 100.0;

    BoundedTopK<size_t> heap(capacity);
    for (size_t i = 0; i < n; ++i) heap.Push(keys[i], i);

    std::vector<double> sorted = keys;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    sorted.resize(std::min(capacity, n));

    auto out = heap.ExtractDescending();
    ASSERT_EQ(out.size(), sorted.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_DOUBLE_EQ(out[i].key, sorted[i]) << "position " << i;
    }
  }
}

// ------------------------------------------------------------- RawUtility

TEST(UtilityTest, RawUtilityHandComputed) {
  // d identical to both reference docs: U = 1/1 + 1/2 = 1.5.
  TermVector d = TermVector::FromTermIds({1, 2});
  std::vector<TermVector> rq = {d, d};
  EXPECT_NEAR(UtilityComputer::RawUtility(d, rq), 1.5, 1e-12);
}

TEST(UtilityTest, RawUtilityRankDiscount) {
  TermVector d = TermVector::FromTermIds({1});
  TermVector same = TermVector::FromTermIds({1});
  TermVector other = TermVector::FromTermIds({9});
  // Identical doc at rank 1 vs rank 2: utilities 1 vs 0.5.
  EXPECT_NEAR(UtilityComputer::RawUtility(d, {same, other}), 1.0, 1e-12);
  EXPECT_NEAR(UtilityComputer::RawUtility(d, {other, same}), 0.5, 1e-12);
}

TEST(UtilityTest, NormalizedUtilityInUnitInterval) {
  util::Rng rng(777);
  UtilityComputer computer;
  for (int round = 0; round < 50; ++round) {
    std::vector<text::TermVector::Entry> de;
    for (int t = 0; t < 5; ++t) {
      de.emplace_back(static_cast<text::TermId>(rng.Uniform(20)),
                      rng.UniformDouble() + 0.01);
    }
    TermVector d = TermVector::FromEntries(de);
    std::vector<TermVector> rq;
    for (int j = 0; j < 8; ++j) {
      std::vector<text::TermVector::Entry> re;
      for (int t = 0; t < 5; ++t) {
        re.emplace_back(static_cast<text::TermId>(rng.Uniform(20)),
                        rng.UniformDouble() + 0.01);
      }
      rq.push_back(TermVector::FromEntries(re));
    }
    double u = computer.NormalizedUtility(d, rq);
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-12);
  }
}

TEST(UtilityTest, PerfectMatchNormalizesToOne) {
  // d at distance 0 from every reference doc ⇒ U = H_n ⇒ Ũ = 1.
  TermVector d = TermVector::FromTermIds({4, 5});
  std::vector<TermVector> rq(7, d);
  UtilityComputer computer;
  EXPECT_NEAR(computer.NormalizedUtility(d, rq), 1.0, 1e-12);
}

TEST(UtilityTest, EmptyReferenceListYieldsZero) {
  TermVector d = TermVector::FromTermIds({1});
  UtilityComputer computer;
  EXPECT_DOUBLE_EQ(computer.NormalizedUtility(d, {}), 0.0);
}

TEST(UtilityTest, ThresholdForcesZero) {
  TermVector d = TermVector::FromTermIds({1});
  TermVector weak = TermVector::FromEntries({{1, 1.0}, {2, 10.0}});
  std::vector<TermVector> rq = {weak};
  UtilityComputer no_threshold;
  double u = no_threshold.NormalizedUtility(d, rq);
  ASSERT_GT(u, 0.0);
  ASSERT_LT(u, 0.75);

  UtilityComputer thresholded(UtilityComputer::Options{0.75});
  EXPECT_DOUBLE_EQ(thresholded.NormalizedUtility(d, rq), 0.0);

  // Values above the threshold pass through unchanged.
  UtilityComputer mild(UtilityComputer::Options{u / 2});
  EXPECT_NEAR(mild.NormalizedUtility(d, rq), u, 1e-12);
}

// ------------------------------------------------------------ UtilityMatrix

DiversificationInput TinyInput() {
  DiversificationInput input;
  input.query = "root";
  TermVector a = TermVector::FromTermIds({1, 2});
  TermVector b = TermVector::FromTermIds({3, 4});
  input.candidates.push_back(Candidate{0, 1.0, a});
  input.candidates.push_back(Candidate{1, 0.5, b});

  SpecializationProfile s0;
  s0.query = "root alpha";
  s0.probability = 0.7;
  s0.results = {a};  // only candidate 0 matches
  SpecializationProfile s1;
  s1.query = "root beta";
  s1.probability = 0.3;
  s1.results = {b};  // only candidate 1 matches
  input.specializations = {s0, s1};
  return input;
}

TEST(UtilityMatrixTest, ComputeFillsExpectedCells) {
  DiversificationInput input = TinyInput();
  UtilityComputer computer;
  UtilityMatrix m = computer.Compute(input);
  ASSERT_EQ(m.num_candidates(), 2u);
  ASSERT_EQ(m.num_specializations(), 2u);
  EXPECT_NEAR(m.At(0, 0), 1.0, 1e-12);  // identical, single ref, H_1 = 1
  EXPECT_NEAR(m.At(1, 1), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);    // orthogonal
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
}

TEST(UtilityMatrixTest, WeightedRowSum) {
  DiversificationInput input = TinyInput();
  UtilityMatrix m = UtilityComputer().Compute(input);
  std::vector<double> probs = {0.7, 0.3};
  EXPECT_NEAR(m.WeightedRowSum(0, probs.data()), 0.7, 1e-12);
  EXPECT_NEAR(m.WeightedRowSum(1, probs.data()), 0.3, 1e-12);
}

TEST(UtilityMatrixTest, ThresholdedMatchesDirectCompute) {
  DiversificationInput input = TinyInput();
  input.specializations[1].results = {
      TermVector::FromEntries({{1, 1.0}, {3, 1.0}, {4, 1.0}})};
  const double c = 0.5;
  UtilityMatrix direct =
      UtilityComputer(UtilityComputer::Options{c}).Compute(input);
  UtilityMatrix post = UtilityComputer().Compute(input);
  post.ThresholdInPlace(c);
  for (size_t i = 0; i < direct.num_candidates(); ++i) {
    for (size_t j = 0; j < direct.num_specializations(); ++j) {
      EXPECT_DOUBLE_EQ(direct.At(i, j), post.At(i, j));
    }
  }
}

TEST(UtilityMatrixTest, ThresholdAppliedInBulkCompute) {
  DiversificationInput input = TinyInput();
  // Make candidate 0 weakly similar to specialization 1.
  input.specializations[1].results = {
      TermVector::FromEntries({{1, 1.0}, {3, 1.0}, {4, 1.0}})};
  UtilityMatrix loose = UtilityComputer().Compute(input);
  ASSERT_GT(loose.At(0, 1), 0.0);
  UtilityComputer strict(UtilityComputer::Options{0.99});
  UtilityMatrix tight = strict.Compute(input);
  EXPECT_DOUBLE_EQ(tight.At(0, 1), 0.0);
}

}  // namespace
}  // namespace core
}  // namespace optselect
