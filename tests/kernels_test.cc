// Determinism tests for the runtime-dispatched selection kernels.
//
// The kernels' contract (core/kernels/kernels.h) is that every dispatch
// target produces bit-identical doubles to the scalar reference — the
// blocked reduction order is the canonical definition, not an
// implementation detail. These tests compare the Active() table against
// Scalar() on adversarial shapes (empty, single-lane, odd tails, long
// rows) and random data. On a machine without AVX2/NEON (or under
// OPTSELECT_KERNELS=scalar, which CI forces in one matrix row)
// Active() == Scalar() and the comparisons are trivially exact — the
// point is that on a vector machine they STAY exact. The undispatched
// gather dot is pinned to TermVector::Dot through
// pipeline::ComputeUtilityRow in cold_path_test.cc, and directly here
// on the operands its masked +0.0 adds must not disturb.

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"

namespace optselect {
namespace core {
namespace kernels {
namespace {

std::vector<double> RandomRow(std::mt19937_64* rng, size_t n) {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> row(n);
  for (double& v : row) v = dist(*rng);
  return row;
}

TEST(KernelsTest, ActiveTargetIsNamedAndResolved) {
  std::string name = ActiveName();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon") << name;
  EXPECT_EQ(name, Active().name);
  EXPECT_STREQ(Scalar().name, "scalar");
}

TEST(KernelsTest, WeightedRowSumMatchesScalarBitwise) {
  std::mt19937_64 rng(1234);
  // Every residue class mod 4 (full blocks, tails of 1–3) plus long
  // rows where a vector unit actually engages.
  for (size_t m : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 33u, 256u}) {
    std::vector<double> row = RandomRow(&rng, m);
    std::vector<double> prob = RandomRow(&rng, m);
    double got = Active().weighted_row_sum(row.data(), prob.data(), m);
    double want = Scalar().weighted_row_sum(row.data(), prob.data(), m);
    EXPECT_EQ(got, want) << "m=" << m;  // EQ on doubles: bit-identity
  }
}

TEST(KernelsTest, WeightedRowSumUsesTheBlockedOrder) {
  // The canonical definition spelled out longhand: stripe accumulators
  // combined (acc0+acc1)+(acc2+acc3). Any kernel drifting to a plain
  // sequential sum would differ in the low bits on data like this.
  std::mt19937_64 rng(77);
  std::vector<double> row = RandomRow(&rng, 11);
  std::vector<double> prob = RandomRow(&rng, 11);
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t j = 0; j < row.size(); ++j) acc[j & 3] += prob[j] * row[j];
  double want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  EXPECT_EQ(Active().weighted_row_sum(row.data(), prob.data(), row.size()),
            want);
  EXPECT_EQ(Scalar().weighted_row_sum(row.data(), prob.data(), row.size()),
            want);
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

TEST(KernelsTest, GatherDotMatchesTheMergeDotOnSpecialValues) {
  // Every unmatched term adds a masked +0.0. The sum must still carry
  // the merge's bits when the matched products are NaN, infinite,
  // signed zeros or subnormal, and when the unmatched reference weights
  // are non-finite (0·inf would be NaN).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using text::TermVector;
  struct Case {
    TermVector candidate;
    TermVector reference;
  };
  const Case cases[] = {
      {TermVector::FromSortedEntries({{2, nan}, {6, 0.5}}),
       TermVector::FromSortedEntries({{2, 1.0}, {6, 2.0}})},
      {TermVector::FromSortedEntries({{2, 1.0}, {6, 0.5}}),
       TermVector::FromSortedEntries(
           {{1, inf}, {2, 1.0}, {3, nan}, {6, -inf}})},
      {TermVector::FromSortedEntries({{2, 1.0}, {4, -2.0}}),
       TermVector::FromSortedEntries({{1, -inf}, {2, -0.0}, {4, -0.0}})},
      {TermVector::FromSortedEntries({{1, 1e-160}, {2, 1e-200}, {5, -1.0}}),
       TermVector::FromSortedEntries({{1, 1e-160}, {2, -1e-200}, {3, nan}})},
      {TermVector::FromSortedEntries({{1, -1.0}}),
       TermVector::FromSortedEntries({{0, 1.0}, {1, 0.0}, {7, nan}})},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    const TermVector& a = cases[i].candidate;
    const TermVector& b = cases[i].reference;
    std::vector<double> dense(a.entries().back().first + 1, 0.0);
    for (const auto& [t, w] : a.entries()) dense[t] = w;
    std::vector<uint32_t> terms;
    std::vector<double> weights;
    for (const auto& [t, w] : b.entries()) {
      terms.push_back(t);
      weights.push_back(w);
    }
    const uint64_t want = Bits(a.Dot(b));
    EXPECT_EQ(Bits(GatherDot(dense.data(), dense.size(), b.entries().data(),
                             b.size())),
              want)
        << "case " << i;
    EXPECT_EQ(Bits(GatherDot(dense.data(), dense.size(), terms.data(),
                             weights.data(), terms.size())),
              want)
        << "case " << i;
  }
}

}  // namespace
}  // namespace kernels
}  // namespace core
}  // namespace optselect
