// Tests for parallel OptSelect, the paper's Section 6 future work (iii):
// bit-identical to serial OptSelect at every thread count, reachable
// through the diversifier factory, and safe on inputs too small to
// split.

#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/optselect.h"
#include "core/parallel_optselect.h"
#include "util/rng.h"

namespace optselect {
namespace {

core::UtilityMatrix RandomUtilities(util::Rng* rng,
                                    core::DiversificationInput* input,
                                    size_t n, size_t m) {
  core::UtilityMatrix u(n, m);
  double total = 0;
  std::vector<double> probs(m);
  for (double& p : probs) {
    p = rng->UniformDouble() + 0.05;
    total += p;
  }
  for (size_t j = 0; j < m; ++j) {
    core::SpecializationProfile sp;
    sp.probability = probs[j] / total;
    input->specializations.push_back(sp);
  }
  for (size_t i = 0; i < n; ++i) {
    core::Candidate c;
    c.doc = static_cast<DocId>(i);
    c.relevance = rng->UniformDouble();
    input->candidates.push_back(c);
    for (size_t j = 0; j < m; ++j) {
      if (rng->Bernoulli(0.4)) u.Set(i, j, rng->UniformDouble());
    }
  }
  return u;
}

class ParallelOptSelectTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelOptSelectTest,
                         ::testing::Values(1, 2, 4, 8));

TEST_P(ParallelOptSelectTest, BitIdenticalToSerial) {
  util::Rng rng(404 + GetParam());
  for (int round = 0; round < 6; ++round) {
    core::DiversificationInput input;
    size_t n = 2000 + rng.Uniform(6000);
    size_t m = 2 + rng.Uniform(6);
    core::UtilityMatrix u = RandomUtilities(&rng, &input, n, m);

    core::DiversifyParams params;
    params.k = 1 + rng.Uniform(200);

    core::OptSelectDiversifier serial;
    core::ParallelOptSelectDiversifier parallel(GetParam());
    EXPECT_EQ(serial.Select(input, u, params),
              parallel.Select(input, u, params))
        << "n=" << n << " m=" << m << " k=" << params.k;
  }
}

TEST(ParallelOptSelectTest2, FactoryCreatesParallelVariant) {
  auto r = core::MakeDiversifier("parallel-optselect");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->name(), "ParallelOptSelect");
}

TEST(ParallelOptSelectTest2, SmallInputFallsBackGracefully) {
  util::Rng rng(11);
  core::DiversificationInput input;
  core::UtilityMatrix u = RandomUtilities(&rng, &input, 10, 3);
  core::ParallelOptSelectDiversifier parallel(8);
  core::DiversifyParams params;
  params.k = 5;
  EXPECT_EQ(parallel.Select(input, u, params).size(), 5u);
}

}  // namespace
}  // namespace optselect
