// Randomized differential tests against brute-force oracles.
//
// The optimized selection implementations carry real machinery — the
// bounded heaps and quota draining of OptSelect, the incremental
// coverage products of xQuAD and IASelect — any of which could drift
// from the paper's formulas under refactoring. On small instances
// (n <= 12 candidates) that machinery is unnecessary, so each
// algorithm's selection is recomputed here by a deliberately naive
// oracle that applies the paper's objective directly (full sorts, full
// rescans, coverage products from scratch) and the two must agree
// index-for-index, across 500 seeded instances including heavy-tie
// ones. The oracles accumulate in the same floating-point order as the
// optimized code, so agreement is exact, not approximate.
//
// For IASelect the oracle goes further: Diversify(k) under Eq. 4 is
// small enough to solve *optimally* by enumerating all C(n, k) subsets,
// and the greedy selection must score within the (1 − 1/e) submodular
// approximation bound of that brute-force optimum [Nemhauser 1978].
//
// OptSelect's one engine, the heap stream of core/streaming_select.h,
// also promises an incremental Extend(k → k+Δ): a stream reserved at
// k+Δ answers k and then k+Δ exactly like the oracle at each, without
// re-materializing any candidate. That is checked on every one of the
// 500 instances. A second sweep runs OptSelect, the sharded
// ParallelOptSelect and Extend at serving scale (n in [2048, 8000],
// k up to 1000) against the same oracle, where the heaps are far
// smaller than R_q and the relevance bound prunes.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate.h"
#include "core/iaselect.h"
#include "core/optselect.h"
#include "core/parallel_optselect.h"
#include "core/streaming_select.h"
#include "core/utility.h"
#include "core/xquad.h"
#include "util/rng.h"

namespace optselect {
namespace core {
namespace {

struct Instance {
  DiversificationInput input;
  UtilityMatrix utilities;
  DiversifyParams params;
};

/// Random instance with n candidates and m specializations. With
/// `quantize` every value is a multiple of 1/8 (probabilities up to
/// normalization), so exact ties in relevance, probability and utility
/// are common — the regime where tie-breaking bugs live.
Instance MakeInstance(util::Rng* rng, bool quantize, size_t n, size_t m) {
  Instance instance;
  instance.params.k = 1 + rng->Uniform(n);
  const double lambdas[] = {0.0, 0.15, 0.5, 1.0};
  instance.params.lambda = lambdas[rng->Uniform(4)];

  double norm = 0.0;
  std::vector<double> weights(m);
  for (size_t j = 0; j < m; ++j) {
    weights[j] = quantize ? static_cast<double>(1 + rng->Uniform(4))
                          : rng->UniformDouble() + 0.05;
    norm += weights[j];
  }
  for (size_t j = 0; j < m; ++j) {
    SpecializationProfile profile;
    profile.query = "spec " + std::to_string(j);
    profile.probability = weights[j] / norm;
    instance.input.specializations.push_back(std::move(profile));
  }

  instance.utilities = UtilityMatrix(n, m);
  for (size_t i = 0; i < n; ++i) {
    Candidate candidate;
    candidate.doc = static_cast<DocId>(i);
    candidate.relevance = quantize
                              ? static_cast<double>(rng->Uniform(9)) / 8.0
                              : rng->UniformDouble();
    instance.input.candidates.push_back(std::move(candidate));
    for (size_t j = 0; j < m; ++j) {
      if (rng->Bernoulli(0.4)) continue;  // stays 0: not useful for q′
      double u = quantize ? static_cast<double>(1 + rng->Uniform(8)) / 8.0
                          : rng->UniformDouble();
      instance.utilities.Set(i, j, u);
    }
  }
  return instance;
}

/// Comparator shared by every oracle: overall score descending, original
/// rank ascending — the library's universal tie rule.
struct ByScoreDesc {
  const std::vector<double>& score;
  bool operator()(size_t a, size_t b) const {
    if (score[a] != score[b]) return score[a] > score[b];
    return a < b;
  }
};

/// Naive OptSelect at `k`: the Section 3.1.3 selection rule with full
/// sorted lists in place of bounded heaps (same quota semantics: a
/// document useful for several specializations consumes each one's
/// quota).
std::vector<size_t> OracleOptSelect(const Instance& instance, size_t k) {
  const DiversificationInput& input = instance.input;
  const UtilityMatrix& matrix = instance.utilities;
  const size_t n = input.candidates.size();
  const size_t m = input.specializations.size();
  k = std::min(k, n);
  if (k == 0) return {};

  std::vector<double> overall(n);
  for (size_t i = 0; i < n; ++i) {
    overall[i] = OptSelectDiversifier::OverallUtility(
        input, matrix, i, instance.params.lambda);
  }

  // "the k specializations with the largest probabilities".
  std::vector<size_t> order(m);
  for (size_t j = 0; j < m; ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double pa = input.specializations[a].probability;
    double pb = input.specializations[b].probability;
    if (pa != pb) return pa > pb;
    return a < b;
  });
  if (order.size() > k) order.resize(k);

  std::vector<char> taken(n, 0);
  std::vector<size_t> selected;
  for (size_t j : order) {
    if (selected.size() >= k) break;
    double p = input.specializations[j].probability;
    size_t want = std::max<size_t>(
        static_cast<size_t>(std::floor(static_cast<double>(k) * p)), 1);
    std::vector<size_t> useful;
    for (size_t i = 0; i < n; ++i) {
      if (matrix.At(i, j) > 0.0) useful.push_back(i);
    }
    std::sort(useful.begin(), useful.end(), ByScoreDesc{overall});
    size_t got = 0;
    for (size_t i : useful) {
      if (got >= want || selected.size() >= k) break;
      if (taken[i]) {
        ++got;  // consumes this specialization's quota, added once
        continue;
      }
      taken[i] = 1;
      selected.push_back(i);
      ++got;
    }
  }

  std::vector<size_t> global(n);
  for (size_t i = 0; i < n; ++i) global[i] = i;
  std::sort(global.begin(), global.end(), ByScoreDesc{overall});
  for (size_t i : global) {
    if (selected.size() >= k) break;
    if (taken[i]) continue;
    taken[i] = 1;
    selected.push_back(i);
  }

  std::sort(selected.begin(), selected.end(), ByScoreDesc{overall});
  return selected;
}

/// Naive greedy xQuAD: every step recomputes Eq. 5/6 from scratch over
/// the remaining candidates (coverage products rebuilt in selection
/// order, so the accumulation order matches the incremental code).
std::vector<size_t> OracleXQuad(const Instance& instance) {
  const DiversificationInput& input = instance.input;
  const UtilityMatrix& matrix = instance.utilities;
  const size_t n = input.candidates.size();
  const size_t m = input.specializations.size();
  const size_t k = std::min(instance.params.k, n);
  const double lambda = instance.params.lambda;

  std::vector<size_t> selected;
  std::vector<char> taken(n, 0);
  for (size_t step = 0; step < k; ++step) {
    std::vector<double> coverage(m, 1.0);
    for (size_t d : selected) {
      for (size_t j = 0; j < m; ++j) {
        coverage[j] *= 1.0 - matrix.At(d, j);
      }
    }
    double best_score = -1.0;
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      double diversity = 0.0;
      for (size_t j = 0; j < m; ++j) {
        diversity += input.specializations[j].probability *
                     matrix.At(i, j) * coverage[j];
      }
      double score = (1.0 - lambda) * input.candidates[i].relevance +
                     lambda * diversity;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == n) break;
    taken[best] = 1;
    selected.push_back(best);
  }
  return selected;
}

/// Naive greedy IASelect: per-step marginal gain of Eq. 4, coverage
/// products from scratch.
std::vector<size_t> OracleIaSelect(const Instance& instance) {
  const DiversificationInput& input = instance.input;
  const UtilityMatrix& matrix = instance.utilities;
  const size_t n = input.candidates.size();
  const size_t m = input.specializations.size();
  const size_t k = std::min(instance.params.k, n);

  std::vector<size_t> selected;
  std::vector<char> taken(n, 0);
  for (size_t step = 0; step < k; ++step) {
    std::vector<double> coverage(m, 1.0);
    for (size_t d : selected) {
      for (size_t j = 0; j < m; ++j) {
        coverage[j] *= 1.0 - matrix.At(d, j);
      }
    }
    double best_gain = -1.0;
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      double gain = 0.0;
      for (size_t j = 0; j < m; ++j) {
        gain += input.specializations[j].probability * coverage[j] *
                matrix.At(i, j);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == n) break;
    taken[best] = 1;
    selected.push_back(best);
  }
  return selected;
}

/// Streams an instance through a StreamingTopK with reserve `max_k`,
/// driving the pruning bound exactly like the serving cold-path scan
/// (CanPrune → Skip, otherwise Push with the full utility row).
void StreamInstance(const Instance& instance, size_t max_k,
                    StreamingTopK* stream) {
  const size_t n = instance.input.candidates.size();
  const size_t m = instance.input.specializations.size();
  std::vector<double> probs(m);
  for (size_t j = 0; j < m; ++j) {
    probs[j] = instance.input.specializations[j].probability;
  }
  stream->Begin(probs.data(), m, max_k, instance.params.lambda);
  for (size_t i = 0; i < n; ++i) {
    const double rel = instance.input.candidates[i].relevance;
    if (stream->CanPrune(rel)) {
      stream->Skip();
      continue;
    }
    stream->Push(i, rel, instance.utilities.data() + i * m);
  }
}

/// Extend: a stream reserved at k+Δ answers Finalize(k) like the
/// oracle at k, then Finalize(k+Δ) like the oracle at k+Δ — with zero
/// new candidate materializations in between. Returns how many
/// candidates the relevance bound pruned.
size_t ExpectExtendMatchesTheOracle(const Instance& instance,
                                    size_t delta) {
  const size_t k = instance.params.k;
  StreamingTopK stream;
  StreamInstance(instance, k + delta, &stream);
  const size_t pushed_before = stream.pushed();
  std::vector<size_t> at_k;
  std::vector<size_t> extended;
  stream.Finalize(k, &at_k);
  stream.Finalize(k + delta, &extended);
  EXPECT_EQ(at_k, OracleOptSelect(instance, k))
      << "reserved stream diverged at k";
  EXPECT_EQ(stream.pushed(), pushed_before)
      << "Extend re-materialized candidates";
  EXPECT_EQ(extended, OracleOptSelect(instance, k + delta))
      << "Extend diverged from the oracle at k+delta=" << k + delta;
  return stream.pruned();
}

/// Brute-force optimum of the Eq. 4 objective over all C(n, k) subsets
/// (n <= 12 ⇒ at most 4096 masks).
double BruteForceIaOptimum(const Instance& instance) {
  const size_t n = instance.input.candidates.size();
  const size_t k = std::min(instance.params.k, n);
  double best = 0.0;
  std::vector<size_t> subset;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<size_t>(__builtin_popcount(mask)) != k) continue;
    subset.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(i);
    }
    best = std::max(best, IaSelectDiversifier::Objective(
                              instance.input, instance.utilities, subset));
  }
  return best;
}

TEST(OracleDiffTest, FiveHundredSeededInstancesMatchTheOracles) {
  util::Rng rng(20260727);
  OptSelectDiversifier optselect;
  XQuadDiversifier xquad;
  IaSelectDiversifier iaselect;
  const double kSubmodularBound = 1.0 - 1.0 / std::exp(1.0);

  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = 2 + rng.Uniform(11);  // 2..12
    const size_t m = 2 + rng.Uniform(4);   // 2..5
    Instance instance =
        MakeInstance(&rng, /*quantize=*/trial % 2 == 1, n, m);
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(instance.input.candidates.size()) + " m=" +
                 std::to_string(instance.input.specializations.size()) +
                 " k=" + std::to_string(instance.params.k) +
                 " lambda=" + std::to_string(instance.params.lambda));

    std::vector<size_t> got_opt = optselect.Select(
        instance.input, instance.utilities, instance.params);
    EXPECT_EQ(got_opt, OracleOptSelect(instance, instance.params.k));

    ExpectExtendMatchesTheOracle(instance, 1 + trial % 4);

    std::vector<size_t> got_xquad =
        xquad.Select(instance.input, instance.utilities, instance.params);
    EXPECT_EQ(got_xquad, OracleXQuad(instance));

    std::vector<size_t> got_ia = iaselect.Select(
        instance.input, instance.utilities, instance.params);
    EXPECT_EQ(got_ia, OracleIaSelect(instance));

    // The paper's Eq. 4 objective, solved exactly: greedy must land
    // within the submodular guarantee of the brute-force optimum.
    double optimum = BruteForceIaOptimum(instance);
    double achieved = IaSelectDiversifier::Objective(
        instance.input, instance.utilities, got_ia);
    EXPECT_GE(achieved, kSubmodularBound * optimum - 1e-12)
        << "greedy " << achieved << " vs brute-force optimum " << optimum;
    EXPECT_LE(achieved, optimum + 1e-12)
        << "greedy cannot beat the enumerated optimum";
  }
}

/// Degenerate shapes the random sweep may miss.
TEST(OracleDiffTest, DegenerateInstancesStillAgree) {
  OptSelectDiversifier optselect;
  XQuadDiversifier xquad;
  IaSelectDiversifier iaselect;

  // All-zero utilities, all-equal relevance: pure tie-breaking.
  Instance instance;
  instance.params.k = 3;
  instance.params.lambda = 0.15;
  for (size_t j = 0; j < 3; ++j) {
    SpecializationProfile profile;
    profile.query = "spec " + std::to_string(j);
    profile.probability = 1.0 / 3.0;
    instance.input.specializations.push_back(std::move(profile));
  }
  for (size_t i = 0; i < 6; ++i) {
    Candidate candidate;
    candidate.doc = static_cast<DocId>(i);
    candidate.relevance = 0.5;
    instance.input.candidates.push_back(std::move(candidate));
  }
  instance.utilities = UtilityMatrix(6, 3);

  EXPECT_EQ(optselect.Select(instance.input, instance.utilities,
                             instance.params),
            OracleOptSelect(instance, instance.params.k));
  EXPECT_EQ(xquad.Select(instance.input, instance.utilities,
                         instance.params),
            OracleXQuad(instance));
  EXPECT_EQ(iaselect.Select(instance.input, instance.utilities,
                            instance.params),
            OracleIaSelect(instance));

  // k >= n: everything is selected, order still matters.
  instance.params.k = 12;
  EXPECT_EQ(optselect.Select(instance.input, instance.utilities,
                             instance.params),
            OracleOptSelect(instance, instance.params.k));
}

TEST(OracleDiffTest, OptSelectAtScaleMatchesTheOracle) {
  // Serving-scale instances: R_q is 2-8 thousand candidates, so the
  // heaps hold a sliver of it, the relevance bound prunes, and
  // ParallelOptSelect(4) shards the scan 2-4 ways (one shard per 1024
  // candidates, at most four) and merges the shard streams. Half the
  // instances arrive in descending relevance, the index scan's order,
  // where the bound skips the tail wholesale.
  util::Rng rng(20261018);
  OptSelectDiversifier serial;
  ParallelOptSelectDiversifier parallel(4);
  int trial = 0;
  size_t pruned = 0;
  for (size_t k : {size_t{1}, size_t{10}, size_t{200}, size_t{1000}}) {
    for (int variant = 0; variant < 4; ++variant, ++trial) {
      const size_t n = 2048 + rng.Uniform(8000 - 2048 + 1);
      const size_t m = 2 + rng.Uniform(7);  // 2..8
      const bool quantize = variant % 2 == 1;
      Instance instance = MakeInstance(&rng, quantize, n, m);
      instance.params.k = k;
      if (variant >= 2) {
        std::vector<Candidate>& candidates = instance.input.candidates;
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Candidate& a, const Candidate& b) {
                           return a.relevance > b.relevance;
                         });
      }
      SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                   std::to_string(n) + " m=" + std::to_string(m) +
                   " k=" + std::to_string(k) +
                   " lambda=" + std::to_string(instance.params.lambda) +
                   (quantize ? " quantized" : " continuous"));

      const std::vector<size_t> want = OracleOptSelect(instance, k);
      EXPECT_EQ(serial.Select(instance.input, instance.utilities,
                              instance.params),
                want);
      EXPECT_EQ(parallel.Select(instance.input, instance.utilities,
                                instance.params),
                want);
      pruned += ExpectExtendMatchesTheOracle(instance, 1 + rng.Uniform(50));
    }
  }
  // The sweep must exercise the bound, or it proves nothing about it.
  EXPECT_GT(pruned, 0u);
}

}  // namespace
}  // namespace core
}  // namespace optselect
