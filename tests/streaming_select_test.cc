// Property tests for the streaming selector (core/streaming_select.h).
//
// The oracle differential test (oracle_diff_test.cc) pins every
// selection the stream makes — OptSelect, ParallelOptSelect, Extend —
// to a naive oracle; this file checks the properties the streaming
// design *itself* promises:
//
//   - arrival-order invariance: the bounded heaps' retained set is a
//     pure function of the push multiset, so any permutation of the
//     candidate stream yields the same final top-k;
//   - bounded state: after every single push, the entries retained
//     across all heaps stay within the configured cap, no matter how
//     many candidates have streamed by;
//   - pruning soundness: a scan that skips CanPrune candidates selects
//     exactly what a scan that pushes everything selects;
//   - degenerate shapes: empty stream, one candidate, all-ties;
//   - shard merging: streams folded with MergeFrom answer like one;
//   - steady state: a warmed-up stream, and OptSelect over a plan-shaped
//     view on a reused SelectScratch, allocate nothing.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/optselect.h"
#include "core/parallel_optselect.h"
#include "core/select_view.h"
#include "core/streaming_select.h"
#include "util/rng.h"

namespace optselect {
namespace core {
namespace {

/// A random problem instance in flat form (the shape the stream eats).
struct FlatInstance {
  size_t n = 0;
  size_t m = 0;
  size_t k = 0;
  double lambda = 0.15;
  std::vector<double> relevance;    // [n]
  std::vector<double> probability;  // [m]
  std::vector<double> utilities;    // [n*m] row-major
};

FlatInstance MakeFlat(util::Rng* rng, bool quantize) {
  FlatInstance fi;
  fi.n = 2 + rng->Uniform(40);
  fi.m = 2 + rng->Uniform(5);
  fi.k = 1 + rng->Uniform(fi.n);
  const double lambdas[] = {0.0, 0.15, 0.5, 1.0};
  fi.lambda = lambdas[rng->Uniform(4)];

  double norm = 0.0;
  fi.probability.resize(fi.m);
  for (size_t j = 0; j < fi.m; ++j) {
    fi.probability[j] = quantize
                            ? static_cast<double>(1 + rng->Uniform(4))
                            : rng->UniformDouble() + 0.05;
    norm += fi.probability[j];
  }
  for (double& p : fi.probability) p /= norm;

  fi.relevance.resize(fi.n);
  fi.utilities.assign(fi.n * fi.m, 0.0);
  for (size_t i = 0; i < fi.n; ++i) {
    fi.relevance[i] = quantize
                          ? static_cast<double>(rng->Uniform(9)) / 8.0
                          : rng->UniformDouble();
    for (size_t j = 0; j < fi.m; ++j) {
      if (rng->Bernoulli(0.4)) continue;
      fi.utilities[i * fi.m + j] =
          quantize ? static_cast<double>(1 + rng->Uniform(8)) / 8.0
                   : rng->UniformDouble();
    }
  }
  return fi;
}

/// Streams candidates in the order given by `arrival` (indices keep
/// their original identity — only the arrival order changes). With
/// `prune` set, CanPrune candidates are skipped like the serving scan.
std::vector<size_t> RunStream(const FlatInstance& fi,
                              const std::vector<size_t>& arrival,
                              size_t max_k, bool prune,
                              StreamingTopK* stream) {
  stream->Begin(fi.probability.data(), fi.m, max_k, fi.lambda);
  for (size_t i : arrival) {
    if (prune && stream->CanPrune(fi.relevance[i])) {
      stream->Skip();
      continue;
    }
    stream->Push(i, fi.relevance[i], fi.utilities.data() + i * fi.m);
  }
  std::vector<size_t> out;
  stream->Finalize(fi.k, &out);
  return out;
}

TEST(StreamingSelectTest, ArrivalOrderPermutationsYieldTheSameTopK) {
  util::Rng rng(7021);
  StreamingTopK stream;
  for (int trial = 0; trial < 200; ++trial) {
    FlatInstance fi = MakeFlat(&rng, trial % 2 == 1);
    SCOPED_TRACE("trial " + std::to_string(trial) +
                 " n=" + std::to_string(fi.n) +
                 " m=" + std::to_string(fi.m) +
                 " k=" + std::to_string(fi.k));

    std::vector<size_t> arrival(fi.n);
    std::iota(arrival.begin(), arrival.end(), size_t{0});
    // Reference: in-order, no pruning (pruning is order-dependent in
    // *which* candidates it skips, so the invariance property is
    // stated over the full push multiset).
    std::vector<size_t> reference =
        RunStream(fi, arrival, fi.k, /*prune=*/false, &stream);

    for (int perm = 0; perm < 5; ++perm) {
      for (size_t i = arrival.size(); i > 1; --i) {
        std::swap(arrival[i - 1], arrival[rng.Uniform(i)]);
      }
      EXPECT_EQ(RunStream(fi, arrival, fi.k, /*prune=*/false, &stream),
                reference)
          << "permutation " << perm << " changed the selection";
    }
  }
}

TEST(StreamingSelectTest, PruningNeverChangesTheSelection) {
  util::Rng rng(7022);
  StreamingTopK pruned_stream;
  StreamingTopK full_stream;
  size_t pruned_total = 0;
  for (int trial = 0; trial < 200; ++trial) {
    FlatInstance fi = MakeFlat(&rng, trial % 2 == 1);
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<size_t> arrival(fi.n);
    std::iota(arrival.begin(), arrival.end(), size_t{0});
    // Descending-relevance arrival (the index-scan order) makes the
    // bound bite; ascending order exercises the no-prune-yet regime.
    std::sort(arrival.begin(), arrival.end(), [&](size_t a, size_t b) {
      if (fi.relevance[a] != fi.relevance[b]) {
        return trial % 2 == 0 ? fi.relevance[a] > fi.relevance[b]
                              : fi.relevance[a] < fi.relevance[b];
      }
      return a < b;
    });
    EXPECT_EQ(RunStream(fi, arrival, fi.k, /*prune=*/true, &pruned_stream),
              RunStream(fi, arrival, fi.k, /*prune=*/false, &full_stream));
    pruned_total += pruned_stream.pruned();
    EXPECT_EQ(pruned_stream.offered(), fi.n);
    EXPECT_EQ(pruned_stream.pushed() + pruned_stream.pruned(), fi.n);
  }
  // The bound must actually fire somewhere across 200 instances, or
  // this test proves nothing about pruning.
  EXPECT_GT(pruned_total, 0u);
}

TEST(StreamingSelectTest, RetainedStateStaysWithinTheCapAfterEveryPush) {
  util::Rng rng(7023);
  StreamingTopK stream;
  for (int trial = 0; trial < 50; ++trial) {
    FlatInstance fi = MakeFlat(&rng, trial % 2 == 1);
    stream.Begin(fi.probability.data(), fi.m, fi.k, fi.lambda);
    const size_t bound = stream.retained_bound();
    // The cap is a function of k and the probabilities alone — never
    // of n, which is the whole point of bounded-state streaming.
    EXPECT_LE(bound, fi.k + fi.m * (fi.k + 1));
    for (size_t i = 0; i < fi.n; ++i) {
      stream.Push(i, fi.relevance[i], fi.utilities.data() + i * fi.m);
      ASSERT_LE(stream.retained(), bound)
          << "push " << i << " of trial " << trial
          << " overflowed the configured cap";
    }
  }
}

TEST(StreamingSelectTest, EmptyStreamSelectsNothing) {
  const double probs[] = {0.6, 0.4};
  StreamingTopK stream;
  stream.Begin(probs, 2, 10, 0.15);
  std::vector<size_t> out{99};  // must be cleared
  stream.Finalize(10, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stream.retained(), 0u);
}

TEST(StreamingSelectTest, SingleCandidateIsSelectedForAnyK) {
  const double probs[] = {0.5, 0.3, 0.2};
  const double row[] = {0.8, 0.0, 0.2};
  for (size_t k : {size_t{1}, size_t{5}, size_t{100}}) {
    StreamingTopK stream;
    stream.Begin(probs, 3, k, 0.15);
    stream.Push(0, 0.7, row);
    std::vector<size_t> out;
    stream.Finalize(k, &out);
    EXPECT_EQ(out, std::vector<size_t>{0}) << "k=" << k;
  }
}

TEST(StreamingSelectTest, AllTiesBreakByCandidateIndex) {
  // Identical relevance, identical utility rows: the selection must be
  // the k lowest indices in ascending order (the library's universal
  // tie rule), whatever the arrival order.
  const size_t n = 12;
  const size_t m = 3;
  const size_t k = 5;
  FlatInstance fi;
  fi.n = n;
  fi.m = m;
  fi.k = k;
  fi.lambda = 0.15;
  fi.relevance.assign(n, 0.5);
  fi.probability = {0.5, 0.25, 0.25};
  fi.utilities.assign(n * m, 0.25);

  StreamingTopK stream;
  std::vector<size_t> arrival(n);
  std::iota(arrival.begin(), arrival.end(), size_t{0});
  std::vector<size_t> got = RunStream(fi, arrival, k, /*prune=*/true,
                                      &stream);
  EXPECT_EQ(got, (std::vector<size_t>{0, 1, 2, 3, 4}));

  // Reversed arrival: identity of the winners must not move.
  std::reverse(arrival.begin(), arrival.end());
  EXPECT_EQ(RunStream(fi, arrival, k, /*prune=*/false, &stream), got);
}

TEST(StreamingSelectTest, MergedShardStreamsEqualOneStream) {
  // ParallelOptSelect's combine: shards streamed separately (pruning
  // against their own heaps) and folded with MergeFrom answer every
  // Finalize exactly like one stream over all candidates.
  util::Rng rng(7024);
  StreamingTopK whole;
  StreamingTopK merged;
  StreamingTopK shard;
  for (int trial = 0; trial < 200; ++trial) {
    FlatInstance fi = MakeFlat(&rng, trial % 2 == 1);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t max_k = fi.k + 1 + trial % 3;
    std::vector<size_t> arrival(fi.n);
    std::iota(arrival.begin(), arrival.end(), size_t{0});
    RunStream(fi, arrival, max_k, /*prune=*/true, &whole);

    const size_t cut1 = rng.Uniform(fi.n + 1);
    const size_t cut2 = cut1 + rng.Uniform(fi.n - cut1 + 1);
    auto stream_range = [&](size_t lo, size_t hi, StreamingTopK* stream) {
      stream->Begin(fi.probability.data(), fi.m, max_k, fi.lambda);
      for (size_t i = lo; i < hi; ++i) {
        if (stream->CanPrune(fi.relevance[i])) {
          stream->Skip();
          continue;
        }
        stream->Push(i, fi.relevance[i], fi.utilities.data() + i * fi.m);
      }
    };
    stream_range(0, cut1, &merged);
    stream_range(cut1, cut2, &shard);
    merged.MergeFrom(shard);
    stream_range(cut2, fi.n, &shard);
    merged.MergeFrom(shard);
    EXPECT_EQ(merged.offered(), fi.n);

    for (size_t k : {fi.k, max_k}) {
      std::vector<size_t> want;
      std::vector<size_t> got;
      whole.Finalize(k, &want);
      merged.Finalize(k, &got);
      EXPECT_EQ(got, want) << "k=" << k;
    }
  }
}

// ---------------------------------------------------- allocation count

/// operator new calls on this thread while `counting` is set. The
/// replacement operators below count into it; everything else about
/// them is plain malloc/free.
thread_local bool counting = false;
thread_local size_t allocations = 0;

/// Counts the allocations `body` makes on the calling thread.
template <typename Body>
size_t CountAllocations(const Body& body) {
  allocations = 0;
  counting = true;
  body();
  counting = false;
  return allocations;
}

/// A plan-shaped view (what QueryPlan::View hands the serving node):
/// candidates in descending relevance, the compiled weighted block and
/// the probability-sorted spec_order, over buffers that outlive it.
struct PlanShape {
  FlatInstance fi;
  std::vector<double> weighted;
  std::vector<uint32_t> spec_order;

  DiversificationView View() const {
    DiversificationView view;
    view.num_candidates = fi.n;
    view.num_specializations = fi.m;
    view.relevance = fi.relevance.data();
    view.probability = fi.probability.data();
    view.utilities = fi.utilities.data();
    view.weighted = weighted.data();
    view.spec_order = spec_order.data();
    return view;
  }
};

PlanShape MakePlanShape(uint64_t seed, size_t n, size_t m) {
  util::Rng rng(seed);
  PlanShape plan;
  FlatInstance& fi = plan.fi;
  fi.n = n;
  fi.m = m;
  fi.k = 10;
  fi.probability.resize(m);
  double norm = 0.0;
  for (double& p : fi.probability) {
    p = rng.UniformDouble() + 0.05;
    norm += p;
  }
  for (double& p : fi.probability) p /= norm;
  fi.relevance.resize(n);
  for (double& r : fi.relevance) r = rng.UniformDouble();
  std::sort(fi.relevance.begin(), fi.relevance.end(), std::greater<>());
  fi.utilities.assign(n * m, 0.0);
  for (double& u : fi.utilities) {
    if (rng.Bernoulli(0.5)) u = rng.UniformDouble();
  }
  for (size_t i = 0; i < n; ++i) {
    plan.weighted.push_back(kernels::WeightedRowSum(
        fi.utilities.data() + i * m, fi.probability.data(), m));
  }
  plan.spec_order.resize(m);
  std::iota(plan.spec_order.begin(), plan.spec_order.end(), 0u);
  SortSpecOrderByProbability(fi.probability.data(), &plan.spec_order);
  return plan;
}

TEST(StreamingSelectTest, PlanPathSelectionAllocatesNothingAfterWarmUp) {
  const PlanShape plan = MakePlanShape(7025, 200, 4);
  const DiversificationView view = plan.View();
  DiversifyParams params;
  params.k = plan.fi.k;
  SelectScratch scratch;
  OptSelectDiversifier optselect;
  ParallelOptSelectDiversifier serving(1);  // the serving node's backend

  optselect.SelectInto(view, params, &scratch, &scratch.picks);
  const std::vector<size_t> warm = scratch.picks;
  EXPECT_EQ(CountAllocations([&] {
              optselect.SelectInto(view, params, &scratch, &scratch.picks);
            }),
            0u);
  EXPECT_EQ(scratch.picks, warm);
  EXPECT_EQ(CountAllocations([&] {
              serving.SelectInto(view, params, &scratch, &scratch.picks);
            }),
            0u);
  EXPECT_EQ(scratch.picks, warm);
}

TEST(StreamingSelectTest, ReusedStreamAllocatesNothingAfterWarmUp) {
  const PlanShape plan = MakePlanShape(7026, 300, 6);
  const FlatInstance& fi = plan.fi;
  StreamingTopK stream;
  std::vector<size_t> at_k;
  std::vector<size_t> extended;
  // Begin / Push / Finalize(k) / Extend to k + 5, as a pager would.
  auto pass = [&] {
    stream.Begin(fi.probability.data(), fi.m, fi.k + 5, fi.lambda);
    for (size_t i = 0; i < fi.n; ++i) {
      if (stream.CanPrune(fi.relevance[i])) {
        stream.Skip();
        continue;
      }
      stream.Push(i, fi.relevance[i], fi.utilities.data() + i * fi.m);
    }
    stream.Finalize(fi.k, &at_k);
    stream.Finalize(fi.k + 5, &extended);
  };
  pass();
  const std::vector<size_t> warm_k = at_k;
  const std::vector<size_t> warm_extended = extended;
  EXPECT_EQ(CountAllocations(pass), 0u);
  EXPECT_EQ(at_k, warm_k);
  EXPECT_EQ(extended, warm_extended);
  EXPECT_EQ(at_k.size(), fi.k);
  EXPECT_EQ(extended.size(), fi.k + 5);
}

}  // namespace
}  // namespace core
}  // namespace optselect

// Replacement global allocation operators for the counting above.
// operator new counts into the calling thread's tally while counting
// is on; new and delete both go straight to malloc/free so every pair
// matches.
void* operator new(std::size_t size) {
  if (optselect::core::counting) ++optselect::core::allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
