// Tests of the benchmark itself: the open-loop load generator's timing
// and CPU accounting against stub frontends, the answer check, and
// seed-only input generation.
//
//   python3 perfbench/run.py --self-test

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "loadgen.h"
#include "inputs.h"
#include "pipeline/testbed.h"
#include "report.h"
#include "serving/frontend.h"
#include "workloads.h"

namespace {

using optselect::serving::Frontend;
using optselect::serving::Request;
using optselect::serving::Response;

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<optselect::DocId> RankingFor(const std::string& query) {
  std::vector<optselect::DocId> r;
  for (size_t i = 0; i < 10; ++i) {
    r.push_back(static_cast<optselect::DocId>(query.size() * 100 + i));
  }
  return r;
}

/// Answers inline; the first admission call blocks for `stall_ms`.
class StallingFrontend : public Frontend {
 public:
  explicit StallingFrontend(int stall_ms) : stall_ms_(stall_ms) {}
  Response Submit(const Request& request) override {
    if (first_) {
      first_ = false;
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    Response r;
    r.ok = true;
    r.ranking = RankingFor(request.query);
    return r;
  }

 private:
  int stall_ms_;
  bool first_ = true;
};

/// Answers inline with no work at all.
class NoWorkFrontend : public Frontend {
 public:
  Response Submit(const Request&) override {
    Response r;
    r.ok = true;
    return r;
  }
  bool SubmitAsync(Request, std::function<void(Response)> callback) override {
    Response r;
    r.ok = true;
    callback(std::move(r));
    return true;
  }
};

std::vector<int64_t> Uniform(size_t n, int64_t gap_ns) {
  std::vector<int64_t> offsets;
  for (size_t i = 0; i < n; ++i) {
    offsets.push_back(static_cast<int64_t>(i) * gap_ns);
  }
  return offsets;
}

// A stall at admission delays every request scheduled during it; their
// latency is counted from the scheduled send, so it includes the stall.
void TestLatencyFromScheduledSend() {
  const int stall_ms = 40;
  StallingFrontend stub(stall_ms);
  std::vector<int64_t> offsets = Uniform(20, 1'000'000);  // every 1 ms
  std::vector<std::string> queries(offsets.size(), "q");
  perfbench::PhaseResult r =
      perfbench::RunInProcess(&stub, queries, offsets);
  EXPECT(r.drained);
  const auto& s = r.samples();
  for (size_t i = 1; i < s.size(); ++i) {
    const int64_t offset = offsets[i];
    if (offset >= stall_ms * 1'000'000) break;  // not queued behind it
    EXPECT(s[i].answered);
    // Queued behind the stall: waited at least the rest of it.
    EXPECT(s[i].done_ns - s[i].scheduled_ns >=
           stall_ms * 1'000'000 - offset);
  }
  EXPECT(s[0].done_ns - s[0].scheduled_ns >= stall_ms * 1'000'000);
}

// The pacer spins for the whole phase, but its CPU is not the program's:
// neither over the whole phase nor in the per-window medians that
// cpu_us_per_req reports.
void TestGeneratorCpuExcluded() {
  NoWorkFrontend stub;
  std::vector<int64_t> offsets = Uniform(20000, 200'000);  // 4 s at 5k/s
  std::vector<std::string> queries(offsets.size(), "q");
  perfbench::PhaseResult r =
      perfbench::RunInProcess(&stub, queries, offsets);
  EXPECT(r.drained);
  const double n = static_cast<double>(offsets.size());
  const double program_us = r.program_cpu_ns() / 1e3 / n;
  const double generator_us = r.generator_cpu_ns() / 1e3 / n;
  std::vector<double> window_us;
  for (const perfbench::Window& w : r.Windows()) {
    window_us.push_back(w.cpu_us_per_req);
  }
  const double median_us = perfbench::Median(window_us);
  std::printf("no-work stub: program %.3f us/req (window median %.3f over "
              "%zu windows), generator %.3f us/req\n",
              program_us, median_us, window_us.size(), generator_us);
  EXPECT(generator_us > 100.0);  // it did spin
  EXPECT(window_us.size() >= 3);
  // ... and none of it was booked. What is left (0.2-0.3 us on a 4-vCPU
  // VM) is the stub's call and the sample-recording callback; a
  // plan-path request costs about 10 us.
  EXPECT(program_us < 0.5);
  EXPECT(median_us < 0.5);
}

perfbench::Mark MarkAt(int64_t second, size_t answered, int64_t program_ms) {
  perfbench::Mark m;
  m.t_ns = second * perfbench::kWindowNs;
  // Generator CPU is a fixed share, so program CPU is the difference.
  m.generator_cpu_ns = second * 300'000'000;
  m.process_cpu_ns = m.generator_cpu_ns + program_ms * 1'000'000;
  m.answered = answered;
  return m;
}

// Marks merge into windows of at least one second and kMinWindowAnswers
// answers; a short remainder joins the last window.
void TestWindowsMergeAndRemainder() {
  perfbench::PhaseResult r;
  // Per second: 600, 300, 300, 700 answers, then a 100-answer tail.
  r.marks = {MarkAt(0, 0, 0),     MarkAt(1, 600, 6),   MarkAt(2, 900, 12),
             MarkAt(3, 1200, 15), MarkAt(4, 1900, 22), MarkAt(5, 2000, 24)};
  std::vector<perfbench::Window> w = r.Windows();
  EXPECT(w.size() == 3);
  if (w.size() != 3) return;
  EXPECT(w[0].answered == 600 && w[0].end_ns == perfbench::kWindowNs);
  EXPECT(std::abs(w[0].cpu_us_per_req - 10.0) < 1e-9);  // 6 ms / 600
  EXPECT(w[1].answered == 600);                          // 1 s + 1 s
  EXPECT(std::abs(w[1].cpu_us_per_req - 15.0) < 1e-9);  // 9 ms / 600
  EXPECT(w[2].answered == 800);                          // 700 + tail
  EXPECT(w[2].end_ns == 5 * perfbench::kWindowNs);
  EXPECT(std::abs(w[2].cpu_us_per_req - 11.25) < 1e-9);  // 9 ms / 800
  // Too few answers for a second window: the whole phase is one.
  r.marks = {MarkAt(0, 0, 0), MarkAt(1, 200, 2), MarkAt(2, 400, 4)};
  w = r.Windows();
  EXPECT(w.size() == 1 && w[0].answered == 400);
}

// A ranking with two documents swapped is a mismatch.
void TestAnswerCheckCatchesSwap() {
  std::vector<std::string> queries = {"apple", "jaguar", "apple"};
  std::unordered_map<std::string, std::vector<optselect::DocId>> reference;
  for (const std::string& q : queries) reference[q] = RankingFor(q);
  std::vector<perfbench::Sample> samples(queries.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i].admitted = samples[i].answered = true;
    samples[i].response.ok = true;
    samples[i].response.ranking = RankingFor(queries[i]);
  }
  size_t mismatches = 99;
  EXPECT(perfbench::CountBadAnswers(samples, queries, reference,
                                    &mismatches) == 0);
  EXPECT(mismatches == 0);
  std::swap(samples[1].response.ranking[3], samples[1].response.ranking[4]);
  EXPECT(perfbench::CountBadAnswers(samples, queries, reference,
                                    &mismatches) == 1);
  EXPECT(mismatches == 1);
  samples[2].response.ok = false;
  EXPECT(perfbench::CountBadAnswers(samples, queries, reference) == 2);
}

// The seed alone fixes every input; another seed moves the mix.
void TestSeedOnlyInputs() {
  optselect::pipeline::Testbed testbed(
      optselect::pipeline::TestbedConfig::Small());
  perfbench::InputSource src;
  src.popularity = &testbed.recommender().popularity();
  for (const auto& topic : testbed.universe().topics) {
    src.stored_keys.push_back(topic.root_query);
  }
  src.vocabulary = perfbench::CorpusVocabulary(testbed.corpus().store, 1000);
  src.universe = &testbed.universe();
  for (const auto& r : testbed.log_result().log.records()) {
    src.log_end_timestamp = std::max(src.log_end_timestamp, r.timestamp);
  }
  for (perfbench::MixKind mix :
       {perfbench::MixKind::kStoredZipf, perfbench::MixKind::kLogZipf}) {
    perfbench::TrafficSpec spec;
    spec.mix = mix;
    spec.rate = 2000.0;
    spec.tail_share = mix == perfbench::MixKind::kLogZipf ? 0.2 : 0.0;
    spec.chunks = 4;
    std::string a = perfbench::SerializeInputs(
        perfbench::MakeInputs(spec, src, 7, 1.0));
    std::string b = perfbench::SerializeInputs(
        perfbench::MakeInputs(spec, src, 7, 1.0));
    perfbench::WorkloadInputs c = perfbench::MakeInputs(spec, src, 8, 1.0);
    perfbench::WorkloadInputs d = perfbench::MakeInputs(spec, src, 7, 1.0);
    EXPECT(!a.empty());
    EXPECT(a == b);
    EXPECT(c.queries != d.queries);
    EXPECT(c.offsets_ns != d.offsets_ns);
    EXPECT(d.chunks.size() == 4);
    for (const auto& chunk : d.chunks) EXPECT(!chunk.empty());
  }
  // Every seed gets one chunk per tick, however few ticks there are.
  perfbench::TrafficSpec refresh;
  refresh.mix = perfbench::MixKind::kLogZipf;
  for (size_t chunks : {1, 2}) {
    refresh.chunks = chunks;
    for (uint64_t seed = 100; seed < 120; ++seed) {
      EXPECT(perfbench::MakeInputs(refresh, src, seed, 0.01).chunks.size() ==
             chunks);
    }
  }
}

// The refresh tail's share: queries the log saw exactly once, over its
// distinct queries.
void TestSingletonShare() {
  optselect::querylog::PopularityMap pop;
  EXPECT(perfbench::SingletonShare(pop) == 0.0);
  pop.Increment("a");
  pop.Increment("b", 3);
  pop.Increment("c");
  pop.Increment("d", 2);
  EXPECT(std::abs(perfbench::SingletonShare(pop) - 0.5) < 1e-12);
}

}  // namespace

int main() {
  TestLatencyFromScheduledSend();
  TestGeneratorCpuExcluded();
  TestWindowsMergeAndRemainder();
  TestAnswerCheckCatchesSwap();
  TestSeedOnlyInputs();
  TestSingletonShare();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all passed\n");
  return 0;
}
