// Open-loop load generator.
//
// One pacing thread sends each request at its scheduled time (Poisson
// offsets from inputs.h), whether or not earlier requests have been
// answered, and every latency is taken from the *scheduled* send time:
// a stall in the program or the generator shows on every request queued
// behind it instead of silently thinning the load (coordinated
// omission). The pacer sleeps while the next send is more than a few
// milliseconds away and spins the rest, so it is the only busy
// generator thread. In process, completions are recorded by the
// program's own callback; over the wire, one blocking receiver thread
// reads every connection.
//
// CPU accounting: program CPU over the phase is process CPU minus the
// generator threads' own work. Each generator thread meters its CPU
// inside the calls it makes into the program (admission, and on the wire
// the frame codec and socket calls of both directions); those windows,
// less the meter's own clock reads, count as program CPU, the rest of
// the thread's CPU does not.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "serving/frontend.h"

namespace perfbench {

/// One request of the measured phase. Times are steady-clock ns.
struct Sample {
  int64_t scheduled_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool admitted = false;     ///< SubmitAsync accepted / frame sent
  bool answered = false;     ///< a response (ok or not) came back
  bool error_frame = false;  ///< the wire answered with an error frame
  optselect::serving::Response response;
};

/// Generator CPU of every benchmark thread of a phase, one slot per
/// thread, readable while the phase runs.
class CpuLedger {
 public:
  static constexpr int kSlots = 8;
  /// A slot for the calling thread's meter; -1 when all are taken.
  int Register() {
    int slot = next_.fetch_add(1);
    return slot < kSlots ? slot : -1;
  }
  void Publish(int slot, int64_t generator_ns) {
    slots_[slot].store(generator_ns, std::memory_order_relaxed);
  }
  /// Sum of the latest published values.
  int64_t excluded() const {
    int64_t sum = 0;
    for (const auto& s : slots_) sum += s.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::atomic<int> next_{0};
  std::atomic<int64_t> slots_[kSlots] = {};
};

/// Per-thread CPU meter: the thread's CPU since construction minus the
/// windows bracketed by Enter/Leave (calls into the program). Each
/// Leave publishes the running generator share to the ledger, so the
/// phase can be cut into windows while it runs.
///
/// Reading the thread CPU clock is a system call (about 0.35 us on a
/// 4-vCPU VM), and one read's worth of it falls inside every window.
/// The meter measures that cost when it is built (median of empty
/// Enter/Leave pairs) and books it as generator CPU, not program CPU.
class ThreadMeter {
 public:
  explicit ThreadMeter(CpuLedger* ledger)
      : ledger_(ledger),
        slot_(ledger != nullptr ? ledger->Register() : -1),
        start_(ThreadCpuNs()),
        overhead_(EmptyWindowNs()) {}
  void Enter() { entered_ = ThreadCpuNs(); }
  void Leave() {
    const int64_t now = ThreadCpuNs();
    program_ += std::max<int64_t>(0, now - entered_ - overhead_);
    Publish(now);
  }
  /// Reads the clock once, outside any window. After a long spin the
  /// first read also catches up the kernel's CPU accounting (~0.1 us
  /// after 0.2 ms of spinning, ~0.5 us after 1 ms, on a 4-vCPU VM); the
  /// pacer settles just before each send so the catch-up is not booked
  /// inside the next window.
  void Settle() { ThreadCpuNs(); }
  /// Publishes the generator share up to now.
  void Publish() { Publish(ThreadCpuNs()); }

 private:
  void Publish(int64_t now) {
    if (slot_ >= 0) ledger_->Publish(slot_, now - start_ - program_);
  }
  static int64_t EmptyWindowNs();

  CpuLedger* ledger_;
  int slot_;
  int64_t start_;
  int64_t overhead_;
  int64_t entered_ = 0;
  int64_t program_ = 0;
};

/// Completion state shared with in-flight callbacks. Heap-allocated and
/// owned by PhaseResult so a callback that fires after the drain
/// deadline still writes into live memory; the program must be shut
/// down before the PhaseResult is destroyed.
struct PhaseState {
  std::vector<Sample> samples;
  std::atomic<size_t> answered{0};
};

/// CPU and answer counters read at a window boundary.
struct Mark {
  int64_t t_ns = 0;
  int64_t process_cpu_ns = 0;
  int64_t generator_cpu_ns = 0;
  size_t answered = 0;
  HostTicks host;
};

/// One window of the phase: consecutive marks merged until it holds at
/// least kMinWindowAnswers answers (a slow workload's windows span
/// several seconds, so one window's mix of cheap and costly queries
/// does not decide it).
struct Window {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  double cpu_us_per_req = 0.0;  ///< program CPU per answered request
  size_t answered = 0;
};

constexpr size_t kMinWindowAnswers = 500;

/// Marks are this far apart. The phase is also summarized per window,
/// so that a host stall spoils one window rather than the run.
constexpr int64_t kWindowNs = 1'000'000'000;

struct PhaseResult {
  std::unique_ptr<PhaseState> state;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< last answer (or the drain deadline)
  /// Counters at the phase start, at every window boundary while the
  /// pacer runs, and after the drain.
  std::vector<Mark> marks;
  bool drained = true;  ///< every admitted request answered in time

  const std::vector<Sample>& samples() const { return state->samples; }
  int64_t process_cpu_ns() const {
    return marks.back().process_cpu_ns - marks.front().process_cpu_ns;
  }
  int64_t generator_cpu_ns() const {
    return marks.back().generator_cpu_ns - marks.front().generator_cpu_ns;
  }
  /// Process CPU minus generator CPU over the phase.
  int64_t program_cpu_ns() const {
    return process_cpu_ns() - generator_cpu_ns();
  }
  /// The phase cut into windows (see Window); a short remainder is
  /// merged into the last window.
  std::vector<Window> Windows() const;
};

/// Runs beside the pacer during the phase (the refresh writer). It gets
/// the phase start time and meters its own CPU through the ledger.
using SideTask = std::function<void(int64_t start_ns, CpuLedger* ledger)>;

/// Drives `frontend` through SubmitAsync.
PhaseResult RunInProcess(optselect::serving::Frontend* frontend,
                         const std::vector<std::string>& queries,
                         const std::vector<int64_t>& offsets_ns,
                         const SideTask& side = nullptr);

/// Drives a loopback net::NetServer on `port` over `connections` TCP
/// connections (round-robin), speaking the net/wire.h protocol. Request
/// ids are 1 + the sample index.
PhaseResult RunWire(uint16_t port, size_t connections,
                    const std::vector<std::string>& queries,
                    const std::vector<int64_t>& offsets_ns);

/// Serves every query through SubmitAsync (the frontend's own workers
/// run them in parallel) and returns the responses in query order.
std::vector<optselect::serving::Response> ServeAll(
    optselect::serving::Frontend* frontend,
    const std::vector<std::string>& queries);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
