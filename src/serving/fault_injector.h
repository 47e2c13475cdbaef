// Deterministic fault injection for the serving tier.
//
// Production fault tolerance is unverifiable without a way to *cause*
// faults on demand, reproducibly. A FaultInjector is a hook consulted at
// the three boundaries where a real shard misbehaves:
//
//   kQueueSubmit — admission: a dead or overloaded process rejects the
//                  request before any work happens (Submit/SubmitAsync);
//   kStoreRead   — compute: the node fails (or stalls) while answering
//                  — an I/O error, a corrupted page, a GC pause. Decided
//                  once per request at admission: a failure is answered
//                  there, a delay queues the request for a worker;
//   kReload      — lifecycle: a snapshot swap is refused mid-flight.
//
// The hooks are consulted per request with the normalized query key, so
// a scripted injector can fail deterministically by key or by flag — no
// wall clock, no global RNG — which is what makes the chaos scenario
// runner (src/cluster/chaos.h) reproducible from a single seed.
//
// Cost model: the sites are compiled into every build. With no
// injector installed each site is one acquire load and a null check,
// and a request passes two of them (both at admission) — noise next to
// its selection — so the chaos CLI, the tests and production all run
// the same code; a request no fault touches is answered on the same
// thread whether or not an injector is installed.

#ifndef OPTSELECT_SERVING_FAULT_INJECTOR_H_
#define OPTSELECT_SERVING_FAULT_INJECTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace optselect {
namespace serving {

/// Always true: every build evaluates installed injectors. Kept for
/// the reports that print the build's configuration.
constexpr bool FaultInjectionCompiledIn() { return true; }

/// Where in the serving flow a fault is being considered.
enum class FaultSite {
  kQueueSubmit,  ///< admission (ServingNode::Submit / SubmitAsync)
  kStoreRead,    ///< compute, decided at admission before the cache probe
  kReload,       ///< ServingNode::ReloadStore
};

/// What the injector wants done at a site. A delay counts at kStoreRead
/// only: the worker answering the request sleeps it, then applies the
/// failure, so "slow then dead" composes. No submitting or refresh
/// thread ever sleeps.
struct FaultDecision {
  bool fail = false;
  std::chrono::microseconds delay{0};
};

/// Hook interface. Evaluate is called concurrently from submitting
/// threads (kQueueSubmit, kStoreRead) and refresh threads (kReload);
/// implementations synchronize themselves and must not block, since a
/// submitting thread may be a router's or a reactor's.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// `key` is the normalized query at request sites, empty at kReload.
  virtual FaultDecision Evaluate(FaultSite site, std::string_view key) = 0;
};

/// Flag-driven injector for tests and the chaos runner. All knobs are
/// atomics: the scenario thread flips them between requests while the
/// node's threads read them. Decisions are pure functions of the flags
/// (plus one counted-burst knob), never of time or randomness.
class ScriptedFaultInjector : public FaultInjector {
 public:
  /// Dead shard: every admission is rejected (kQueueSubmit fails).
  void SetDead(bool dead) {
    dead_.store(dead, std::memory_order_relaxed);
  }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  /// Every store read fails (answered ok == false at admission).
  void SetFailStoreReads(bool fail) {
    fail_store_reads_.store(fail, std::memory_order_relaxed);
  }

  /// Transient burst: the next `n` store reads fail, then recover.
  void FailNextStoreReads(uint64_t n) {
    store_read_burst_.store(n, std::memory_order_relaxed);
  }

  /// Injected latency before every store read, slept by a worker
  /// (0 disables).
  void SetStoreReadDelay(std::chrono::microseconds delay) {
    store_read_delay_us_.store(delay.count(), std::memory_order_relaxed);
  }

  /// Every ReloadStore is refused (snapshot swap does not happen).
  void SetFailReloads(bool fail) {
    fail_reloads_.store(fail, std::memory_order_relaxed);
  }

  FaultDecision Evaluate(FaultSite site, std::string_view key) override {
    (void)key;
    FaultDecision decision;
    switch (site) {
      case FaultSite::kQueueSubmit:
        decision.fail = dead_.load(std::memory_order_relaxed);
        if (decision.fail) {
          submit_faults_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case FaultSite::kStoreRead: {
        int64_t delay = store_read_delay_us_.load(std::memory_order_relaxed);
        if (delay > 0) {
          decision.delay = std::chrono::microseconds(delay);
          delays_.fetch_add(1, std::memory_order_relaxed);
        }
        decision.fail = fail_store_reads_.load(std::memory_order_relaxed);
        if (!decision.fail) {
          // Consume one ticket of a transient burst, if any remain.
          uint64_t left = store_read_burst_.load(std::memory_order_relaxed);
          while (left > 0 &&
                 !store_read_burst_.compare_exchange_weak(
                     left, left - 1, std::memory_order_relaxed)) {
          }
          decision.fail = left > 0;
        }
        if (decision.fail) {
          store_read_faults_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case FaultSite::kReload:
        decision.fail = fail_reloads_.load(std::memory_order_relaxed);
        if (decision.fail) {
          reload_faults_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
    }
    return decision;
  }

  /// How often each site actually fired (observability for tests).
  struct Counts {
    uint64_t submit_faults = 0;
    uint64_t store_read_faults = 0;
    uint64_t delays = 0;
    uint64_t reload_faults = 0;
  };
  Counts counts() const {
    Counts c;
    c.submit_faults = submit_faults_.load(std::memory_order_relaxed);
    c.store_read_faults = store_read_faults_.load(std::memory_order_relaxed);
    c.delays = delays_.load(std::memory_order_relaxed);
    c.reload_faults = reload_faults_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  std::atomic<bool> dead_{false};
  std::atomic<bool> fail_store_reads_{false};
  std::atomic<uint64_t> store_read_burst_{0};
  std::atomic<int64_t> store_read_delay_us_{0};
  std::atomic<bool> fail_reloads_{false};

  std::atomic<uint64_t> submit_faults_{0};
  std::atomic<uint64_t> store_read_faults_{0};
  std::atomic<uint64_t> delays_{0};
  std::atomic<uint64_t> reload_faults_{0};
};

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_FAULT_INJECTOR_H_
