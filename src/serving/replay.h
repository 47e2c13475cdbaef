// Replay drivers shared by the load-test surfaces (`optselect loadtest`,
// `optselect stats`, the chaos harnesses and the benches): submit a
// prepared query mix through any serving::Frontend — a node, a
// cluster, or a remote client — wait for every answer, and time the
// whole drain. Local and remote replays are the same code path by
// construction.

#ifndef OPTSELECT_SERVING_REPLAY_H_
#define OPTSELECT_SERVING_REPLAY_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "serving/frontend.h"

namespace optselect {
namespace serving {

/// One replay run's outcome.
struct ReplayOutcome {
  /// Requests admitted (== mix size unless the queue shed load).
  size_t accepted = 0;
  /// First submit → last completion.
  double wall_ms = 0.0;
  /// accepted / wall, in queries per second.
  double qps = 0.0;
};

/// Submits every query in `mix` (in order) through SubmitAsync and
/// blocks until each accepted request's callback has fired. Requests
/// shed by a bounded queue are skipped and reflected in `accepted`;
/// size the queue_capacity to the mix when shedding is not intended.
ReplayOutcome ReplayMix(Frontend* frontend,
                        const std::vector<std::string>& mix);

/// Strictly sequential replay through the blocking Submit: serves
/// mix[i] only after mix[i-1] has been answered, invoking
/// `before_request(i)` first (may be null) and `on_result(i, result)`
/// after (may be null). One request in flight at a time means the
/// request/outcome order is the mix order — the determinism the chaos
/// harnesses (cluster/chaos.h, `chaos --net`) build on, and the hook
/// point where their fault schedules act.
ReplayOutcome ReplaySequential(
    Frontend* frontend, const std::vector<std::string>& mix,
    const std::function<void(size_t)>& before_request,
    const std::function<void(size_t, const Response&)>& on_result);

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_REPLAY_H_
