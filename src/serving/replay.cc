#include "serving/replay.h"

#include <condition_variable>
#include <mutex>

#include "util/timer.h"

namespace optselect {
namespace serving {
namespace {

void Finalize(const util::WallTimer& timer, ReplayOutcome* out) {
  out->wall_ms = timer.ElapsedMillis();
  out->qps = out->wall_ms > 0 ? 1000.0 * static_cast<double>(out->accepted) /
                                    out->wall_ms
                              : 0.0;
}

}  // namespace

ReplayOutcome ReplayMix(Frontend* frontend,
                        const std::vector<std::string>& mix) {
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;

  util::WallTimer timer;
  ReplayOutcome out;
  for (const std::string& query : mix) {
    if (frontend->SubmitAsync(Request(query), [&](Response) {
          std::lock_guard<std::mutex> lock(mu);
          ++done;
          cv.notify_one();
        })) {
      ++out.accepted;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == out.accepted; });
  }
  Finalize(timer, &out);
  return out;
}

ReplayOutcome ReplaySequential(
    Frontend* frontend, const std::vector<std::string>& mix,
    const std::function<void(size_t)>& before_request,
    const std::function<void(size_t, const Response&)>& on_result) {
  util::WallTimer timer;
  ReplayOutcome out;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (before_request) before_request(i);
    Response result = frontend->Submit(Request(mix[i]));
    ++out.accepted;  // sequential serves are never shed, only failed
    if (on_result) on_result(i, result);
  }
  Finalize(timer, &out);
  return out;
}

}  // namespace serving
}  // namespace optselect
