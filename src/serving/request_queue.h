// Bounded multi-producer / multi-consumer request queue.
//
// The admission seam of the ServingNode: producers are client threads
// (Submit blocks on a full queue, SubmitAsync sheds load instead), consumers
// are pool workers. PopBatch hands a consumer every immediately
// available item up to `max_batch` in a single lock acquisition — the
// micro-batching primitive that amortizes wakeups and lets the worker
// deduplicate identical in-flight queries (see serving_node.cc).
//
// Close() initiates a drain: producers are rejected from then on, but
// consumers keep popping until the queue is empty, so no accepted
// request is ever dropped on shutdown.

#ifndef OPTSELECT_SERVING_REQUEST_QUEUE_H_
#define OPTSELECT_SERVING_REQUEST_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace optselect {
namespace serving {

/// Mutex + condvar bounded MPMC FIFO.
template <typename T>
class BoundedRequestQueue {
  /// Default admission hook (declared first: default template arguments
  /// need it complete).
  struct NoOp {
    void operator()() const {}
  };

 public:
  explicit BoundedRequestQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedRequestQueue(const BoundedRequestQueue&) = delete;
  BoundedRequestQueue& operator=(const BoundedRequestQueue&) = delete;

  /// Blocks while the queue is full. Returns false (item dropped) when
  /// the queue was closed before space became available. `on_admit`
  /// runs under the queue lock right after the push, before any
  /// consumer can pop the item — where admission counters belong.
  template <typename OnAdmit = NoOp>
  bool Push(T item, OnAdmit on_admit = OnAdmit()) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    on_admit();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed. `on_admit` as in
  /// Push.
  template <typename OnAdmit = NoOp>
  bool TryPush(T item, OnAdmit on_admit = OnAdmit()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      on_admit();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until at least one item is available (or the queue is closed
  /// and empty), then moves up to `max_batch` items into `*out`
  /// (cleared first). Returns the number of items delivered; 0 means
  /// "closed and drained" — the consumer should exit.
  size_t PopBatch(std::vector<T>* out, size_t max_batch) {
    out->clear();
    if (max_batch == 0) max_batch = 1;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    size_t n = std::min(max_batch, items_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock.unlock();
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// Rejects future pushes and wakes every waiter. Items already queued
  /// remain poppable (drain semantics). Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace serving
}  // namespace optselect

#endif  // OPTSELECT_SERVING_REQUEST_QUEUE_H_
