// Bounded blocking queues used for inter-thread message passing.
//
// COP deliberately keeps cross-thread hand-offs rare (pillar -> execution
// stage -> pillar); TOP hands every message across several stages. Both are
// built on this queue so the schemes are compared on the same plumbing,
// mirroring the paper's same-code-base methodology.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <utility>

#include "common/metrics.hpp"
#include "common/threading.hpp"

namespace copbft {

/// Multi-producer multi-consumer bounded FIFO with close semantics.
///
/// push() blocks while full; pop() blocks while empty. close() wakes all
/// waiters: subsequent push() calls fail, pop() drains remaining elements
/// and then returns nullopt. wake() ends one pop_for() wait early without
/// an element, so a consumer can be told to look at other work.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity = 4096) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Opt-in instrumentation: `depth` tracks the queue length (its
  /// watermark shows peak backlog), `blocked_pushes` counts pushes that
  /// found the queue full and had to wait — the backpressure signal.
  /// Updates happen under the queue mutex the operation holds anyway.
  void instrument(metrics::Gauge& depth, metrics::Counter& blocked_pushes) {
    MutexLock lock(mutex_);
    depth_gauge_ = &depth;
    blocked_pushes_ = &blocked_pushes;
  }

  /// Blocking push; returns false iff the queue was closed.
  bool push(T value) {
    CvLock lock(mutex_);
    if (!closed_ && items_.size() >= capacity_ && blocked_pushes_)
      blocked_pushes_->add();
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(lock);
    if (closed_) return false;
    items_.push_back(std::move(value));
    publish_depth();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed and then leaves
  /// `value` untouched, so the caller keeps it (e.g. a transport lane
  /// requeues a frame at ingress). A rejection never counts as a blocked
  /// push: this is an admission probe, and `blocked_pushes` counts only
  /// producers that waited.
  bool try_push_ref(T& value) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
      publish_depth();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt iff closed and drained.
  std::optional<T> pop() {
    CvLock lock(mutex_);
    while (!closed_ && items_.empty()) not_empty_.wait(lock);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    publish_depth();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Pop with timeout; nullopt on timeout, on closed-and-drained, or on a
  /// wake() with nothing queued. Every return consumes a pending wake().
  std::optional<T> pop_for(std::chrono::microseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    CvLock lock(mutex_);
    while (!closed_ && items_.empty() && !woken_) {
      if (not_empty_.wait_until(lock, deadline) ==
          std::cv_status::timeout)
        break;
    }
    woken_ = false;
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    publish_depth();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    CvLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    publish_depth();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Makes a waiting pop_for() return at once, or, with no waiter, the
  /// next one: a wake is never lost.
  void wake() {
    {
      MutexLock lock(mutex_);
      woken_ = true;
    }
    not_empty_.notify_all();
  }

  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  void publish_depth() COP_REQUIRES(mutex_) {
    if (depth_gauge_)
      depth_gauge_->set(static_cast<std::int64_t>(items_.size()));
  }

  const std::size_t capacity_;
  mutable Mutex mutex_;
  Cv not_empty_;
  Cv not_full_;
  std::deque<T> items_ COP_GUARDED_BY(mutex_);
  bool closed_ COP_GUARDED_BY(mutex_) = false;
  bool woken_ COP_GUARDED_BY(mutex_) = false;
  metrics::Gauge* depth_gauge_ COP_GUARDED_BY(mutex_) = nullptr;
  metrics::Counter* blocked_pushes_ COP_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace copbft
