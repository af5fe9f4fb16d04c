#pragma once

// Bounded blocking multi-producer/multi-consumer queue: the task
// channel of rt::ThreadPool, which ff::sweep runs on. Shared state is
// annotated with the ff/util/thread_annotations.h vocabulary, which
// ff-lint's `unguarded-shared-state` rule requires and clang's
// -Wthread-safety verifies.

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "ff/util/sync.h"
#include "ff/util/thread_annotations.h"

namespace ff {

template <class T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Blocks while full; returns false if the queue was closed.
  bool push(T value) FF_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    while (!closed_ && queue_.size() >= capacity_) not_full_.wait(mutex_);
    if (closed_) return false;
    queue_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed. Rvalue-reference
  /// parameter (not by-value) so a failed push does not consume the
  /// caller's object -- retry loops over move-only types depend on it.
  [[nodiscard]] bool try_push(T&& value) FF_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Copying overload for lvalues of copyable T.
  [[nodiscard]] bool try_push(const T& value) { return try_push(T(value)); }

  /// Blocks while empty; empty optional means closed-and-drained.
  std::optional<T> pop() FF_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    while (!closed_ && queue_.empty()) not_empty_.wait(mutex_);
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return value;
  }

  [[nodiscard]] std::optional<T> try_pop() FF_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return value;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain then fail.
  void close() FF_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const FF_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return queue_.size();
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> queue_ FF_GUARDED_BY(mutex_);
  bool closed_ FF_GUARDED_BY(mutex_) = false;
};

}  // namespace ff
