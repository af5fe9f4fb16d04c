#pragma once

// Annotated synchronization primitives: thin wrappers over the standard
// ones that carry the ff/util/thread_annotations.h capability attributes.
// libstdc++'s std::mutex and std::lock_guard have no thread-safety
// attributes, so clang's -Wthread-safety cannot check code that uses them
// directly; routing mutex-owning types through ff::Mutex / ff::MutexLock
// makes FF_GUARDED_BY declarations enforceable by the compiler (the CI
// `thread-safety` job); ff-lint's `unguarded-shared-state` rule demands
// that they exist.
//
// CondVar pairs with Mutex via std::condition_variable_any (Mutex is a
// BasicLockable); wait() is annotated FF_REQUIRES(m), matching the
// standard condition-variable contract: the caller holds the mutex around
// the wait, and the temporary release inside is invisible to the analysis
// by design.

#include <condition_variable>
#include <mutex>

#include "ff/util/thread_annotations.h"

namespace ff {

/// Annotated mutual-exclusion capability wrapping std::mutex.
class FF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FF_ACQUIRE() { m_.lock(); }
  void unlock() FF_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// RAII guard: acquires on construction, releases on destruction (the
/// annotated analogue of std::lock_guard<std::mutex>).
class FF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) FF_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() FF_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable usable with ff::Mutex. Callers hold the mutex (via
/// MutexLock) around wait() and re-check their predicate in a loop, the
/// standard pattern:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, blocks until notified, and reacquires
  /// it before returning. Spurious wakeups are possible; loop on the
  /// predicate.
  void wait(Mutex& mutex) FF_REQUIRES(mutex) { cv_.wait(mutex); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  /// _any: waits on the annotated Mutex directly (a BasicLockable)
  /// instead of requiring a std::unique_lock<std::mutex>, which the
  /// analysis cannot see through.
  std::condition_variable_any cv_;
};

}  // namespace ff
