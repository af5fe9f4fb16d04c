#include "ff/rt/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace ff::rt {
namespace {

TEST(ThreadPool, ExecutesSubmittedTask) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = ++running;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      --running;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&] { ++count; });
    }
  }
  // close() lets queued tasks drain before join.
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitAcceptsMoveOnlyCallable) {
  // InlineTask tasks carry move-only callables; std::function could not.
  ThreadPool pool(1);
  auto value = std::make_unique<int>(99);
  auto f = pool.submit([v = std::move(value)] { return *v; });
  EXPECT_EQ(f.get(), 99);
}

TEST(DefaultPool, IsProcessWideSingleton) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1u);
}

TEST(DefaultPool, RunsSubmittedWork) {
  auto f = default_pool().submit([] { return 3 + 4; });
  EXPECT_EQ(f.get(), 7);
}

TEST(DefaultPool, ShutdownJoinsAndRecreatesOnNextUse) {
  ThreadPool& before = default_pool();
  auto warm = before.submit([] { return 1; });
  EXPECT_EQ(warm.get(), 1);

  shutdown_default_pool();

  // The pool comes back lazily and still runs work.
  auto f = default_pool().submit([] { return 5 * 5; });
  EXPECT_EQ(f.get(), 25);
  shutdown_default_pool();
}

TEST(DefaultPool, ShutdownWithoutPriorUseIsANoop) {
  shutdown_default_pool();
  shutdown_default_pool();  // idempotent
  auto f = default_pool().submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  shutdown_default_pool();
}

TEST(DefaultPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(default_pool().submit([&] { ++count; }));
  }
  shutdown_default_pool();  // close() lets queued tasks drain before join
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 200);
}

}  // namespace
}  // namespace ff::rt
