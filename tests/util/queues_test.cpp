#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "ff/util/mpmc_queue.h"

namespace ff {
namespace {

// Regression: try_push used to take its argument by value, so a push that
// FAILED (queue full or closed) still moved-from the caller's object;
// retry loops over move-only types then enqueued an empty husk (a null
// InlineTask -> crash on invoke). A failed try_push must leave the value
// untouched.
TEST(MpmcQueue, FailedTryPushDoesNotConsumeMoveOnlyValue) {
  MpmcQueue<std::unique_ptr<int>> q(1);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(1)));

  auto value = std::make_unique<int>(42);
  EXPECT_FALSE(q.try_push(std::move(value)));  // full
  ASSERT_NE(value, nullptr) << "failed try_push consumed the value";

  q.close();
  EXPECT_FALSE(q.try_push(std::move(value)));  // closed
  ASSERT_NE(value, nullptr) << "closed try_push consumed the value";
  EXPECT_EQ(*value, 42);
}

TEST(MpmcQueue, BlockingPopReceivesPush) {
  MpmcQueue<int> q(4);
  std::thread t([&] { EXPECT_TRUE(q.push(42)); });
  EXPECT_EQ(q.pop(), 42);
  t.join();
}

TEST(MpmcQueue, TryPushFailsWhenFull) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(MpmcQueue, CloseDrainsThenReturnsEmpty) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(MpmcQueue, ManyProducersManyConsumers) {
  MpmcQueue<int> q(32);
  constexpr int kPerProducer = 20000;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  std::atomic<long long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++received;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (auto& t : producers) t.join();
  while (received.load() < kProducers * kPerProducer) std::this_thread::yield();
  q.close();
  for (auto& t : threads) t.join();

  const long long expected = static_cast<long long>(kProducers) *
                             kPerProducer * (kPerProducer + 1) / 2;
  EXPECT_EQ(sum.load(), expected);
}

}  // namespace
}  // namespace ff
