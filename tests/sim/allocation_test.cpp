// Pins the kernel's zero-allocation contract: after warm-up (heap vector
// and slab grown to working size), a steady-state schedule/execute/cancel
// loop must not touch the global heap. Counts via replaced global operator
// new/delete, gated by a flag so the rest of this binary is unaffected.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "ff/sim/partition.h"
#include "ff/sim/simulator.h"
#include "ff/sim/timer.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_tracking{false};

void* counted_alloc(std::size_t size) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_tracking.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align, size > 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ff::sim {
namespace {

class TrackingScope {
 public:
  TrackingScope() {
    g_allocations.store(0);
    g_tracking.store(true);
  }
  ~TrackingScope() { g_tracking.store(false); }

  [[nodiscard]] static std::uint64_t count() { return g_allocations.load(); }
};

TEST(Allocation, SteadyStateScheduleExecuteCancelIsAllocationFree) {
  constexpr int kBatch = 512;
  Simulator sim;
  std::uint64_t executed = 0;
  std::vector<EventId> ids;
  ids.reserve(kBatch);

  const auto churn = [&] {
    // The transport RTO pattern: schedule a wave, cancel half, run the rest.
    ids.clear();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(sim.schedule_in(10 + i, [&executed] { ++executed; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) {
      (void)sim.cancel(ids[i]);
    }
    (void)sim.run();
  };

  churn();  // warm-up: grows the heap vector, the slab and the free list

  {
    TrackingScope tracking;
    for (int round = 0; round < 8; ++round) churn();
    EXPECT_EQ(TrackingScope::count(), 0u);
  }
  EXPECT_EQ(executed, 9u * kBatch / 2);
}

TEST(Allocation, SelfReschedulingEventChainIsAllocationFree) {
  Simulator sim;
  std::uint64_t count = 0;
  // Non-capturing struct instead of std::function: re-scheduling copies it
  // into a fresh InlineTask each event.
  struct Chain {
    Simulator* sim;
    std::uint64_t* count;
    std::uint64_t limit;
    void operator()() const {
      if (++*count < limit) (void)sim->schedule_in(10, *this);
    }
  };
  (void)sim.schedule_in(10, Chain{&sim, &count, 100});
  (void)sim.run();  // warm-up

  count = 0;
  {
    TrackingScope tracking;
    (void)sim.schedule_in(10, Chain{&sim, &count, 10'000});
    (void)sim.run();
    EXPECT_EQ(TrackingScope::count(), 0u);
  }
  EXPECT_EQ(count, 10'000u);
}

TEST(Allocation, TimerRearmChurnIsAllocationFree) {
  Simulator sim;
  OneShotTimer rto(sim);
  std::uint64_t fired = 0;

  const auto churn = [&] {
    for (int i = 0; i < 256; ++i) {
      rto.arm(100, [&fired] { ++fired; });
      if (i % 2 == 0) rto.cancel();
      (void)sim.run();
    }
  };

  churn();  // warm-up
  {
    TrackingScope tracking;
    churn();
    EXPECT_EQ(TrackingScope::count(), 0u);
  }
  EXPECT_EQ(fired, 2u * 128);
}

/// Posts through `edge` every 10 us from its source partition `sim`.
struct PostChain {
  Simulator* sim;
  BoundaryEdge* edge;
  std::uint64_t* delivered;
  void operator()() const {
    edge->post(sim->now(), sim->now() + edge->min_delay(),
               [count = delivered] { ++*count; });
    (void)sim->schedule_in(10, *this);
  }
};

/// Runs a PostChain through `edge` (min_delay 100 us) past a warm-up
/// that grows the outbox, the delivery heap and the slab, then expects
/// 9,000 more deliveries without a single allocation.
void expect_posts_allocation_free(PartitionedSimulator& ps,
                                  BoundaryEdge& edge) {
  Simulator& sim = ps.partition(edge.source());
  std::uint64_t delivered = 0;
  (void)sim.schedule_in(10, PostChain{&sim, &edge, &delivered});
  (void)ps.run_until(1'000);  // warm-up

  const std::uint64_t before = delivered;
  {
    TrackingScope tracking;
    (void)ps.run_until(91'000);
    EXPECT_EQ(TrackingScope::count(), 0u);
  }
  EXPECT_EQ(delivered - before, 9'000u);
}

/// The direct path: K=1 with two self-edges, one of them idle; the chain
/// posts through the other straight into the partition's delivery heap.
TEST(Allocation, PartitionedWindowsAreAllocationFree) {
  PartitionedSimulator ps(1, {1, 1});
  BoundaryEdge& busy = ps.add_edge(0, 0, 100);
  (void)ps.add_edge(0, 0, 100);
  expect_posts_allocation_free(ps, busy);
}

/// The barrier path: K=2 with the chain in partition 0 posting across to
/// partition 1, so each 100 us window carries 10 envelopes that the
/// barrier moves into partition 1's delivery heap.
TEST(Allocation, CrossPartitionWindowsAreAllocationFree) {
  PartitionedSimulator ps(1, {2, 1});
  expect_posts_allocation_free(ps, ps.add_edge(0, 1, 100));
}

}  // namespace
}  // namespace ff::sim
