#pragma once

// Conservative parallel partitioned DES driver (ROADMAP item 2).
//
// The entity graph is sharded into K partitions, each a full Simulator
// (own EventQueue, own clock, own label-forked RNG streams from the same
// root seed, so a component's stream depends only on its label, never on
// its partition). Partitions interact exclusively through directed
// BoundaryEdges whose `min_delay` is a hard lower bound on how far into
// the destination's future a message can land -- for network links, the
// minimum propagation delay. An edge whose source and destination are the
// same partition is a self-edge; only the other, cross-partition edges
// constrain the schedule. Their bound is the classic conservative
// lookahead: each round the driver computes the global safe horizon
//
//     H = min_i(next_event_time_i) + min_cross_edges(min_delay)
//
// runs every partition up to (but excluding) H in parallel -- no event
// executed inside the window can influence another partition before H --
// then drains the outboxes at the barrier and opens the next window.
// This is the time-window variant of null-message synchronization: the
// horizon broadcast plays the role of null messages, amortized to one
// barrier per window instead of one message per edge. Without
// cross-partition edges -- always the case at K=1 -- H is the end of the
// run, so the whole run is one window.
//
// Determinism is the headline contract: results are bit-identical for any
// partition count and any worker-thread count. Three mechanisms carry it:
//
//  1. Every post gets a canonical key (deliver_at, post_time, edge id,
//     the edge's post index). Each partition's Simulator runs its
//     deliveries from a heap ordered by that key, after every internal
//     event of the same timestamp (event_queue.h). Edge ids and post
//     indices are K-independent, so the key is too.
//  2. A self-edge post constructs its action straight into its
//     partition's delivery heap. A cross-partition post appends to the
//     source partition's outbox, SPSC by construction (the worker owning
//     the partition appends during a window; the driver consumes only at
//     barriers), and the barrier moves each envelope into its
//     destination's heap: O(K + n) for n envelopes, with no sort, since
//     the heap orders by key whatever the insertion order.
//  3. Every delivery enters its heap before its destination's clock
//     reaches it: a cross-partition delivery lands at or after the
//     window's horizon, which the destination has not yet executed, and
//     a self-edge delivery lands at least min_delay after its post. So
//     no delivery can be overtaken by one with a larger key.
//
// Why conservative rather than optimistic (Time Warp): the entities
// executed here (transports, batching servers, controllers) carry deep
// mutable state with callbacks into each other; checkpoint/rollback would
// have to snapshot all of it, and a misspeculated event could emit
// irreversible observer/trace side effects. With propagation delays of
// milliseconds against event spacings of microseconds, the lookahead is
// fat enough that conservative windows already batch hundreds of events,
// so rollback buys little and costs determinism.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "ff/sim/inline_task.h"
#include "ff/sim/simulator.h"
#include "ff/util/units.h"

namespace ff::sim {

/// Destructive-interference distance. Fixed at 64 (true for every
/// mainstream x86/ARM core) rather than std::hardware_destructive_
/// interference_size, whose value is an ABI hazard GCC warns about.
inline constexpr std::size_t kCacheLine = 64;

/// One cross-partition message waiting in its source partition's outbox:
/// an action to run in `destination` at `deliver_at`, posted at
/// `post_time`, with the posting edge's order word.
struct BoundaryEnvelope {
  template <class F>
  BoundaryEnvelope(SimTime at, SimTime posted, std::uint64_t order_word,
                   Simulator* to, F&& task)
      : deliver_at(at),
        post_time(posted),
        order(order_word),
        destination(to),
        action(std::forward<F>(task)) {}

  SimTime deliver_at;
  SimTime post_time;
  std::uint64_t order;
  Simulator* destination;
  InlineTask action;
};

/// One directed source-partition -> destination-partition edge. It owns
/// no storage: a self-edge post goes straight into the partition's
/// delivery heap, and a cross-partition post appends to the source
/// partition's outbox until the next barrier.
class BoundaryEdge {
 public:
  /// Low bits of an order word that hold the post index; the edge id
  /// sits above them.
  static constexpr unsigned kPostIndexBits = 40;

  /// Posts an action for the destination partition, constructing the
  /// callable directly in the delivery heap's slab (self-edge) or in the
  /// outbox envelope (cross-partition edge). Must be called only from
  /// events executing in the source partition, with `post_time` its
  /// current time. `deliver_at` must honor the lookahead contract:
  /// deliver_at >= post_time + min_delay().
  template <class F>
  void post(SimTime post_time, SimTime deliver_at, F&& action) {
    assert(deliver_at >= post_time + min_delay_ &&
           "boundary post violates the edge's lookahead contract");
    assert(posts_ < (std::uint64_t{1} << kPostIndexBits) &&
           "edge post index exceeds the order-word packing range");
    const std::uint64_t order =
        (static_cast<std::uint64_t>(id_) << kPostIndexBits) | posts_++;
    if (outbox_ == nullptr) {
      target_->deliver(deliver_at, post_time, order,
                       std::forward<F>(action));
    } else {
      outbox_->emplace_back(deliver_at, post_time, order, target_,
                            std::forward<F>(action));
    }
  }

  /// Lookahead bound: no post may deliver sooner than this after its
  /// post time. Strictly positive (enforced at creation).
  [[nodiscard]] SimDuration min_delay() const { return min_delay_; }

  [[nodiscard]] std::size_t source() const { return source_; }
  [[nodiscard]] std::size_t destination() const { return destination_; }

  /// Creation index; ties between different edges at equal
  /// (deliver_at, post_time) deliver in this order.
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  friend class PartitionedSimulator;

  BoundaryEdge(std::size_t id, std::size_t source, std::size_t destination,
               SimDuration min_delay, std::vector<BoundaryEnvelope>* outbox,
               Simulator* target)
      : id_(id),
        source_(source),
        destination_(destination),
        min_delay_(min_delay),
        outbox_(outbox),
        target_(target) {}

  std::size_t id_;
  std::size_t source_;
  std::size_t destination_;
  SimDuration min_delay_;
  /// The source partition's outbox; nullptr on a self-edge.
  std::vector<BoundaryEnvelope>* outbox_;
  Simulator* target_;  ///< the destination partition
  std::uint64_t posts_{0};
};

/// K Simulators advanced in lockstep time windows. See the file comment
/// for the synchronization and determinism model. Construction (partition
/// access, add_edge) is single-threaded; run_until may execute windows on
/// an internal worker gang, but all cross-partition exchange happens on
/// the calling thread at barriers.
class PartitionedSimulator {
 public:
  struct Options {
    /// Number of partitions; must be >= 1.
    std::size_t partitions{1};
    /// Worker threads for window execution: 0 = one per partition (capped
    /// at hardware concurrency), 1 = serial on the calling thread. Results
    /// are bit-identical across all values.
    unsigned threads{0};
  };

  /// Every partition's Simulator gets the same root `seed`: component RNG
  /// streams fork by label, so a component's randomness is independent of
  /// which partition it lives in.
  explicit PartitionedSimulator(std::uint64_t seed);
  PartitionedSimulator(std::uint64_t seed, Options options);
  ~PartitionedSimulator();

  PartitionedSimulator(const PartitionedSimulator&) = delete;
  PartitionedSimulator& operator=(const PartitionedSimulator&) = delete;

  [[nodiscard]] std::size_t partition_count() const {
    return partitions_.size();
  }

  [[nodiscard]] Simulator& partition(std::size_t i) {
    return *partitions_.at(i);
  }

  /// Threads that execute windows, resolved at construction: 1 means
  /// windows run serially on the calling thread.
  [[nodiscard]] unsigned worker_count() const { return worker_count_; }

  /// Registers a directed edge. `min_delay` must be strictly positive --
  /// a zero-delay edge has no lookahead and would force zero-width
  /// windows -- otherwise std::invalid_argument is thrown, as it is past
  /// 2^24 edges (the order word's edge-id range). Self-edges (source ==
  /// destination) deliver without a barrier, in the same canonical order
  /// as cross-partition edges, so delivery order is identical at every K.
  BoundaryEdge& add_edge(std::size_t source, std::size_t destination,
                         SimDuration min_delay);

  /// Runs all partitions to `t_end` (events exactly at `t_end` do not
  /// run, matching Simulator::run_until), exchanging boundary envelopes
  /// at safe-horizon barriers. Returns events executed by this call.
  std::uint64_t run_until(SimTime t_end);

  /// Global lookahead: the minimum min_delay over the cross-partition
  /// edges (0 when there are none, in which case one window spans
  /// straight to t_end).
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  /// Conservative global clock: the minimum of the partition clocks.
  [[nodiscard]] SimTime now() const;

  /// Total events executed across all partitions.
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Safe horizon for one round, exposed for tests: the earliest pending
  /// event time across partitions plus the lookahead, capped at `t_end`;
  /// `t_end` directly when idle or without cross-partition edges.
  [[nodiscard]] SimTime safe_horizon(SimTime t_end) const;

 private:
  void drain_mailboxes();
  void execute_window(SimTime horizon);
  void start_workers();
  void stop_workers();
  void worker_loop(unsigned index);

  /// Envelopes posted by one source partition's cross-partition edges
  /// since the last barrier, in post order. Single producer (the worker
  /// owning that partition, during a window), single consumer (the
  /// driver, at the barrier): the phases never overlap and the
  /// round_/remaining_ handoffs below order them, so a plain vector
  /// suffices. The padding keeps two workers' appends off one cache line.
  struct alignas(kCacheLine) Outbox {
    std::vector<BoundaryEnvelope> envelopes;
  };

  std::vector<std::unique_ptr<Simulator>> partitions_;
  /// One per partition; never resized, since edges point into it.
  std::vector<Outbox> outboxes_;
  /// A deque, so the references add_edge returns survive later adds.
  std::deque<BoundaryEdge> edges_;
  SimDuration lookahead_{0};

  // Worker gang (started lazily on the first parallel window). Round
  // protocol: the driver writes horizon_, bumps round_ (release); workers
  // acquire round_, run their owned partitions to horizon_, and drop
  // remaining_ (release) -- which the driver acquires, establishing the
  // happens-before edges both ways. No locks on the window path, so there
  // is no FF_CAPABILITY to guard by; the protocol IS the guard: horizon_
  // and the partition Simulators are published to workers by the round_
  // release store and handed back by the remaining_ release drop, and
  // TSan'd PartitionStress tests pin exactly those edges. Any new gang
  // state must be written only between a remaining_ acquire and the next
  // round_ bump (driver side) or read only after a round_ acquire
  // (worker side).
  unsigned worker_count_{1};
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> round_{0};
  std::atomic<unsigned> remaining_{0};
  std::atomic<bool> stop_{false};
  SimTime horizon_{0};  ///< published by the round_ release store
};

}  // namespace ff::sim
