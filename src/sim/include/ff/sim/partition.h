#pragma once

// Conservative parallel partitioned DES driver (ROADMAP item 2).
//
// The entity graph is sharded into K partitions, each a full Simulator
// (own EventQueue, own clock, own label-forked RNG streams from the same
// root seed, so a component's stream depends only on its label, never on
// its partition). Partitions interact exclusively through directed
// BoundaryEdges whose `min_delay` is a hard lower bound on how far into
// the destination's future a message can land -- for network links, the
// minimum propagation delay. That bound is the classic conservative
// lookahead: each round the driver computes the global safe horizon
//
//     H = min_i(next_event_time_i) + min_edges(min_delay)
//
// runs every partition up to (but excluding) H in parallel -- no event
// executed inside the window can influence another partition before H --
// then drains the outboxes at the barrier and opens the next window.
// This is the time-window variant of null-message synchronization: the
// horizon broadcast plays the role of null messages, amortized to one
// barrier per window instead of one message per edge.
//
// Determinism is the headline contract: results are bit-identical for any
// partition count and any worker-thread count. Three mechanisms carry it:
//
//  1. Each partition posts into its own outbox, SPSC by construction (the
//     worker owning the partition appends during a window; the driver
//     consumes only at barriers), so no interleaving exists to observe.
//  2. At each barrier the driver gathers the K outboxes and sorts the
//     envelopes by the strict total order (deliver_at, post_time, edge
//     id, position in the outbox) -- the edge id makes full ties
//     independent of which partition posted them -- then assigns
//     sequences from one global counter in that order. Windows
//     partition virtual time identically for every K (the
//     pending-event union, and hence the horizon sequence, is
//     K-independent), so equal post times always share a drain and the
//     assignment is reproducible. The barrier costs O(K + n log n) for n
//     envelopes, however many edges exist.
//  3. Assigned sequences live in the EventQueue's external band: at equal
//     timestamps, every delivery executes after every internal event of
//     the destination partition, by explicit rule rather than by accident
//     of scheduling interleave.
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

#include "ff/sim/event_queue.h"
#include "ff/sim/inline_task.h"
#include "ff/sim/simulator.h"
#include "ff/util/units.h"

namespace ff::sim {

/// Destructive-interference distance. Fixed at 64 (true for every
/// mainstream x86/ARM core) rather than std::hardware_destructive_
/// interference_size, whose value is an ABI hazard GCC warns about.
inline constexpr std::size_t kCacheLine = 64;

/// One cross-partition message: an action to run in partition
/// `destination` at `deliver_at`, posted through edge `edge` at
/// `post_time`.
struct BoundaryEnvelope {
  template <class F>
  BoundaryEnvelope(SimTime at, SimTime posted, std::size_t edge_id,
                   std::size_t to, F&& task)
      : deliver_at(at),
        post_time(posted),
        edge(edge_id),
        destination(to),
        action(std::forward<F>(task)) {}

  SimTime deliver_at;
  SimTime post_time;
  std::size_t edge;
  std::size_t destination;
  InlineTask action;
};

/// One directed source-partition -> destination-partition edge. It owns
/// no storage: a post appends to the source partition's outbox, tagged
/// with this edge's id and destination, so an edge's envelopes sit in
/// one outbox in post order.
class BoundaryEdge {
 public:
  /// Posts an action for the destination partition, constructing the
  /// callable directly in the outbox envelope. Must be called only from
  /// events executing in the source partition. `deliver_at` must honor
  /// the lookahead contract: deliver_at >= post_time + min_delay().
  template <class F>
  void post(SimTime post_time, SimTime deliver_at, F&& action) {
    assert(deliver_at >= post_time + min_delay_ &&
           "boundary post violates the edge's lookahead contract");
    outbox_->emplace_back(deliver_at, post_time, id_, destination_,
                          std::forward<F>(action));
  }

  /// Lookahead bound: no post may deliver sooner than this after its
  /// post time. Strictly positive (enforced at creation).
  [[nodiscard]] SimDuration min_delay() const { return min_delay_; }

  [[nodiscard]] std::size_t source() const { return source_; }
  [[nodiscard]] std::size_t destination() const { return destination_; }

  /// Creation index; ties between different edges at equal
  /// (deliver_at, post_time) drain in this order.
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  friend class PartitionedSimulator;

  BoundaryEdge(std::size_t id, std::size_t source, std::size_t destination,
               SimDuration min_delay, std::vector<BoundaryEnvelope>* outbox)
      : id_(id),
        source_(source),
        destination_(destination),
        min_delay_(min_delay),
        outbox_(outbox) {}

  std::size_t id_;
  std::size_t source_;
  std::size_t destination_;
  SimDuration min_delay_;
  std::vector<BoundaryEnvelope>* outbox_;  ///< the source partition's
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
  /// windows -- otherwise std::invalid_argument is thrown. Self-edges
  /// (source == destination) are allowed and still route through the
  /// source partition's outbox, which keeps delivery ordering identical
  /// at every K.
  BoundaryEdge& add_edge(std::size_t source, std::size_t destination,
                         SimDuration min_delay);

  /// Runs all partitions to `t_end` (events exactly at `t_end` do not
  /// run, matching Simulator::run_until), exchanging boundary envelopes
  /// at safe-horizon barriers. Returns events executed by this call.
  std::uint64_t run_until(SimTime t_end);

  /// Global lookahead: the minimum min_delay over all edges (0 when no
  /// edges exist, in which case windows span straight to t_end).
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }

  /// Conservative global clock: the minimum of the partition clocks.
  [[nodiscard]] SimTime now() const;

  /// Total events executed across all partitions.
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Safe horizon for one round, exposed for tests: the earliest pending
  /// event time across partitions plus the lookahead, capped at `t_end`;
  /// `t_end` directly when idle or edge-free.
  [[nodiscard]] SimTime safe_horizon(SimTime t_end) const;

 private:
  void drain_mailboxes();
  void execute_window(SimTime horizon);
  void start_workers();
  void stop_workers();
  void worker_loop(unsigned index);

  /// Envelopes posted by one source partition's edges since the last
  /// barrier, in post order. Single producer (the worker owning that
  /// partition, during a window), single consumer (the driver, at the
  /// barrier): the phases never overlap and the round_/remaining_
  /// handoffs below order them, so a plain vector suffices. The padding
  /// keeps two workers' appends off one cache line.
  struct alignas(kCacheLine) Outbox {
    std::vector<BoundaryEnvelope> envelopes;
  };

  /// Drain scratch, reused across barriers: an envelope's sort key and
  /// its address. The key is a strict total order (an edge's envelopes
  /// share one outbox, so position breaks every remaining tie).
  struct DrainEntry {
    SimTime deliver_at;
    SimTime post_time;
    std::size_t edge;
    std::size_t position;  ///< index in the envelope's outbox
    BoundaryEnvelope* envelope;
  };

  std::vector<std::unique_ptr<Simulator>> partitions_;
  /// One per partition; never resized, since edges point into it.
  std::vector<Outbox> outboxes_;
  /// A deque, so the references add_edge returns survive later adds.
  std::deque<BoundaryEdge> edges_;
  SimDuration lookahead_{0};
  std::uint64_t next_external_seq_{EventQueue::kExternalSequenceBase};
  std::vector<DrainEntry> batch_;

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
