#pragma once

// The simulator's pending-event set, built for zero steady-state
// allocations:
//
//  - the heap sifts 16-byte POD records {time, key}, in a 4-ary layout
//    (shallower than binary, and all four children of a node share one
//    cache line), while callables live out-of-band in a slab;
//  - `key` packs (sequence << kSlotBits) | (slot + 1): the sequence is
//    globally unique, so comparing (time, key) is exactly the
//    (time, sequence) determinism order, and the same key doubles as the
//    public EventId;
//  - the slab is chunked (512 slots per chunk), so tasks never relocate
//    when the pending set grows and each chunk stays below the allocator's
//    mmap threshold -- chunk memory is recycled from the arena instead of
//    being faulted in afresh for every simulator instance;
//  - slab slots are recycled through a free list and tagged with the
//    occupying event's sequence, so cancel/liveness checks are two loads
//    instead of a hash-table probe, and a stale EventId can never alias a
//    recycled slot (sequences are never reused);
//  - each slot tracks its entry's heap position, so cancellation removes
//    the record in place -- usually a leaf, so O(1) in practice -- and the
//    heap never carries tombstones: pop() and next_time() only ever see
//    live events, even under the transport's schedule/cancel RTO churn.
//
// Ordering is by (time, sequence number): same-timestamp events run in
// scheduling order, which keeps runs bit-for-bit reproducible -- the
// (time, sequence) order is a strict total order, so it is independent of
// heap arity and internal layout.
//
// Boundary deliveries (sim::BoundaryEdge posts, see partition.h) sit in a
// second heap that shares the slab. It is ordered by (deliver time, post
// time, order word) -- the order word packs the edge id and the edge's
// post index, so the key is a strict total order and deliveries run in
// key order whatever order they were inserted in. Dispatch merges the
// two heaps, and at equal timestamps every internal event runs before
// every delivery.
//
// Hot-path members are defined inline here: the per-event cost is a few
// dozen nanoseconds, so a cross-TU call boundary per pop would be a
// measurable fraction of the budget.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

#include "ff/sim/inline_task.h"
#include "ff/util/units.h"

namespace ff::sim {

/// Opaque handle for cancelling a scheduled event. Value 0 is "no event".
struct EventId {
  std::uint64_t value{0};

  friend constexpr bool operator==(EventId, EventId) = default;
};

/// An event ready for execution. `sequence` is an internal event's
/// scheduling sequence, or a delivery's order word.
struct Event {
  SimTime time{0};
  std::uint64_t sequence{0};
  InlineTask action;
};

class EventQueue {
 public:
  /// next_time() of an empty queue.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  EventQueue() = default;
  ~EventQueue();

  // The slab hands out interior pointers (heap positions, free-list links),
  // so the queue is pinned in place.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `action` at absolute time `t`, constructing the callable
  /// directly in the slab (no intermediate task object).
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule(SimTime t, F&& action) {
    const std::uint32_t slot = acquire_slot();
    slot_at(slot).task.emplace(std::forward<F>(action));
    return push_entry(t, slot);
  }

  /// Schedules an already-built task at absolute time `t`.
  EventId schedule(SimTime t, InlineTask action);

  /// Queues a boundary delivery at `t`, constructing the callable in the
  /// slab (or moving an already-built task in). Deliveries have no
  /// EventId and cannot be cancelled. The caller owns the key: (t,
  /// post_time, order) must be unique, and no delivery may be inserted
  /// behind one that has already run.
  template <class F>
  void deliver(SimTime t, SimTime post_time, std::uint64_t order,
               F&& action) {
    const std::uint32_t slot = acquire_slot();
    if constexpr (std::is_same_v<std::decay_t<F>, InlineTask>) {
      slot_at(slot).task = std::forward<F>(action);
    } else {
      slot_at(slot).task.emplace(std::forward<F>(action));
    }
    deliveries_.push_back(Delivery{t, post_time, order, slot});
    std::push_heap(deliveries_.begin(), deliveries_.end(), Later{});
    next_delivery_ = deliveries_.front().time;
  }

  /// Cancels the event, releasing its callable immediately. Returns false
  /// if the id is unknown, already executed, or already cancelled.
  bool cancel(EventId id) {
    if (!is_live(id.value)) return false;
    const auto slot = static_cast<std::uint32_t>((id.value & kSlotMask) - 1);
    const std::size_t pos = slot_at(slot).heap_pos;
    release_slot(slot);
    remove_at(pos);
    return true;
  }

  /// True when no live events or deliveries remain.
  [[nodiscard]] bool empty() const {
    return heap_.empty() && deliveries_.empty();
  }

  [[nodiscard]] std::size_t size() const {
    return heap_.size() + deliveries_.size();
  }

  /// Time of the earliest pending event; kNever when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? next_delivery_
                         : std::min(heap_.front().time, next_delivery_);
  }

  /// Removes and returns the earliest pending event; only valid when
  /// !empty().
  [[nodiscard]] Event pop() {
    const Front f = take_front();
    Event out{f.time, f.sequence, std::move(slot_at(f.slot).task)};
    release_slot(f.slot);
    return out;
  }

  /// Pops the earliest event and calls `visit(time, sequence, task)` with
  /// the task still in its slab slot -- chunked slots never relocate, so
  /// the callable is executed with zero moves. The event's id is dead for
  /// the duration of the visit (self-cancel is a no-op, matching pop()),
  /// and the slot is recycled afterwards even if the visit unwinds. The
  /// visit may schedule, deliver and cancel freely; it must not re-enter
  /// pop() or visit_pop() on this queue.
  template <class Visit>
  void visit_pop(Visit&& visit) {
    const Front f = take_front();
    Slot& s = slot_at(f.slot);
    s.sequence = kFreeSequence;  // id is dead while the action runs
    const ReleaseGuard guard{this, &s, f.slot};
    visit(f.time, f.sequence, s.task);
  }

  /// Drops everything.
  void clear();

 private:
  // EventId / heap-key bit layout: low kSlotBits hold (slot index + 1) --
  // so a zero value stays "no event" -- and the high 40 bits hold the
  // event's sequence number. Sequences are monotone and never reused, so
  // a slot tagged with its occupant's sequence rejects every stale id.
  // 2^40 sequences is ~32 hours of simulated dispatch at 10M events/s;
  // push_entry() asserts on overflow.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1}
      << kSlotBits) - 1;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFF;
  static constexpr std::uint64_t kFreeSequence = ~std::uint64_t{0};
  static constexpr std::uint32_t kChunkShift = 9;  ///< 512 slots, ~48KB
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct HeapEntry {
    SimTime time;
    std::uint64_t key;  ///< packed (sequence << kSlotBits) | (slot + 1)
  };
  static_assert(sizeof(HeapEntry) == 16,
                "four children of a 4-ary node must share a cache line");

  struct Slot {
    InlineTask task;
    std::uint64_t sequence{kFreeSequence};  ///< occupant's sequence, or free
    std::uint32_t next_free{kNoFreeSlot};
    std::uint32_t heap_pos{0};  ///< index of this event's heap record
  };

  /// Returns a visited slot to the free list, releasing its captures --
  /// via RAII so an unwinding action cannot leak the slot.
  struct ReleaseGuard {
    EventQueue* queue;
    Slot* s;
    std::uint32_t slot;
    ~ReleaseGuard() {
      s->task.reset();
      s->next_free = queue->free_head_;
      queue->free_head_ = slot;
    }
  };

  /// A delivery's heap record. Deliveries are never cancelled, so the
  /// record tracks no heap position and its slot keeps kFreeSequence,
  /// which no EventId matches.
  struct Delivery {
    SimTime time;
    SimTime post_time;
    std::uint64_t order;
    std::uint32_t slot;
  };

  /// The earliest event of either heap, already unlinked from it.
  struct Front {
    SimTime time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };

  /// Heap comparator for deliveries (std:: heaps are max-heaps).
  struct Later {
    bool operator()(const Delivery& a, const Delivery& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.post_time != b.post_time) return a.post_time > b.post_time;
      return a.order > b.order;
    }
  };

  Front take_front() {
    assert(!empty());
    // Internal events win timestamp ties; with no deliveries pending,
    // next_delivery_ is kNever and the comparison is always false.
    if (heap_.empty() || next_delivery_ < heap_.front().time) {
      const Delivery d = deliveries_.front();
      std::pop_heap(deliveries_.begin(), deliveries_.end(), Later{});
      deliveries_.pop_back();
      next_delivery_ =
          deliveries_.empty() ? kNever : deliveries_.front().time;
      return Front{d.time, d.order, d.slot};
    }
    const HeapEntry e = heap_.front();
    const HeapEntry back = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, back);
    return Front{e.time, e.key >> kSlotBits,
                 static_cast<std::uint32_t>((e.key & kSlotMask) - 1)};
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    // For equal times the unique sequence occupies the key's high bits, so
    // the key comparison IS the sequence tiebreak.
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  [[nodiscard]] bool is_live(std::uint64_t key) const {
    const std::uint64_t biased_slot = key & kSlotMask;
    return biased_slot != 0 && biased_slot <= slot_count_ &&
           slot_at(static_cast<std::uint32_t>(biased_slot - 1)).sequence ==
               (key >> kSlotBits);
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slot_at(slot).next_free;
      return slot;
    }
    return grow_slab();
  }

  EventId push_entry(SimTime t, std::uint32_t slot) {
    const std::uint64_t seq = next_sequence_++;
    assert(seq < (std::uint64_t{1} << (64 - kSlotBits)) &&
           "event sequence exceeds the EventId packing range");
    slot_at(slot).sequence = seq;
    const std::uint64_t key = (seq << kSlotBits) | (slot + 1);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, HeapEntry{t, key});
    return EventId{key};
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    s.task.reset();
    s.sequence = kFreeSequence;  // invalidates outstanding ids
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Writes `e` at heap index `i` and records the position in its slot.
  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    slot_at(static_cast<std::uint32_t>((e.key & kSlotMask) - 1)).heap_pos =
        static_cast<std::uint32_t>(i);
  }

  /// Settles `e` upward from the hole at `i`.
  void sift_up(std::size_t i, const HeapEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, e);
  }

  /// Settles `e` downward from the hole at `i`.
  void sift_down(std::size_t i, const HeapEntry& e) {
    const std::size_t n = heap_.size();
    while (4 * i + 4 < n) {
      // Full child group: pairwise tournament for the minimum, so the two
      // halves compare independently instead of through one serial chain.
      const std::size_t first = 4 * i + 1;
      const std::size_t l = earlier(heap_[first + 1], heap_[first])
                                ? first + 1 : first;
      const std::size_t r = earlier(heap_[first + 3], heap_[first + 2])
                                ? first + 3 : first + 2;
      const std::size_t best = earlier(heap_[r], heap_[l]) ? r : l;
      // Pull the likely next child group toward the core before the
      // compare-vs-e branch resolves; sifted entries usually keep sinking.
      if (4 * best + 1 < n) __builtin_prefetch(&heap_[4 * best + 1]);
      if (!earlier(heap_[best], e)) break;
      place(i, heap_[best]);
      i = best;
    }
    if (const std::size_t first = 4 * i + 1; first < n) {
      // Partial group at the frontier (at most once per sift).
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (earlier(heap_[best], e)) {
        place(i, heap_[best]);
        i = best;
      }
    }
    place(i, e);
  }

  /// Deletes the heap record at `pos`, refilling the hole from the back.
  void remove_at(std::size_t pos) {
    const std::size_t last = heap_.size() - 1;
    const HeapEntry back = heap_.back();
    heap_.pop_back();
    if (pos == last) return;
    if (pos > 0 && earlier(back, heap_[(pos - 1) >> 2])) {
      sift_up(pos, back);
    } else {
      sift_down(pos, back);
    }
  }

  std::uint32_t grow_slab();

  std::vector<HeapEntry> heap_;
  std::vector<Delivery> deliveries_;
  SimTime next_delivery_{kNever};  ///< deliveries_.front().time, or kNever
  // Raw chunk storage: slots are placement-constructed one at a time as the
  // pending set first grows, so a fresh queue never streams init writes
  // over cache lines it is not about to use. slot_count_ is the number of
  // constructed slots.
  std::vector<Slot*> chunks_;
  std::uint32_t slot_count_{0};
  std::uint32_t free_head_{kNoFreeSlot};
  std::uint64_t next_sequence_{0};
};

}  // namespace ff::sim
