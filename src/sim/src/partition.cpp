#include "ff/sim/partition.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace ff::sim {
namespace {

constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

/// Bounded spin before yielding: windows are microseconds apart, so the
/// next round usually arrives before a context switch would finish.
class SpinWaiter {
 public:
  void wait() {
    if (++spins_ > kSpinLimit) std::this_thread::yield();
  }

 private:
  static constexpr unsigned kSpinLimit = 256;
  unsigned spins_{0};
};

}  // namespace

PartitionedSimulator::PartitionedSimulator(std::uint64_t seed)
    : PartitionedSimulator(seed, Options{}) {}

PartitionedSimulator::PartitionedSimulator(std::uint64_t seed,
                                           Options options) {
  if (options.partitions == 0) {
    throw std::invalid_argument(
        "PartitionedSimulator: partition count must be >= 1");
  }
  // Resolved once, and only when there is a choice to make:
  // hardware_concurrency() reads /sys on every call, and a long run opens
  // tens of thousands of windows.
  if (options.partitions > 1) {
    const unsigned threads =
        options.threads == 0
            ? std::max(1u, std::thread::hardware_concurrency())
            : options.threads;
    worker_count_ = static_cast<unsigned>(
        std::min<std::size_t>(options.partitions, threads));
  }
  partitions_.reserve(options.partitions);
  for (std::size_t i = 0; i < options.partitions; ++i) {
    partitions_.push_back(std::make_unique<Simulator>(seed));
  }
  outboxes_.resize(options.partitions);
}

PartitionedSimulator::~PartitionedSimulator() { stop_workers(); }

BoundaryEdge& PartitionedSimulator::add_edge(std::size_t source,
                                             std::size_t destination,
                                             SimDuration min_delay) {
  if (source >= partitions_.size() || destination >= partitions_.size()) {
    throw std::invalid_argument(
        "PartitionedSimulator::add_edge: partition index out of range");
  }
  if (min_delay <= 0) {
    throw std::invalid_argument(
        "PartitionedSimulator::add_edge: zero or negative minimum delay on "
        "edge " +
        std::to_string(source) + "->" + std::to_string(destination) +
        "; conservative synchronization needs a strictly positive lookahead "
        "(the link's minimum propagation delay)");
  }
  if (edges_.size() >> (64 - BoundaryEdge::kPostIndexBits) != 0) {
    throw std::invalid_argument(
        "PartitionedSimulator::add_edge: more edges than an order word can "
        "number");
  }
  const bool self = source == destination;
  edges_.push_back(BoundaryEdge(
      edges_.size(), source, destination, min_delay,
      self ? nullptr : &outboxes_[source].envelopes,
      partitions_[destination].get()));
  // A self-edge's deliveries never leave the partition, so they need no
  // barrier and do not bound the window.
  if (!self) {
    lookahead_ =
        lookahead_ == 0 ? min_delay : std::min(lookahead_, min_delay);
  }
  return edges_.back();
}

SimTime PartitionedSimulator::now() const {
  SimTime t = kNoEvent;
  for (const auto& p : partitions_) t = std::min(t, p->now());
  return t;
}

std::uint64_t PartitionedSimulator::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& p : partitions_) n += p->events_executed();
  return n;
}

SimTime PartitionedSimulator::safe_horizon(SimTime t_end) const {
  SimTime next = kNoEvent;
  for (const auto& p : partitions_) {
    next = std::min(next, p->next_event_time());
  }
  if (next >= t_end || lookahead_ == 0) return t_end;
  return std::min(next + lookahead_, t_end);
}

std::uint64_t PartitionedSimulator::run_until(SimTime t_end) {
  const std::uint64_t before = events_executed();
  // Envelopes can be pending from a previous call's final window.
  drain_mailboxes();
  while (true) {
    SimTime next = kNoEvent;
    for (const auto& p : partitions_) {
      next = std::min(next, p->next_event_time());
    }
    if (next >= t_end) break;
    const SimTime horizon =
        lookahead_ == 0 ? t_end : std::min(next + lookahead_, t_end);
    execute_window(horizon);
    drain_mailboxes();
  }
  // Advance every clock to the horizon (no events remain before it).
  for (const auto& p : partitions_) p->run_until(t_end);
  return events_executed() - before;
}

void PartitionedSimulator::drain_mailboxes() {
  // Every key is unique and the heaps order by it, so envelopes can go in
  // as they lie.
  for (Outbox& outbox : outboxes_) {
    for (BoundaryEnvelope& env : outbox.envelopes) {
      env.destination->deliver(env.deliver_at, env.post_time, env.order,
                               std::move(env.action));
    }
    outbox.envelopes.clear();
  }
}

void PartitionedSimulator::execute_window(SimTime horizon) {
  if (worker_count_ <= 1) {
    for (const auto& p : partitions_) p->run_until(horizon);
    return;
  }
  if (workers_.empty()) start_workers();
  horizon_ = horizon;
  remaining_.store(worker_count_, std::memory_order_relaxed);
  round_.fetch_add(1, std::memory_order_release);
  SpinWaiter waiter;
  while (remaining_.load(std::memory_order_acquire) != 0) waiter.wait();
}

void PartitionedSimulator::start_workers() {
  workers_.reserve(worker_count_);
  for (unsigned w = 0; w < worker_count_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

void PartitionedSimulator::stop_workers() {
  if (workers_.empty()) return;
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void PartitionedSimulator::worker_loop(unsigned index) {
  std::uint64_t seen_round = 0;
  while (true) {
    std::uint64_t r = seen_round;
    SpinWaiter waiter;
    while ((r = round_.load(std::memory_order_acquire)) == seen_round) {
      if (stop_.load(std::memory_order_acquire)) return;
      waiter.wait();
    }
    seen_round = r;
    const SimTime horizon = horizon_;
    // Static partition ownership: worker w always advances partitions
    // w, w + W, w + 2W, ... so a partition's state is only ever touched
    // by one thread per run.
    for (std::size_t p = index; p < partitions_.size(); p += worker_count_) {
      partitions_[p]->run_until(horizon);
    }
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace ff::sim
