// Micro-benchmarks for the partitioned DES kernel (ROADMAP item 2): the
// same multi-device experiment executed at K = 1, 2, 4, 8 partitions,
// with events/s as the headline. The scaling target (ROADMAP item 2, and
// the CI gate on >= 4-core runners) is >= 2x events/s at K=4 over K=1;
// on a 4-core VM the experiment currently runs slower at K=4 than at
// K=1 (README, Performance). Synthetic kernel-only benchmarks isolate
// window/barrier overhead from experiment entity costs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/sim/partition.h"

namespace {

using namespace ff;

/// A wide workload: many devices in as many shared-medium groups as
/// partitions, so every partition carries comparable event volume. Short
/// horizon -- the bench repeats it per iteration.
core::Scenario wide_scenario(std::size_t devices, std::size_t partitions) {
  core::Scenario s = core::Scenario::ideal(4 * kSecond);
  s.name = "micro-partition";
  s.seed = 42;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (std::size_t i = 0; i < devices; ++i) {
    device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = devices / 2;
  s.background_load = server::LoadSchedule::constant(Rate{60});
  s.partitions = partitions;
  s.partition_threads = 0;  // one worker per partition
  return s;
}

void BM_PartitionedExperiment(benchmark::State& state) {
  const auto partitions = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kDevices = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const core::ExperimentResult r = core::run_experiment(
        wide_scenario(kDevices, partitions),
        core::make_controller_factory<control::FrameFeedbackController>());
    events += r.events_executed;
    benchmark::DoNotOptimize(r.events_executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["partitions"] = static_cast<double>(partitions);
}
BENCHMARK(BM_PartitionedExperiment)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Kernel-only scaling: K partitions each burn a self-rescheduling event
/// chain, exchanging a token once per lookahead window. Measures the
/// window/barrier machinery without entity costs.
void BM_PartitionedKernelChains(benchmark::State& state) {
  const auto partitions = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kEventsPerPartition = 200'000;
  constexpr SimDuration kLookahead = 2 * kMillisecond;
  constexpr SimDuration kEventSpacing = 10;  // microseconds
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::PartitionedSimulator ps(1, {partitions, 0});
    for (std::size_t p = 0; p < partitions; ++p) {
      ps.add_edge(p, (p + 1) % partitions, kLookahead);
    }
    for (std::size_t p = 0; p < partitions; ++p) {
      sim::Simulator& sim = ps.partition(p);
      struct Chain {
        sim::Simulator* sim;
        std::uint64_t remaining;
        void fire() {
          if (remaining == 0) return;
          --remaining;
          Chain next = *this;
          sim->schedule_in(kEventSpacing,
                           [next]() mutable { next.fire(); });
        }
      };
      Chain chain{&sim, kEventsPerPartition};
      sim.schedule_at(0, [chain]() mutable { chain.fire(); });
    }
    events += ps.run_until(static_cast<SimTime>(kEventsPerPartition) *
                           kEventSpacing * 2);
    benchmark::DoNotOptimize(ps.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["partitions"] = static_cast<double>(partitions);
}
BENCHMARK(BM_PartitionedKernelChains)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Delivery cost against topology size: K=1 with `edges` self-edges, a
/// chain posting through the first one every 10 us and every other edge
/// idle. Self-edge posts go straight into the partition's delivery heap
/// and K=1 opens no windows, so idle edges cost nothing and the sizes
/// should read within noise of each other.
void BM_PartitionedSparseEdges(benchmark::State& state) {
  const auto edge_count = static_cast<std::size_t>(state.range(0));
  constexpr SimDuration kLookahead = 2 * kMillisecond;
  constexpr SimDuration kPostSpacing = 10;  // microseconds
  constexpr SimDuration kSlice = 100 * kMillisecond;
  sim::PartitionedSimulator ps(1, {1, 1});
  sim::BoundaryEdge& busy = ps.add_edge(0, 0, kLookahead);
  for (std::size_t e = 1; e < edge_count; ++e) {
    ps.add_edge(0, 0, kLookahead);
  }
  struct Chain {
    sim::Simulator* sim;
    sim::BoundaryEdge* edge;
    void operator()() const {
      edge->post(sim->now(), sim->now() + kLookahead, [] {});
      sim->schedule_in(kPostSpacing, *this);
    }
  };
  sim::Simulator& sim = ps.partition(0);
  sim.schedule_at(0, Chain{&sim, &busy});
  SimTime until = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    until += kSlice;
    events += ps.run_until(until);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["edges"] = static_cast<double>(edge_count);
}
BENCHMARK(BM_PartitionedSparseEdges)
    ->Arg(8)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
