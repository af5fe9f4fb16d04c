#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/sweep/sweep.h"

namespace ff::core {
namespace {

/// A small but genuinely multi-device scenario: four devices in two
/// shared-medium groups, a loss burst mid-run, background server load --
/// enough cross-partition traffic to catch any ordering leak.
Scenario partition_scenario(std::uint64_t seed) {
  Scenario s = Scenario::ideal(20 * kSecond);
  s.name = "partition-determinism";
  s.seed = seed;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (int i = 0; i < 4; ++i) {
    device::DeviceConfig d = proto;
    d.name = "pi-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = 2;
  s.network = net::NetemSchedule::loss_injection(8 * kSecond, 0.05,
                                                 Bandwidth::mbps(10.0));
  s.background_load = server::LoadSchedule::constant(Rate{40.0});
  return s;
}

std::uint64_t fingerprint_at(std::uint64_t seed, std::size_t partitions,
                             unsigned threads) {
  Scenario s = partition_scenario(seed);
  s.partitions = partitions;
  s.partition_threads = threads;
  ExperimentResult r = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  return sweep::result_fingerprint(r);
}

/// The tentpole acceptance criterion: bit-identical result fingerprints
/// for every partition count, over several seeds.
TEST(PartitionDeterminism, FingerprintMatrixAcrossPartitionCounts) {
  for (const std::uint64_t seed : {42ull, 7ull, 1234ull}) {
    const std::uint64_t reference = fingerprint_at(seed, 1, 1);
    for (const std::size_t k : {std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      EXPECT_EQ(reference, fingerprint_at(seed, k, 1))
          << "seed " << seed << " K=" << k << " (serial)";
    }
  }
}

/// Thread count must not leak into results: the worker gang at K=4 with
/// 4 threads reproduces the serial fingerprint exactly.
TEST(PartitionDeterminism, ThreadCountDoesNotChangeResults) {
  const std::uint64_t serial = fingerprint_at(42, 4, 1);
  EXPECT_EQ(serial, fingerprint_at(42, 4, 4));
  EXPECT_EQ(serial, fingerprint_at(42, 4, 2));
  EXPECT_EQ(serial, fingerprint_at(42, 4, 0));  // one thread per partition
}

/// The partitioned runs actually do something: results carry frames and
/// the run completes the full horizon.
TEST(PartitionDeterminism, PartitionedRunProducesWork) {
  Scenario s = partition_scenario(42);
  s.partitions = 4;
  s.partition_threads = 1;
  ExperimentResult r = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  EXPECT_EQ(r.duration, 20 * kSecond);
  EXPECT_GT(r.events_executed, 1000u);
  ASSERT_EQ(r.devices.size(), 4u);
  for (const DeviceResult& d : r.devices) {
    EXPECT_GT(d.totals.frames_captured, 0u) << d.name;
    EXPECT_GT(d.uplink.messages_delivered, 0u) << d.name;
  }
}

/// Adds one 0-ms phase to partition_scenario's netem walk.
Scenario zero_delay_scenario(std::size_t partitions, unsigned threads) {
  Scenario s = partition_scenario(42);
  net::LinkConditions zero = s.network.at(8 * kSecond);
  zero.propagation_delay = 0;
  s.network.add(12 * kSecond, zero, "zero-delay");
  s.partitions = partitions;
  s.partition_threads = threads;
  return s;
}

/// A zero propagation delay leaves the one-tick lookahead floor: the run
/// completes with one fingerprint at every K and thread count. A negative
/// delay has no meaning and is still refused up front.
TEST(PartitionDeterminism, ZeroDelayPhaseRunsAtEveryK) {
  const auto fingerprint = [](std::size_t k, unsigned threads) {
    return sweep::result_fingerprint(run_experiment(
        zero_delay_scenario(k, threads),
        make_controller_factory<control::FrameFeedbackController>()));
  };
  const std::uint64_t reference = fingerprint(1, 1);
  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_EQ(reference, fingerprint(k, threads))
          << "K=" << k << " threads=" << threads;
    }
  }

  Scenario negative = zero_delay_scenario(1, 1);
  net::LinkConditions backwards = negative.network.at(12 * kSecond);
  backwards.propagation_delay = -kMillisecond;
  negative.network.add(16 * kSecond, backwards, "negative-delay");
  EXPECT_THROW((void)run_experiment(
                   negative,
                   make_controller_factory<control::FrameFeedbackController>()),
               std::invalid_argument);
}

/// Every experiment runs on the partitioned kernel: one partition by
/// default, and a partition count of zero is refused.
TEST(PartitionDeterminism, PartitionCountDefaultsToOneAndRejectsZero) {
  EXPECT_EQ(Scenario{}.partitions, 1u);
  Scenario s = partition_scenario(42);
  s.partitions = 0;
  EXPECT_THROW(
      (void)run_experiment(
          s, make_controller_factory<control::FrameFeedbackController>()),
      std::invalid_argument);
}

/// The sweep axis helper labels and applies partition counts.
TEST(PartitionDeterminism, PartitionAxisAppliesCounts) {
  sweep::Axis axis = sweep::partition_axis({1, 2, 4});
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(axis.values[0].label, "K=1");
  EXPECT_EQ(axis.values[2].label, "K=4");
  Scenario s = Scenario::ideal();
  axis.values[2].apply(s);
  EXPECT_EQ(s.partitions, 4u);
}

}  // namespace
}  // namespace ff::core
