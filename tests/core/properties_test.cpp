// Property-based sweeps: invariants that must hold for every seed,
// controller and network condition.

#include <gtest/gtest.h>

#include "ff/core/framefeedback.h"

namespace ff::core {
namespace {

enum class ControllerKind { kFrameFeedback, kLocalOnly, kAlwaysOffload,
                           kInterval, kAimd };

ControllerFactory factory_for(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kFrameFeedback:
      return make_controller_factory<control::FrameFeedbackController>();
    case ControllerKind::kLocalOnly:
      return make_controller_factory<control::LocalOnlyController>();
    case ControllerKind::kAlwaysOffload:
      return make_controller_factory<control::AlwaysOffloadController>();
    case ControllerKind::kInterval:
      return make_controller_factory<control::IntervalOffloadController>();
    case ControllerKind::kAimd:
      return make_controller_factory<control::AimdController>();
  }
  return {};
}

const char* name_of(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kFrameFeedback: return "frame-feedback";
    case ControllerKind::kLocalOnly: return "local-only";
    case ControllerKind::kAlwaysOffload: return "always-offload";
    case ControllerKind::kInterval: return "all-or-nothing";
    case ControllerKind::kAimd: return "aimd";
  }
  return "?";
}

struct PropertyCase {
  ControllerKind controller;
  double bandwidth_mbps;
  double loss;
  std::uint64_t seed;
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << name_of(c.controller) << "/bw" << c.bandwidth_mbps << "/loss"
      << c.loss << "/seed" << c.seed;
}

class ConservationSweep : public ::testing::TestWithParam<PropertyCase> {};

// The accounting invariant: every offload attempt resolves at most once,
// and resolutions never exceed attempts. Every captured frame is routed
// somewhere.
TEST_P(ConservationSweep, EventAccountingHolds) {
  const PropertyCase& pc = GetParam();
  Scenario s = Scenario::ideal(25 * kSecond);
  s.seed = pc.seed;
  s.network = net::NetemSchedule::constant(
      {Bandwidth::mbps(pc.bandwidth_mbps), pc.loss, 2 * kMillisecond});
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);

  const auto r = run_experiment(s, factory_for(pc.controller));
  const auto& t = r.devices[0].totals;
  const auto& o = r.devices[0].offload;

  // Resolutions (success + timeout) never exceed attempts; the difference
  // is frames still in flight at the horizon.
  const std::uint64_t resolved = t.offload_successes + t.timeouts();
  EXPECT_LE(resolved, t.offload_attempts);
  EXPECT_LE(t.offload_attempts - resolved, 16u);  // bounded in-flight tail

  // Client-side stats agree with telemetry.
  EXPECT_EQ(o.attempts, t.offload_attempts);
  EXPECT_EQ(o.successes, t.offload_successes);
  EXPECT_EQ(o.timeouts_network, t.timeouts_network);
  EXPECT_EQ(o.timeouts_load, t.timeouts_load);

  // Frame routing: local completions + local drops + local queue tail +
  // offload attempts (+ frames mid-encode) account for all captures.
  EXPECT_LE(t.local_completions + t.local_drops + t.offload_attempts,
            t.frames_captured + 1);

  // P never exceeds capture rate on average.
  EXPECT_LE(r.devices[0].mean_throughput(), 31.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllControllersAllConditions, ConservationSweep,
    ::testing::Values(
        PropertyCase{ControllerKind::kFrameFeedback, 10.0, 0.0, 1},
        PropertyCase{ControllerKind::kFrameFeedback, 4.0, 0.0, 2},
        PropertyCase{ControllerKind::kFrameFeedback, 1.0, 0.07, 3},
        PropertyCase{ControllerKind::kLocalOnly, 10.0, 0.0, 4},
        PropertyCase{ControllerKind::kAlwaysOffload, 10.0, 0.0, 5},
        PropertyCase{ControllerKind::kAlwaysOffload, 1.0, 0.1, 6},
        PropertyCase{ControllerKind::kInterval, 4.0, 0.03, 7},
        PropertyCase{ControllerKind::kAimd, 4.0, 0.05, 8},
        PropertyCase{ControllerKind::kFrameFeedback, 10.0, 0.15, 9},
        PropertyCase{ControllerKind::kInterval, 1.0, 0.0, 10}));

class PoRangeSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Po_target stays in [0, Fs] at every sample, under chaotic conditions.
TEST_P(PoRangeSweep, PoAlwaysWithinRange) {
  Scenario s = Scenario::ideal(30 * kSecond);
  s.seed = GetParam();
  net::NetemSchedule sched;
  sched.add(0, {Bandwidth::mbps(10), 0.0, kMillisecond});
  sched.add(8 * kSecond, {Bandwidth::mbps(0.5), 0.2, kMillisecond});
  sched.add(16 * kSecond, {Bandwidth::mbps(10), 0.0, kMillisecond});
  sched.add(24 * kSecond, {Bandwidth::mbps(2), 0.07, kMillisecond});
  s.network = sched;
  s.uplink_template.initial = sched.at(0);
  s.downlink_template.initial = sched.at(0);

  const auto r = run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>());
  for (const auto& p : r.devices[0].series.find("Po_target")->points()) {
    EXPECT_GE(p.value, 0.0);
    EXPECT_LE(p.value, 30.0);
  }
  // Achieved offload rate is bounded by target + dispatch rounding.
  for (const auto& p : r.devices[0].series.find("Po_achieved")->points()) {
    EXPECT_LE(p.value, 31.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoRangeSweep,
                         ::testing::Range<std::uint64_t>(1, 8));

class ServerInvariantSweep : public ::testing::TestWithParam<double> {};

// Server-side invariants under any offered load: batches never exceed the
// limit, every request resolves exactly once.
TEST_P(ServerInvariantSweep, BatchAndConservation) {
  Scenario s = Scenario::ideal(20 * kSecond);
  s.seed = 31;
  s.background_load = server::LoadSchedule::constant(Rate{GetParam()});
  const auto r = run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>());
  const server::ServerStats& stats = r.servers.front().stats;
  EXPECT_LE(stats.batch_size.max(), 15.0);
  EXPECT_LE(stats.requests_completed + stats.requests_rejected,
            stats.requests_received);
  // In-progress tail bounded by one batch + queue.
  EXPECT_LE(stats.requests_received -
                (stats.requests_completed + stats.requests_rejected),
            40u);
}

INSTANTIATE_TEST_SUITE_P(OfferedLoads, ServerInvariantSweep,
                         ::testing::Values(0.0, 50.0, 150.0, 300.0));

// Monotonicity: more bandwidth never hurts FrameFeedback's throughput
// (within noise).
TEST(Property, ThroughputMonotoneInBandwidth) {
  double last = 0.0;
  for (const double mbps : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    Scenario s = Scenario::ideal(40 * kSecond);
    s.seed = 17;
    s.network = net::NetemSchedule::constant(
        {Bandwidth::mbps(mbps), 0.0, 2 * kMillisecond});
    s.uplink_template.initial = s.network.at(0);
    s.downlink_template.initial = s.network.at(0);
    const auto r = run_experiment(
        s, make_controller_factory<control::FrameFeedbackController>());
    const double p =
        r.devices[0].series.find("P")->mean_between(15 * kSecond, 40 * kSecond);
    EXPECT_GE(p, last - 2.0) << "bandwidth " << mbps;
    last = std::max(last, p);
  }
}

// Monotonicity: more packet loss never helps.
TEST(Property, ThroughputNonIncreasingInLoss) {
  double first = 0.0;
  bool first_set = false;
  for (const double loss : {0.0, 0.1, 0.3}) {
    Scenario s = Scenario::ideal(40 * kSecond);
    s.seed = 18;
    s.network = net::NetemSchedule::constant(
        {Bandwidth::mbps(10.0), loss, 2 * kMillisecond});
    s.uplink_template.initial = s.network.at(0);
    s.downlink_template.initial = s.network.at(0);
    const auto r = run_experiment(
        s, make_controller_factory<control::AlwaysOffloadController>());
    const double p =
        r.devices[0].series.find("P")->mean_between(15 * kSecond, 40 * kSecond);
    if (!first_set) {
      first = p;
      first_set = true;
    }
    EXPECT_LE(p, first + 2.0) << "loss " << loss;
  }
}

// FrameFeedback dominance: across a spread of stable conditions its
// steady-state throughput is never materially below the best baseline
// (the paper's core claim restated as a property).
class DominanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(DominanceSweep, FrameFeedbackNearBestBaseline) {
  const double mbps = GetParam();
  Scenario s = Scenario::ideal(60 * kSecond);
  s.seed = 23;
  s.network = net::NetemSchedule::constant(
      {Bandwidth::mbps(mbps), 0.0, 2 * kMillisecond});
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);

  auto steady = [](const ExperimentResult& r) {
    return r.devices[0].series.find("P")->mean_between(25 * kSecond,
                                                       60 * kSecond);
  };
  const double ff = steady(run_experiment(
      s, make_controller_factory<control::FrameFeedbackController>()));
  const double local = steady(run_experiment(
      s, make_controller_factory<control::LocalOnlyController>()));
  const double always = steady(run_experiment(
      s, make_controller_factory<control::AlwaysOffloadController>()));
  const double best_baseline = std::max(local, always);
  EXPECT_GT(ff, 0.75 * best_baseline) << "bandwidth " << mbps;
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, DominanceSweep,
                         ::testing::Values(1.0, 4.0, 10.0));

}  // namespace
}  // namespace ff::core
