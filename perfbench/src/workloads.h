#pragma once

// The benchmark's four workloads. A workload is a fixed set of experiments
// (one "round") derived from the workload seed; the timed phase runs the
// same round back to back, so every round of a run must fingerprint
// identically.

#include <cstdint>
#include <string>
#include <vector>

#include "ff/core/experiment.h"
#include "ff/core/scenario.h"

namespace ffbench {

struct ExperimentSpec {
  std::string label;       ///< "<controller>/r<replicate>"
  std::string controller;  ///< a controller_factory_from_config name
  ff::core::Scenario scenario;
};

struct Workload {
  std::string name;
  std::vector<ExperimentSpec> round;
  /// Partition count of the round's scenarios (0 = legacy serial kernel).
  /// Above 1, an untimed check compares the round's first experiment,
  /// shortened, against the same run at K=1.
  std::size_t partitions{0};
};

/// Builds `name` for `seed`. `smoke` shortens every horizon and keeps one
/// replicate, for schema tests. Throws std::invalid_argument on an unknown
/// name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke);

/// The fleet scenario: `devices` Pi 4B prototypes of Scenario::ideal in
/// devices/8 shared-medium groups on 40 Mbps / 2 ms, offloading to 4
/// token-bucket servers (60 fps, burst 15) under least-loaded placement.
[[nodiscard]] ff::core::Scenario fleet_scenario(std::size_t devices,
                                                ff::SimDuration duration,
                                                std::size_t partitions,
                                                unsigned threads,
                                                std::uint64_t seed);

}  // namespace ffbench
