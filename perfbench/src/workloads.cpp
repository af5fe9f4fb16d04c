#include "workloads.h"

#include <stdexcept>

#include "ff/fleet/placement.h"
#include "ff/sweep/sweep.h"

namespace ffbench {
namespace {

using ff::core::Scenario;

/// Seed replicates per controller in a fig round: enough that a round's
/// simulated outcomes move little from one workload seed to the next.
constexpr std::size_t kFigReplicates = 4;

const std::vector<std::string>& fig_controllers() {
  static const std::vector<std::string> names = {
      "frame-feedback", "local-only", "always-offload", "all-or-nothing"};
  return names;
}

Workload fig_workload(const std::string& name, const Scenario& base,
                      std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  const std::size_t replicates = smoke ? 1 : kFigReplicates;
  for (std::size_t r = 0; r < replicates; ++r) {
    Scenario s = base;
    s.seed = ff::sweep::derive_point_seed(seed, r);
    if (smoke) s.duration = 10 * ff::kSecond;
    for (const std::string& controller : fig_controllers()) {
      w.round.push_back(
          {controller + "/r" + std::to_string(r), controller, s});
    }
  }
  return w;
}

/// Seed replicates of 10 sim-s in a fleet round (30 sim-s in all). One
/// 1000-device build takes about 8 ms or about 13 ms from one build to the
/// next; a round sums several builds, so `setup_s` moves with the share of
/// slow builds instead of flipping between the two.
constexpr std::size_t kFleetReplicates = 3;

Workload fleet_workload(const std::string& name, std::size_t partitions,
                        std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  w.partitions = partitions;
  const auto threads = static_cast<unsigned>(partitions);
  const std::size_t replicates = smoke ? 1 : kFleetReplicates;
  for (std::size_t r = 0; r < replicates; ++r) {
    w.round.push_back(
        {"frame-feedback/r" + std::to_string(r), "frame-feedback",
         fleet_scenario(1000, (smoke ? 2 : 10) * ff::kSecond, partitions,
                        threads, ff::sweep::derive_point_seed(seed, r))});
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "fig3_network") {
    return fig_workload(name, Scenario::paper_network(), seed, smoke);
  }
  if (name == "fig4_server_load") {
    return fig_workload(name, Scenario::paper_server_load(), seed, smoke);
  }
  if (name == "fleet_1k_k1") return fleet_workload(name, 1, seed, smoke);
  if (name == "fleet_1k_k3") return fleet_workload(name, 3, seed, smoke);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Scenario fleet_scenario(std::size_t devices, ff::SimDuration duration,
                        std::size_t partitions, unsigned threads,
                        std::uint64_t seed) {
  Scenario s = Scenario::ideal(duration);
  s.name = "fleet-" + std::to_string(devices);
  s.seed = seed;
  const ff::device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (std::size_t i = 0; i < devices; ++i) {
    ff::device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = std::max<std::size_t>(devices / 8, 1);
  s.network = ff::net::NetemSchedule::constant(
      {ff::Bandwidth::mbps(40.0), 0.0, 2 * ff::kMillisecond});
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);
  s.partitions = partitions;
  s.partition_threads = threads;

  s.fleet = ff::core::FleetTopology::uniform(s.server, 4);
  ff::server::AdmissionConfig admission;
  admission.policy = ff::server::AdmissionPolicy::kTokenBucket;
  admission.rate_fps = 60.0;
  admission.burst = 15.0;
  for (auto& spec : s.fleet.servers) spec.config.admission = admission;
  s.fleet.placement = ff::fleet::least_loaded_placement();
  return s;
}

}  // namespace ffbench
