// Fleet smoke: 64 devices offloading to a 4-server fleet with token-bucket
// admission and least-loaded placement, swept over the partitioned kernel
// (K=1 vs K=4) and two placement policies, run twice -- serially and on
// worker threads -- asserting bit-identical fingerprints. CI runs this in
// Release; it is the fleet layer's end-to-end determinism canary.
//
// Output: FLEET_smoke.csv.

#include <cstdlib>
#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/fleet/placement.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

namespace {

using namespace ff;

core::Scenario fleet_base() {
  core::Scenario s = core::Scenario::ideal(10 * kSecond);
  s.name = "fleet-smoke";
  s.seed = 7;
  const device::DeviceConfig proto = s.devices.at(0);
  s.devices.clear();
  for (int i = 0; i < 64; ++i) {
    device::DeviceConfig d = proto;
    d.name = "dev-" + std::to_string(i);
    s.add_device(std::move(d));
  }
  s.shared_uplink_medium = true;
  s.uplink_medium_groups = 8;
  s.network = net::NetemSchedule::constant(
      {Bandwidth::mbps(40.0), 0.0, 2 * kMillisecond});
  s.uplink_template.initial = s.network.at(0);
  s.downlink_template.initial = s.network.at(0);

  s.fleet = core::FleetTopology::uniform(s.server, 4);
  server::AdmissionConfig admission;
  admission.policy = server::AdmissionPolicy::kTokenBucket;
  admission.rate_fps = 60.0;
  admission.burst = 15.0;
  for (auto& spec : s.fleet.servers) spec.config.admission = admission;
  return s;
}

}  // namespace

int main() {
  std::cout << "=== Fleet smoke: 64 devices x 4 servers, serial vs "
               "parallel ===\n\n";

  sweep::SweepConfig cfg;
  cfg.name = "fleet";
  cfg.base = fleet_base();
  cfg.controllers = {
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()},
  };
  cfg.axes.push_back(sweep::partition_axis({1, 4}));
  cfg.axes.push_back(sweep::placement_axis(
      {{"least-loaded", fleet::least_loaded_placement()},
       {"static", fleet::static_placement()}}));
  cfg.probes = {
      {"total_P",
       [](const core::ExperimentResult& r) {
         return r.total_mean_throughput();
       }},
      {"admission_rejected",
       [](const core::ExperimentResult& r) {
         std::uint64_t n = 0;
         for (const auto& s : r.servers) {
           n += s.stats.requests_admission_rejected;
         }
         return static_cast<double>(n);
       }},
      {"rehomed",
       [](const core::ExperimentResult& r) {
         std::uint64_t n = 0;
         for (const auto& d : r.devices) {
           if (d.final_server != d.initial_server) ++n;
         }
         return static_cast<double>(n);
       }},
  };

  cfg.threads = 1;
  const sweep::SweepResult serial = sweep::run(cfg);

  cfg.threads = 2;
  const sweep::SweepResult parallel = sweep::run(cfg);

  bool ok = serial.points.size() == parallel.points.size();
  for (std::size_t i = 0; ok && i < serial.points.size(); ++i) {
    ok = sweep::result_fingerprint(serial.points[i].result) ==
         sweep::result_fingerprint(parallel.points[i].result);
  }
  // Partition-count invariance: points are laid out axis-major
  // (partitions outermost), so point i (K=1) pairs with point i + 2
  // (K=4) of the same placement. Both run on the scenario's seed, so they
  // differ only in partition count and must fingerprint-match.
  const std::size_t per_k = serial.points.size() / 2;
  for (std::size_t i = 0; ok && i < per_k; ++i) {
    ok = sweep::result_fingerprint(serial.points[i].result) ==
         sweep::result_fingerprint(serial.points[i + per_k].result);
  }
  for (const sweep::SweepPoint& p : serial.points) {
    std::cout << "  " << p.desc.label << ": servers="
              << p.result.servers.size()
              << " fingerprint=" << std::hex
              << sweep::result_fingerprint(p.result) << std::dec << "\n";
  }
  std::cout << "\nserial vs 2-thread: "
            << (ok ? "bit-identical" : "MISMATCH") << " ("
            << serial.points.size() << " points)\n";

  sweep::write_points_csv(parallel, "FLEET_smoke.csv");
  std::cout << "wrote FLEET_smoke.csv\n";

  rt::shutdown_default_pool();
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
