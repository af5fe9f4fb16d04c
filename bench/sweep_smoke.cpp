// Sweep engine smoke: a tiny grid (2 fps values x 2 controllers x 2
// replicates) run twice -- serially and on 2 worker threads -- asserting
// the outputs are bit-identical, then exporting both CSV writers.
// CI runs this in Release and uploads the artifacts; it doubles as an
// end-to-end determinism canary on the exact binaries being shipped.
//
// Output: SWEEP_smoke.csv (per point), SWEEP_smoke_summary.csv (per
// cell).

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

int main() {
  using namespace ff;

  std::cout << "=== Sweep smoke: serial vs parallel determinism ===\n\n";

  sweep::SweepConfig cfg;
  cfg.name = "sweep_smoke";
  cfg.base = core::Scenario::ideal(10 * kSecond);
  cfg.base.seed = 7;
  cfg.replicates = 2;
  cfg.controllers = {
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()},
      {"local-only",
       core::make_controller_factory<control::LocalOnlyController>()},
  };
  sweep::Axis fps_axis;
  fps_axis.name = "fps";
  for (const double f : {15.0, 30.0}) {
    fps_axis.values.push_back({fmt(f, 0), [f](core::Scenario& s) {
                                 s.devices[0].source_fps = f;
                               }});
  }
  cfg.axes.push_back(std::move(fps_axis));
  cfg.probes = {
      {"mean_P",
       [](const core::ExperimentResult& r) {
         return r.devices[0].mean_throughput();
       }},
      {"goodput",
       [](const core::ExperimentResult& r) {
         return r.devices[0].goodput_fraction();
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
  std::ostringstream serial_csv, parallel_csv;
  sweep::write_points_csv(serial, serial_csv);
  sweep::write_points_csv(parallel, parallel_csv);
  ok = ok && serial_csv.str() == parallel_csv.str();

  std::cout << "serial vs 2-thread: "
            << (ok ? "bit-identical" : "MISMATCH") << " ("
            << serial.points.size() << " points)\n";

  sweep::write_points_csv(parallel, "SWEEP_smoke.csv");
  sweep::write_summary_csv(parallel, sweep::aggregate(parallel),
                           "SWEEP_smoke_summary.csv");
  std::cout << "wrote SWEEP_smoke.csv, SWEEP_smoke_summary.csv\n";

  rt::shutdown_default_pool();
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
