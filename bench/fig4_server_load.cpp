// Reproduces paper Fig. 4 (+ Table VI): total inference throughput P for
// each controller while background request volume walks the Table VI
// schedule on a clean network. Also reports the §II-A CPU-utilization
// claim (50.2% local vs 22.3% offloaded).
//
// CSV dump in fig4_server_load.csv.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

int main() {
  using namespace ff;

  std::cout << "=== Fig 4: throughput under the Table VI server-load "
               "schedule ===\n\n";

  core::Scenario scenario = core::Scenario::paper_server_load();
  scenario.seed = 42;

  std::cout << "Table VI server load configuration:\n";
  TextTable tvi({"Time (s)", "Request rate (/s)"});
  const auto& phases = scenario.background_load.phases();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const SimTime to =
        i + 1 < phases.size() ? phases[i + 1].start : scenario.duration;
    tvi.add_row({fmt(sim_to_seconds(phases[i].start), 0) + "-" +
                     fmt(sim_to_seconds(to), 0),
                 fmt(phases[i].rate.per_second, 0)});
  }
  std::cout << tvi.render();

  const auto& spec = models::get_model(scenario.devices[0].model);
  std::cout << "\nServer capacity at full batches (batch limit "
            << scenario.server.batch_limit << "): "
            << fmt(models::gpu_throughput(spec, scenario.server.batch_limit), 0)
            << " fps; 3 devices add up to 90 req/s on top of the schedule.\n\n";

  sweep::SweepConfig cfg;
  cfg.name = "fig4_server_load";
  cfg.base = scenario;
  cfg.controllers = {
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()},
      {"local-only",
       core::make_controller_factory<control::LocalOnlyController>()},
      {"always-offload",
       core::make_controller_factory<control::AlwaysOffloadController>()},
      {"all-or-nothing",
       core::make_controller_factory<control::IntervalOffloadController>()},
  };
  const sweep::SweepResult runs = sweep::run(cfg);

  std::vector<const core::ExperimentResult*> ptrs;
  for (const auto& point : runs.points) ptrs.push_back(&point.result);
  core::plot_runs(std::cout,
                  "Total inference throughput P (fps), device pi4b_r14", ptrs,
                  "P", 0, 32.0);

  const auto& ff_device = runs.points[0].result.devices[0];
  std::cout << "\nFrameFeedback offload target Po (device pi4b_r14):\n  "
            << sparkline(*ff_device.series.find("Po_target"))
            << "\nload timeouts Tl (/s):\n  "
            << sparkline(*ff_device.series.find("Tl")) << "\n";

  std::cout << "\nMean P (fps) per load phase (3 s settle):\n";
  std::vector<std::string> names;
  std::vector<std::vector<core::PhaseStat>> stats;
  for (const auto& point : runs.points) {
    names.push_back(point.desc.controller);
    stats.push_back(
        core::phase_means(*point.result.devices[0].series.find("P"),
                          scenario.background_load, point.result.duration));
  }
  core::print_phase_comparison(std::cout, names, stats);

  // §II-A CPU utilization claim.
  const double cpu_local = runs.points[1]
                               .result.devices[0]
                               .series.find("cpu")
                               ->mean_between(10 * kSecond, 100 * kSecond);
  // Fully-offloading reference: the always-offload run during the no-load
  // tail, where every frame ships and none run locally.
  const double cpu_offload =
      runs.points[2].result.devices[0].series.find("cpu")->mean_between(
          110 * kSecond, 130 * kSecond);
  std::cout << "\nCPU utilization check (paper SII-A: 50.2% local -> 22.3% "
               "offloading):\n"
            << "  local-only device:      " << fmt(cpu_local * 100, 1) << "%\n"
            << "  fully-offloading device: " << fmt(cpu_offload * 100, 1)
            << "%\n";

  std::cout << "\nPer-run summaries:\n";
  for (const auto& point : runs.points) {
    std::cout << "\n-- " << point.desc.controller << " --\n";
    core::print_summary(std::cout, point.result);
  }

  sweep::write_series_csv(runs, "P", 0, "fig4_server_load.csv");
  std::cout << "\nwrote fig4_server_load.csv\n";
  rt::shutdown_default_pool();
  return 0;
}
