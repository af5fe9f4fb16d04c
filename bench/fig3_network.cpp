// Reproduces paper Fig. 3 (+ Table V): total inference throughput P for
// each controller while the network walks the Table V schedule. Three Pis
// stream 4000 frames at 30 fps; device 0 (pi4b_r14) is plotted, as in the
// paper's measurement protocol.
//
// Output: the Table V schedule, the figure as ASCII, per-phase mean P per
// controller, and the headline FrameFeedback vs all-or-nothing ratios.
// CSV dump in fig3_network.csv.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

int main() {
  using namespace ff;

  std::cout
      << "=== Fig 3: throughput under the Table V network schedule ===\n\n";

  core::Scenario scenario = core::Scenario::paper_network();
  scenario.seed = 42;

  std::cout << "Table V network variables (bandwidth unit = 1 Mbps, see "
               "DESIGN.md):\n";
  TextTable tv({"Time (s)", "Bandwidth", "Loss (%)"});
  const auto& phases = scenario.network.phases();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const SimTime to =
        i + 1 < phases.size() ? phases[i + 1].start : scenario.duration;
    tv.add_row({fmt(sim_to_seconds(phases[i].start), 0) + "-" +
                    fmt(sim_to_seconds(to), 0),
                fmt(phases[i].conditions.bandwidth.bits_per_second / 1e6, 0) +
                    " Mbps",
                fmt(phases[i].conditions.loss_probability * 100, 0)});
  }
  std::cout << tv.render() << "\n";

  sweep::SweepConfig cfg;
  cfg.name = "fig3_network";
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

  // FrameFeedback internals, as the paper's figure shows Po alongside P.
  std::cout << "\nFrameFeedback offload target Po (device pi4b_r14):\n  "
            << sparkline(
                   *runs.points[0].result.devices[0].series.find("Po_target"))
            << "\n";

  std::cout << "\nMean P (fps) per network phase (3 s settle):\n";
  std::vector<std::string> names;
  std::vector<std::vector<core::PhaseStat>> stats;
  for (const auto& point : runs.points) {
    names.push_back(point.desc.controller);
    stats.push_back(
        core::phase_means(*point.result.devices[0].series.find("P"),
                          scenario.network, point.result.duration));
  }
  core::print_phase_comparison(std::cout, names, stats);

  // Headline claims (paper §IV-D): around t=40s and beyond t=90s
  // FrameFeedback beats all-or-nothing by 50% to 3x.
  const auto& ff = runs.points[0].result.devices[0];
  const auto& aon = runs.points[3].result.devices[0];
  const double r40 =
      core::throughput_ratio(ff, aon, 33 * kSecond, 45 * kSecond);
  const double r90 = core::throughput_ratio(ff, aon, 90 * kSecond,
                                            runs.points[0].result.duration);
  std::cout << "\nHeadline ratios (FrameFeedback / all-or-nothing):\n"
            << "  around t=40s (4-unit phase): " << fmt(r40, 2) << "x\n"
            << "  beyond t=90s (loss phases):  " << fmt(r90, 2) << "x\n"
            << "  paper claims: between 1.5x and 3x in these windows\n";

  std::cout << "\nPer-run summaries:\n";
  for (const auto& point : runs.points) {
    std::cout << "\n-- " << point.desc.controller << " --\n";
    core::print_summary(std::cout, point.result);
  }

  sweep::write_series_csv(runs, "P", 0, "fig3_network.csv");
  std::cout << "\nwrote fig3_network.csv\n";
  rt::shutdown_default_pool();
  return 0;
}
