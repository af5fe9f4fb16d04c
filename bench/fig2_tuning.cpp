// Reproduces paper Fig. 2 (+ Table IV): offloading rate Po over time for
// controllers with different (Kp, Kd) gains, with 7% packet loss injected
// at t = 27 s. Also prints the Table IV settings and per-gain stability
// metrics from the tuning analyzer.
//
// Output: one plot per gain pair plus a comparison table; CSV dump in
// fig2_tuning.csv.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

int main() {
  using namespace ff;

  std::cout << "=== Fig 2: controller tuning under loss injection ===\n\n";
  std::cout << "Table IV settings (paper defaults):\n";
  const control::FrameFeedbackConfig defaults;
  TextTable table_iv({"Variable", "Value"});
  table_iv.add_row({"Kp", fmt(defaults.kp, 2)});
  table_iv.add_row({"Ki", fmt(defaults.ki, 0)});
  table_iv.add_row({"Kd", fmt(defaults.kd, 2)});
  table_iv.add_row({"Update minimum", "-0.5 * Fs"});
  table_iv.add_row({"Update maximum", "0.1 * Fs"});
  table_iv.add_row({"Measure frequency", "1"});
  std::cout << table_iv.render() << "\n";

  // The paper's figure compares the shipped gains against more/less
  // aggressive alternatives.
  const std::vector<std::pair<double, double>> gains = {
      {0.2, 0.26},  // paper Table IV
      {0.2, 0.0},   // no derivative damping
      {0.8, 0.26},  // hot proportional gain
      {0.8, 0.0},   // hot and undamped
      {0.05, 0.26}, // sluggish
  };

  sweep::SweepConfig cfg;
  cfg.name = "fig2_tuning";
  cfg.base = core::Scenario::paper_tuning();
  cfg.base.seed = 42;
  for (const auto& [kp, kd] : gains) {
    control::FrameFeedbackConfig c;
    c.kp = kp;
    c.kd = kd;
    cfg.controllers.push_back(
        {"Kp=" + fmt(kp, 2) + ",Kd=" + fmt(kd, 2),
         core::make_controller_factory<control::FrameFeedbackController>(c)});
  }
  const sweep::SweepResult runs = sweep::run(cfg);

  std::vector<TimeSeries> traces;
  traces.reserve(runs.points.size());
  for (const auto& point : runs.points) {
    TimeSeries t(point.desc.label);
    for (const auto& p
        : point.result.devices[0].series.find("Po_target")->points()) {
      t.record(p.time, p.value);
    }
    traces.push_back(std::move(t));
  }
  std::vector<const TimeSeries*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);

  PlotOptions opts;
  opts.title = "Po (fps) over time; 7% loss injected at t=27s";
  opts.width = 110;
  opts.height = 18;
  opts.y_min = 0;
  opts.y_max = 32;
  std::cout << plot_series(ptrs, opts) << "\n";

  TextTable cmp({"Kp", "Kd", "rise (s)", "overshoot", "osc pre-loss",
                 "osc post-loss", "mean Po post-loss"});
  for (std::size_t i = 0; i < runs.points.size(); ++i) {
    const auto& result = runs.points[i].result;
    const auto& po = *result.devices[0].series.find("Po_target");
    const auto pre = control::analyze_response(po, 0, 27 * kSecond, 30.0);
    const auto post =
        control::analyze_response(po, 27 * kSecond, result.duration, 30.0);
    cmp.add_row({fmt(gains[i].first, 2), fmt(gains[i].second, 2),
                 fmt(pre.rise_time_s, 1), fmt(pre.overshoot, 2),
                 fmt(pre.steady_oscillation, 2),
                 fmt(post.steady_oscillation, 2), fmt(post.steady_mean, 1)});
  }
  std::cout << cmp.render();

  std::cout
      << "\nExpected shape (paper §III-B): the shipped (0.2, 0.26) rises\n"
               "cleanly to Fs=30, dips on loss injection and re-stabilizes;\n"
               "raising Kp without Kd oscillates; dropping Kd slows damping.\n";

  // CSV: long form, one series per gain pair.
  sweep::write_series_csv(runs, "Po_target", 0, "fig2_tuning.csv");
  std::cout << "\nwrote fig2_tuning.csv\n";
  rt::shutdown_default_pool();
  return 0;
}
