// Ablation: what each piece of the FrameFeedback design buys.
//  (a) controller structure: P-only vs PD (paper Eq. 3) vs full PID vs AIMD
//  (b) the asymmetric update clamp: on vs off
//  (c) measurement frequency: 0.5 s / 1 s / 2 s / 4 s
// All runs use the Fig. 3 network schedule on a single device; metric is
// mean P with the oscillation of Po as the stability proxy.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

namespace {

using namespace ff;

core::Scenario scenario_for_run() {
  core::Scenario s = core::Scenario::paper_network();
  s.seed = 42;
  s.devices.resize(1);
  s.devices[0].frame_limit = 0;
  return s;
}

void run_block(const std::string& title,
               std::vector<sweep::ControllerVariant> variants) {
  sweep::SweepConfig cfg;
  cfg.name = "ablation_controller";
  cfg.base = scenario_for_run();
  cfg.controllers = std::move(variants);
  const sweep::SweepResult runs = sweep::run(cfg);

  TextTable table({"variant", "mean P (fps)", "goodput %", "timeouts",
                   "Po total variation"});
  for (const auto& point : runs.points) {
    const auto& d = point.result.devices[0];
    table.add_row({point.desc.controller, fmt(d.mean_throughput(), 2),
                   fmt(d.goodput_fraction() * 100, 1),
                   std::to_string(d.totals.timeouts()),
                   fmt(d.series.find("Po_target")->total_variation(), 0)});
  }
  std::cout << title << "\n" << table.render() << "\n";
}

}  // namespace

int main() {
  std::cout << "=== Controller ablations (Table V network schedule, one "
               "device) ===\n\n";

  {
    control::FrameFeedbackConfig p_only;
    p_only.kd = 0.0;
    control::FrameFeedbackConfig pd;  // paper defaults
    control::FrameFeedbackConfig pid = pd;
    pid.ki = 0.05;
    run_block(
        "(a) Controller structure:",
        {{"P-only (Kd=0)",
          core::make_controller_factory<control::FrameFeedbackController>(
              p_only)},
         {"PD (paper Eq. 3)",
          core::make_controller_factory<control::FrameFeedbackController>(pd)},
         {"full PID (Ki=0.05)",
          core::make_controller_factory<control::FrameFeedbackController>(pid)},
         {"AIMD",
          core::make_controller_factory<control::AimdController>()}});
  }

  {
    control::FrameFeedbackConfig clamped;  // defaults: clamped
    control::FrameFeedbackConfig unclamped = clamped;
    unclamped.clamp_updates = false;
    control::FrameFeedbackConfig symmetric = clamped;
    symmetric.update_min_fraction = -0.1;  // as slow down as up
    run_block(
        "(b) Update clamping (paper Table IV: min -0.5*Fs, max +0.1*Fs):",
        {{"asymmetric clamp (paper)",
          core::make_controller_factory<control::FrameFeedbackController>(
              clamped)},
         {"no clamp",
          core::make_controller_factory<control::FrameFeedbackController>(
              unclamped)},
         {"symmetric mild clamp (+-0.1*Fs)",
          core::make_controller_factory<control::FrameFeedbackController>(
              symmetric)}});
  }

  {
    std::vector<sweep::ControllerVariant> variants;
    for (const double period_s : {0.5, 1.0, 2.0, 4.0}) {
      control::FrameFeedbackConfig c;
      c.measure_period = seconds_to_sim(period_s);
      variants.push_back(
          {"measure every " + fmt(period_s, 1) + " s",
           core::make_controller_factory<control::FrameFeedbackController>(c)});
    }
    run_block("(c) Measurement frequency (paper Table IV: 1 s):",
              std::move(variants));
  }

  std::cout << "Reading: the PD structure with the paper's asymmetric clamp\n"
               "should give the best throughput/stability combination; the\n"
               "unclamped variant swings harder (higher total variation) and\n"
               "slow measurement reacts late to condition changes.\n";
  ff::rt::shutdown_default_pool();
  return 0;
}
