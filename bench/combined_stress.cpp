// The experiment the paper mentions but omits for space (§IV-C "Combined
// Network and Server Measurements"): the Table V network schedule AND the
// Table VI load schedule applied simultaneously. Checks the paper's claim
// that the two latency sources act "largely additively", and shows the
// controller separating the timeout sources (Tn vs Tl) over time.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

int main() {
  using namespace ff;

  std::cout << "=== Combined network + server-load stress (paper SIV-C) "
               "===\n\n";

  // The three stressor mixes differ structurally (whole preset scenarios),
  // so the axis swaps the scenario wholesale instead of mutating a field.
  sweep::SweepConfig cfg;
  cfg.name = "combined_stress";
  cfg.base = core::Scenario::paper_network();
  cfg.axes.push_back(
      {"stressors",
       {{"network-only",
         [](core::Scenario& s) {
           s = core::Scenario::paper_network();
           s.seed = 42;
         }},
        {"load-only",
         [](core::Scenario& s) {
           s = core::Scenario::paper_server_load();
           s.seed = 42;
         }},
        {"combined", [](core::Scenario& s) {
           s = core::Scenario::paper_combined();
           s.seed = 42;
         }}}});
  cfg.controllers = {
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()}};
  const sweep::SweepResult runs = sweep::run(cfg);

  std::vector<const core::ExperimentResult*> ptrs;
  for (const auto& point : runs.points) ptrs.push_back(&point.result);
  core::plot_runs_labeled(std::cout,
                          "FrameFeedback throughput P (device pi4b_r14)", ptrs,
                          {"network-only", "load-only", "combined"}, "P", 0,
                          32.0);
  std::cout << "\n";

  // Additivity check: throughput *lost* vs a clean baseline of 30 fps.
  TextTable table({"window (s)", "net loss (fps)", "load loss (fps)",
                   "sum", "combined loss (fps)"});
  struct Window {
    SimTime from, to;
  };
  const std::vector<Window> windows = {
      {10 * kSecond, 30 * kSecond},   // clean net, ramping load
      {33 * kSecond, 45 * kSecond},   // 4-unit net, 120-135 load
      {50 * kSecond, 60 * kSecond},   // 1-unit net, 150 load (both peaks)
      {63 * kSecond, 90 * kSecond},   // recovered net, declining load
      {105 * kSecond, 133 * kSecond}, // lossy 4-unit net, no load
  };
  for (const auto& w : windows) {
    auto mean_p = [&](const core::ExperimentResult& r) {
      return r.devices[0].series.find("P")->mean_between(w.from, w.to);
    };
    const double loss_net = 30.0 - mean_p(runs.points[0].result);
    const double loss_load = 30.0 - mean_p(runs.points[1].result);
    const double loss_combined = 30.0 - mean_p(runs.points[2].result);
    table.add_row({fmt(sim_to_seconds(w.from), 0) + "-" +
                       fmt(sim_to_seconds(w.to), 0),
                   fmt(loss_net, 1), fmt(loss_load, 1),
                   fmt(loss_net + loss_load, 1), fmt(loss_combined, 1)});
  }
  std::cout << "Throughput deficit vs Fs=30 (additivity check):\n"
            << table.render();

  const core::ExperimentResult& combined = runs.points[2].result;
  std::cout << "\nTimeout attribution in the combined run (device pi4b_r14):\n"
            << "  Tn (network): "
            << sparkline(*combined.devices[0].series.find("Tn")) << "\n"
            << "  Tl (load):    "
            << sparkline(*combined.devices[0].series.find("Tl")) << "\n"
            << "\ntotals: Tn=" << combined.devices[0].totals.timeouts_network
            << " Tl=" << combined.devices[0].totals.timeouts_load << "\n";

  std::cout << "\nReading: where only one stressor is active the combined\n"
               "deficit tracks that stressor; where both peak (45-60s) the\n"
               "deficit approaches -- but stays below -- the naive sum,\n"
               "because the controller only needs to dodge the binding\n"
               "constraint. This matches the paper's 'largely additive'\n"
               "characterization.\n";
  rt::shutdown_default_pool();
  return 0;
}
