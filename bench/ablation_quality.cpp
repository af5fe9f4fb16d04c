// Extension bench (paper §II-D): jointly adapting JPEG quality and
// offload rate. Compares stock FrameFeedback at fixed qualities against
// the QualityAdaptController on the Table V network walk, scoring both
// raw throughput and accuracy-weighted throughput (successful inferences
// per second x top-1 accuracy of the frames they ran on).

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

namespace {

using namespace ff;

double accuracy_weighted_p(const core::DeviceResult& d, SimTime end) {
  // Pointwise P * accuracy, averaged over the run.
  const TimeSeries* p = d.series.find("P");
  const TimeSeries* acc = d.series.find("accuracy");
  if (!p || !acc || p->size() != acc->size()) return 0.0;
  StreamingStats s;
  for (std::size_t i = 0; i < p->size(); ++i) {
    if (p->at(i).time >= end) break;
    s.add(p->at(i).value * acc->at(i).value);
  }
  return s.mean();
}

/// One sweep over `controllers` against `base`; points come back in
/// controller order (single axis-free cross product, replicate 1).
std::vector<core::ExperimentResult> run_variants(
    const core::Scenario& base,
    std::vector<sweep::ControllerVariant> controllers) {
  sweep::SweepConfig cfg;
  cfg.name = "ablation_quality";
  cfg.base = base;
  cfg.controllers = std::move(controllers);
  sweep::SweepResult runs = sweep::run(cfg);
  std::vector<core::ExperimentResult> results;
  results.reserve(runs.points.size());
  for (auto& point : runs.points) results.push_back(std::move(point.result));
  return results;
}

}  // namespace

int main() {
  std::cout << "=== Quality adaptation (SII-D extension) on the Table V "
               "walk ===\n\n";

  core::Scenario scenario = core::Scenario::paper_network();
  scenario.seed = 42;
  scenario.devices.resize(1);
  scenario.devices[0].frame_limit = 0;

  const std::vector<std::string> names = {
      "frame-feedback @ q85 (default)",
      "quality-adapt (ladder 85/70/55/40)",
      "frame-feedback @ q55 fixed",
  };

  // The q55 variant needs the scenario's frame spec changed, so it runs
  // as its own single-variant sweep on the mutated scenario copy.
  core::Scenario q55_scenario = scenario;
  q55_scenario.devices[0].frame.jpeg_quality = 55;

  std::vector<core::ExperimentResult> results = run_variants(
      scenario,
      {{names[0],
        core::make_controller_factory<control::FrameFeedbackController>()},
       {names[1],
        core::make_controller_factory<control::QualityAdaptController>()}});
  {
    std::vector<core::ExperimentResult> q55 = run_variants(
        q55_scenario,
        {{names[2],
          core::make_controller_factory<control::FrameFeedbackController>()}});
    results.push_back(std::move(q55.front()));
  }

  TextTable table({"variant", "mean P (fps)", "acc-weighted P", "goodput %",
                   "timeouts", "mean accuracy %"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& d = results[i].devices[0];
    table.add_row(
        {names[i], fmt(d.mean_throughput(), 2),
         fmt(accuracy_weighted_p(d, results[i].duration), 2),
         fmt(d.goodput_fraction() * 100, 1),
         std::to_string(d.totals.timeouts()),
         fmt(d.series.find("accuracy")->stats().mean() * 100, 1)});
  }
  std::cout << table.render();

  std::cout << "\nQuality trace of the adaptive run:\n  q:  "
            << sparkline(*results[1].devices[0].series.find("quality"))
            << "\n  Po: "
            << sparkline(*results[1].devices[0].series.find("Po_target"))
            << "\n";

  std::cout << "\nReading: the adaptive controller drops quality only while\n"
               "the network is the binding constraint (4- and 1-unit\n"
               "phases), buying offload throughput there, and restores full\n"
               "quality when bandwidth returns. It clearly beats the default\n"
               "fixed q85 on every metric; against an oracle-picked static\n"
               "q55 it trades a sliver of accuracy-weighted throughput for\n"
               "full-quality results whenever the network allows them --\n"
               "without knowing the schedule in advance.\n";
  rt::shutdown_default_pool();
  return 0;
}
