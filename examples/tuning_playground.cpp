// Controller tuning playground (the paper's §III-B procedure): sweep Kp
// and Kd over the Fig. 2 scenario (clean network, 7% loss injected at
// t=27s) and score each gain pair for rise time, overshoot and
// oscillation.
//
// Usage: tuning_playground [seed=N] [kp=0.1,0.2,0.4] [kd=0,0.26,0.5]

#include <iostream>
#include <sstream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"
#include "ff/util/config.h"

namespace {

std::vector<double> parse_list(const std::string& csv,
                               std::vector<double> fallback) {
  if (csv.empty()) return fallback;
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      out.push_back(std::stod(item));
    } catch (const std::exception&) {
      return fallback;
    }
  }
  return out.empty() ? fallback : out;
}

}  // namespace

int main(int argc, char** argv) {
  const ff::Config cfg = ff::Config::from_args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  const auto kps = parse_list(cfg.get_string("kp", ""), {0.1, 0.2, 0.4, 0.8});
  const auto kds = parse_list(cfg.get_string("kd", ""), {0.0, 0.26, 0.5});
  const auto grid = ff::control::gain_grid(kps, kds);

  std::cout << "Sweeping " << grid.size() << " (Kp, Kd) pairs on the Fig. 2 "
            << "scenario (loss injected at t=27s), in parallel...\n\n";

  ff::core::Scenario scenario = ff::core::Scenario::paper_tuning();
  scenario.seed = seed;

  ff::sweep::SweepConfig sweep_cfg;
  sweep_cfg.name = "tuning_playground";
  sweep_cfg.base = scenario;
  for (const auto& [kp, kd] : grid) {
    ff::control::FrameFeedbackConfig c;
    c.kp = kp;
    c.kd = kd;
    sweep_cfg.controllers.push_back(
        {"Kp=" + ff::fmt(kp, 2) + ",Kd=" + ff::fmt(kd, 2),
         ff::core::make_controller_factory<
             ff::control::FrameFeedbackController>(c)});
  }
  const ff::sweep::SweepResult runs = ff::sweep::run(sweep_cfg);

  struct Entry {
    double kp, kd;
    ff::control::ResponseMetrics clean;
    ff::control::ResponseMetrics lossy;
    double score;
  };

  std::vector<Entry> entries;
  entries.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& result = runs.points[i].result;
    const auto& po = *result.devices[0].series.find("Po_target");
    Entry e;
    e.kp = grid[i].first;
    e.kd = grid[i].second;
    e.clean = ff::control::analyze_response(po, 0, 27 * ff::kSecond, 30.0);
    e.lossy = ff::control::analyze_response(po, 27 * ff::kSecond,
                                            result.duration, 30.0);
    e.score = ff::control::tuning_score(e.clean) +
              2.0 * e.lossy.steady_oscillation;
    entries.push_back(e);
  }

  ff::TextTable table({"Kp", "Kd", "rise (s)", "overshoot", "osc (clean)",
                       "osc (lossy)", "steady Po (lossy)", "score"});
  for (const auto& e : entries) {
    table.add_row({ff::fmt(e.kp, 2), ff::fmt(e.kd, 2),
                   ff::fmt(e.clean.rise_time_s, 1), ff::fmt(e.clean.overshoot,
                                                            2),
                   ff::fmt(e.clean.steady_oscillation, 2),
                   ff::fmt(e.lossy.steady_oscillation, 2),
                   ff::fmt(e.lossy.steady_mean, 1), ff::fmt(e.score, 2)});
  }
  std::cout << table.render();

  const Entry* best = &entries.front();
  for (const auto& e : entries) {
    if (e.score < best->score) best = &e;
  }
  std::cout << "\nBest pair by composite score: Kp=" << best->kp
            << " Kd=" << best->kd
            << "  (the paper ships Kp=0.2, Kd=0.26)\n";
  ff::rt::shutdown_default_pool();
  return 0;
}
