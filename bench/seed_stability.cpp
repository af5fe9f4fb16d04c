// Statistical robustness of the headline result: runs the Fig. 3
// FrameFeedback-vs-all-or-nothing comparison across independent seeds
// (one sweep with 8 replicates per controller) and reports 95% confidence
// intervals on per-phase throughput and on the headline ratios, so the
// single-seed figures can be trusted.

#include <iostream>

#include "ff/core/framefeedback.h"
#include "ff/rt/thread_pool.h"
#include "ff/sweep/sweep.h"

int main() {
  using namespace ff;

  constexpr std::size_t kSeeds = 8;
  std::cout << "=== Seed stability: Fig. 3 headline across " << kSeeds
            << " seeds ===\n\n";

  core::Scenario base = core::Scenario::paper_network();
  base.seed = 100;  // replicate r runs with seed 100 + r

  sweep::SweepConfig cfg;
  cfg.name = "seed_stability";
  cfg.base = base;
  cfg.replicates = kSeeds;
  cfg.controllers = {
      {"frame-feedback",
       core::make_controller_factory<control::FrameFeedbackController>()},
      {"all-or-nothing",
       core::make_controller_factory<control::IntervalOffloadController>()},
  };
  // One probe per Table V phase: mean P of device 0 within the phase.
  const auto& phases = base.network.phases();
  for (std::size_t p = 0; p < phases.size(); ++p) {
    cfg.probes.push_back(
        {"P[" + phases[p].label + "]",
         [&base, p](const core::ExperimentResult& r) {
           return core::phase_means(*r.devices[0].series.find("P"),
                                    base.network, r.duration)
               .at(p)
               .mean;
         }});
  }

  const sweep::SweepResult runs = sweep::run(cfg);
  const auto cells = sweep::aggregate(runs);  // cell 0 = FF, cell 1 = AoN

  TextTable table({"phase", "frame-feedback P (95% CI)",
                   "all-or-nothing P (95% CI)"});
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const MeanCi& ff_ci = cells[0].metrics[p].ci;
    const MeanCi& aon_ci = cells[1].metrics[p].ci;
    table.add_row({phases[p].label,
                   fmt(ff_ci.mean, 2) + " +- " + fmt(ff_ci.half_width, 2),
                   fmt(aon_ci.mean, 2) + " +- " + fmt(aon_ci.half_width, 2)});
  }
  std::cout << table.render();

  // Headline ratios pair the FF and AoN runs of the same seed, so they
  // come from the paired points rather than the per-cell aggregates.
  std::vector<double> r40, r90;
  for (std::size_t r = 0; r < kSeeds; ++r) {
    const auto& ff = runs.at({}, 0, r).result;
    const auto& aon = runs.at({}, 1, r).result;
    r40.push_back(core::throughput_ratio(ff.devices[0], aon.devices[0],
                                         33 * kSecond, 45 * kSecond));
    r90.push_back(core::throughput_ratio(ff.devices[0], aon.devices[0],
                                         90 * kSecond, ff.duration));
  }
  const MeanCi ci40 = mean_ci(r40);
  const MeanCi ci90 = mean_ci(r90);
  std::cout << "\nHeadline ratio (FF / all-or-nothing), 95% CI over seeds:\n"
            << "  around t=40s: " << fmt(ci40.mean, 2) << " +- "
            << fmt(ci40.half_width, 2) << "  [" << fmt(ci40.lo(), 2) << ", "
            << fmt(ci40.hi(), 2) << "]\n"
            << "  beyond t=90s: " << fmt(ci90.mean, 2) << " +- "
            << fmt(ci90.half_width, 2) << "  [" << fmt(ci90.lo(), 2) << ", "
            << fmt(ci90.hi(), 2) << "]\n"
            << "\nThe paper's \"50% to 3x\" claim holds if both intervals\n"
               "stay above 1.0 with means in [1.5, 3].\n";
  rt::shutdown_default_pool();
  return 0;
}
