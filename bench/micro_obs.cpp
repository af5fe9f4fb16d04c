// Micro-benchmarks for the observability layer. The contract the rest of
// the codebase relies on: an emit site with no sink attached costs one
// predictable branch (BM_EmitSiteDisabled should match BM_BranchBaseline),
// and a full experiment with tracing disabled runs at the same speed as one
// built before ff_obs existed.

#include <benchmark/benchmark.h>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/obs/trace.h"

namespace {

using namespace ff;

// The instrumented-component pattern: a raw sink pointer checked per event.
struct EmitSite {
  obs::TraceSink* sink{nullptr};

  void record(SimTime t, std::uint64_t id) {
    if (sink == nullptr) return;
    sink->emit(obs::TraceEvent(t, obs::ev::kFrameCaptured, "bench")
                   .with_id(id));
  }
};

void BM_BranchBaseline(benchmark::State& state) {
  // The cost an emit site is allowed to add when disabled: testing a
  // pointer that is always null.
  obs::TraceSink* sink = nullptr;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sink);
    if (sink != nullptr) ++sum;
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_BranchBaseline);

void BM_EmitSiteDisabled(benchmark::State& state) {
  EmitSite site;
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(site.sink);
    site.record(static_cast<SimTime>(id), id);
    ++id;
  }
}
BENCHMARK(BM_EmitSiteDisabled);

void BM_EmitSiteNullSink(benchmark::State& state) {
  // Enabled path with the cheapest possible sink: event construction plus
  // one virtual call.
  obs::NullTraceSink null_sink;
  EmitSite site{&null_sink};
  std::uint64_t id = 0;
  for (auto _ : state) {
    site.record(static_cast<SimTime>(id), id);
    ++id;
  }
  benchmark::DoNotOptimize(null_sink.events_seen());
}
BENCHMARK(BM_EmitSiteNullSink);

core::Scenario bench_scenario() { return core::Scenario::ideal(10 * kSecond); }

core::ControllerFactory bench_factory() {
  return core::make_controller_factory<control::FrameFeedbackController>();
}

void BM_ExperimentTracingDisabled(benchmark::State& state) {
  for (auto _ : state) {
    core::Experiment experiment(bench_scenario(), bench_factory());
    benchmark::DoNotOptimize(experiment.run());
  }
}
BENCHMARK(BM_ExperimentTracingDisabled)->Unit(benchmark::kMillisecond);

void BM_ExperimentTracingNullSink(benchmark::State& state) {
  // Upper bound on instrumentation density cost: every event constructed
  // and virtually dispatched, then discarded.
  for (auto _ : state) {
    core::Experiment experiment(bench_scenario(), bench_factory());
    obs::NullTraceSink sink;
    experiment.set_trace_sink(&sink);
    benchmark::DoNotOptimize(experiment.run());
  }
}
BENCHMARK(BM_ExperimentTracingNullSink)->Unit(benchmark::kMillisecond);

}  // namespace
