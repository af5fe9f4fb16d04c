// End-to-end observability: a scenario run with a trace sink attached must
// produce events that reconcile exactly with the run's telemetry counters,
// the JSONL export of the same run must be line-parseable, and the metrics
// document must carry the run's totals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "ff/control/frame_feedback.h"
#include "ff/core/experiment.h"
#include "ff/core/obs_export.h"
#include "ff/obs/trace.h"

namespace ff::core {
namespace {

ControllerFactory frame_feedback_factory() {
  return make_controller_factory<control::FrameFeedbackController>();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

std::size_t count_type(const std::vector<std::string>& lines,
                       std::string_view type) {
  const std::string needle = "\"type\":\"" + std::string(type) + "\"";
  std::size_t n = 0;
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

/// The number in the metrics document right after the object prefix
/// {"name":<name>,"kind":<kind>,"labels":<labels>,"value":, or NaN if the
/// document has no such metric.
double metric_value(const std::string& json, std::string_view name,
                    std::string_view kind, const std::string& labels) {
  const std::string prefix = "{\"name\":\"" + std::string(name) +
                             "\",\"kind\":\"" + std::string(kind) +
                             "\",\"labels\":" + labels + ",\"value\":";
  const auto at = json.find(prefix);
  if (at == std::string::npos) return std::nan("");
  return std::stod(json.substr(at + prefix.size()));
}

TEST(ObsIntegration, TraceEventsReconcileWithTelemetry) {
  // The same seeded run, once into each sink. A run is a pure function of
  // its scenario, so both sinks see the identical stream.
  const auto traced_run = [](obs::TraceSink& sink) {
    Experiment experiment(Scenario::ideal(10 * kSecond),
                          frame_feedback_factory());
    experiment.set_trace_sink(&sink);
    return experiment.run();
  };
  obs::CollectingTraceSink collected;
  const ExperimentResult result = traced_run(collected);
  std::ostringstream jsonl_out;
  obs::JsonlTraceSink jsonl(jsonl_out);
  const ExperimentResult jsonl_result = traced_run(jsonl);
  ASSERT_EQ(jsonl_result.events_executed, result.events_executed);

  const auto& totals = result.devices[0].totals;
  ASSERT_GT(totals.frames_captured, 0u);

  // Every telemetry counter has a one-to-one span event.
  EXPECT_EQ(collected.count(obs::ev::kFrameCaptured), totals.frames_captured);
  EXPECT_EQ(collected.count(obs::ev::kFrameLocalCompleted),
            totals.local_completions);
  EXPECT_EQ(collected.count(obs::ev::kFrameLocalDropped), totals.local_drops);
  EXPECT_EQ(collected.count(obs::ev::kFrameOffloadSent),
            totals.offload_attempts);
  EXPECT_EQ(collected.count(obs::ev::kFrameOffloadSuccess),
            totals.offload_successes);
  EXPECT_EQ(collected.count(obs::ev::kFrameTimeoutNetwork),
            totals.timeouts_network);
  EXPECT_EQ(collected.count(obs::ev::kFrameTimeoutLoad), totals.timeouts_load);

  // Server-side completions pair with device-side offload accounting.
  EXPECT_EQ(collected.count(obs::ev::kServerComplete),
            result.servers.front().stats.requests_completed);
  EXPECT_EQ(collected.count(obs::ev::kServerBatchStart),
            result.servers.front().stats.batches_executed);
  // The horizon can cut one batch mid-execution: started but never done.
  const std::size_t batch_dones = collected.count(obs::ev::kServerBatchDone);
  EXPECT_LE(batch_dones, result.servers.front().stats.batches_executed);
  EXPECT_GE(batch_dones + 1, result.servers.front().stats.batches_executed);

  // One controller tick per elapsed measurement period.
  EXPECT_GT(collected.count(obs::ev::kControlTick), 0u);

  // The JSONL run wrote the identical stream, one object per line.
  EXPECT_EQ(jsonl.events_written(), collected.events().size());
  const auto lines = lines_of(jsonl_out.str());
  ASSERT_EQ(lines.size(), collected.events().size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    ASSERT_GE(line.size(), 2u);
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"type\":\"" + collected.events()[i].type + "\""),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(count_type(lines, obs::ev::kFrameCaptured),
            totals.frames_captured);
  EXPECT_EQ(count_type(lines, obs::ev::kControlTick),
            collected.count(obs::ev::kControlTick));
}

TEST(ObsIntegration, ExportedMetricsMatchRunTotals) {
  Experiment experiment(Scenario::ideal(5 * kSecond),
                        frame_feedback_factory());
  const ExperimentResult result = experiment.run();

  std::ostringstream os;
  write_metrics_json(result, os);
  const std::string json = os.str();
  const DeviceResult& d = result.devices[0];
  const std::string device_labels = "{\"device\":\"" + d.name +
                                    "\",\"controller\":\"" + d.controller +
                                    "\"}";
  const std::string run_labels = "{\"scenario\":\"" + result.scenario + "\"}";
  EXPECT_DOUBLE_EQ(
      metric_value(json, "device.frames_captured", "counter", device_labels),
      static_cast<double>(d.totals.frames_captured));
  EXPECT_DOUBLE_EQ(
      metric_value(json, "device.offload_successes", "counter", device_labels),
      static_cast<double>(d.totals.offload_successes));
  EXPECT_DOUBLE_EQ(
      metric_value(json, "server.requests_completed", "counter", run_labels),
      static_cast<double>(result.servers.front().stats.requests_completed));
  EXPECT_DOUBLE_EQ(
      metric_value(json, "run.events_executed", "counter", run_labels),
      static_cast<double>(result.events_executed));
}

/// A hand-built result: one device, one server, no series.
ExperimentResult tiny_result(std::string device_name) {
  ExperimentResult r;
  r.scenario = "tiny";
  r.duration = 2 * kSecond;
  r.events_executed = 42;
  r.servers.emplace_back().name = "server";
  DeviceResult& d = r.devices.emplace_back();
  d.name = std::move(device_name);
  d.controller = "frame-feedback";
  d.totals.frames_captured = 60;
  return r;
}

TEST(MetricsJson, WriteJsonEmitsOneDocument) {
  std::ostringstream os;
  write_metrics_json(tiny_result("pi-1"), os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1);
  EXPECT_NE(json.find("{\"name\":\"run.events_executed\",\"kind\":"
                      "\"counter\",\"labels\":{\"scenario\":\"tiny\"},"
                      "\"value\":42}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"run.duration_s\",\"kind\":\"gauge\","
                      "\"labels\":{\"scenario\":\"tiny\"},\"value\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"device\":\"pi-1\",\"controller\":"
                      "\"frame-feedback\"},\"value\":60}"),
            std::string::npos);
  // No offloads, so no latency quantiles.
  EXPECT_EQ(json.find("offload_latency"), std::string::npos);
  // Balanced braces/brackets -- cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsJson, EscapesLabelStrings) {
  std::ostringstream os;
  write_metrics_json(tiny_result("a\"b\\c"), os);
  EXPECT_NE(os.str().find("\"device\":\"a\\\"b\\\\c\""),
            std::string::npos);
}

// Paper §III: under total offload failure the controller settles at the
// standing probe Po = 0.1*Fs -- and the very first tick already lands there,
// because from Po = 0 the error e = Fs saturates the +0.1*Fs update clamp.
// The sliding-window warm-up fix matters here: rates observed during the
// first window are no longer halved, so tick-1 telemetry is unbiased.
TEST(ObsIntegration, FirstTickReachesFailureEquilibriumUnderTotalLoss) {
  Scenario scenario = Scenario::ideal(5 * kSecond);
  const net::LinkConditions dead{Bandwidth::mbps(50.0), 1.0, kMillisecond};
  scenario.network = net::NetemSchedule::constant(dead);
  scenario.uplink_template.initial = dead;
  scenario.downlink_template.initial = dead;

  Experiment experiment(std::move(scenario), frame_feedback_factory());
  obs::CollectingTraceSink collected;
  experiment.set_trace_sink(&collected);
  (void)experiment.run();

  const double fs = 30.0;
  std::vector<const obs::CollectingTraceSink::Stored*> ticks;
  for (const auto& e : collected.events()) {
    if (e.type == obs::ev::kControlTick) ticks.push_back(&e);
  }
  ASSERT_GE(ticks.size(), 2u);

  auto field = [](const obs::CollectingTraceSink::Stored& e,
                  std::string_view key) {
    for (const auto& [k, v] : e.fields) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing field " << key;
    return 0.0;
  };

  // Tick 1: T == 0 (nothing offloaded yet), so e = Fs - Po = Fs and the
  // update clamps to +0.1*Fs, putting Po exactly at the failure equilibrium.
  EXPECT_DOUBLE_EQ(field(*ticks[0], "e"), fs);
  EXPECT_DOUBLE_EQ(field(*ticks[0], "u"), 0.1 * fs);
  EXPECT_DOUBLE_EQ(field(*ticks[0], "po"), 0.1 * fs);
}

}  // namespace
}  // namespace ff::core
