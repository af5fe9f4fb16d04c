#include "ff/core/obs_export.h"

#include <fstream>
#include <stdexcept>

namespace ff::core {

namespace {

// The result structs carry finished summaries (StreamingStats/P2Quantile),
// not raw samples, so latency figures export as gauges rather than being
// replayed through a Distribution.
void export_device(const DeviceResult& d, obs::MetricsRegistry& reg) {
  const obs::Labels labels{{"device", d.name}, {"controller", d.controller}};

  reg.counter("device.frames_captured", labels).add(
      static_cast<double>(d.totals.frames_captured));
  reg.counter("device.local_completions", labels).add(
      static_cast<double>(d.totals.local_completions));
  reg.counter("device.local_drops", labels).add(
      static_cast<double>(d.totals.local_drops));
  reg.counter("device.offload_attempts", labels).add(
      static_cast<double>(d.totals.offload_attempts));
  reg.counter("device.offload_successes", labels).add(
      static_cast<double>(d.totals.offload_successes));
  reg.counter("device.timeouts_network", labels).add(
      static_cast<double>(d.totals.timeouts_network));
  reg.counter("device.timeouts_load", labels).add(
      static_cast<double>(d.totals.timeouts_load));
  reg.counter("device.in_flight_at_end", labels).add(
      static_cast<double>(d.totals.in_flight_at_end));
  reg.counter("device.offload_late_responses", labels).add(
      static_cast<double>(d.offload.late_responses));

  reg.gauge("device.goodput_fraction", labels).set(d.goodput_fraction());
  reg.gauge("device.mean_throughput_fps", labels).set(d.mean_throughput());
  reg.gauge("device.energy_joules", labels).set(d.energy_joules);
  reg.gauge("device.joules_per_inference", labels)
      .set(d.joules_per_inference());

  if (d.offload.latency_us.count() > 0) {
    reg.gauge("device.offload_latency_us_mean", labels)
        .set(d.offload.latency_us.mean());
    reg.gauge("device.offload_latency_us_p50", labels)
        .set(d.offload.latency_p50.value());
    reg.gauge("device.offload_latency_us_p95", labels)
        .set(d.offload.latency_p95.value());
    reg.gauge("device.offload_latency_us_p99", labels)
        .set(d.offload.latency_p99.value());
  }

  reg.counter("net.messages_sent", labels).add(
      static_cast<double>(d.uplink.messages_sent));
  reg.counter("net.sends_succeeded", labels).add(
      static_cast<double>(d.uplink.sends_succeeded));
  reg.counter("net.sends_failed", labels).add(
      static_cast<double>(d.uplink.sends_failed));
  reg.counter("net.sends_cancelled", labels).add(
      static_cast<double>(d.uplink.sends_cancelled));
  reg.counter("net.fragments_sent", labels).add(
      static_cast<double>(d.uplink.fragments_sent));
  reg.counter("net.retransmissions", labels).add(
      static_cast<double>(d.uplink.retransmissions));
}

}  // namespace

void export_metrics(const ExperimentResult& result,
                    obs::MetricsRegistry& registry) {
  const obs::Labels run{{"scenario", result.scenario}};

  registry.gauge("run.duration_s", run)
      .set(static_cast<double>(result.duration) /
           static_cast<double>(kSecond));
  registry.counter("run.events_executed", run)
      .add(static_cast<double>(result.events_executed));
  registry.gauge("run.total_mean_throughput_fps", run)
      .set(result.total_mean_throughput());

  const ServerResult& server = result.servers.front();
  registry.counter("server.requests_received", run)
      .add(static_cast<double>(server.stats.requests_received));
  registry.counter("server.requests_completed", run)
      .add(static_cast<double>(server.stats.requests_completed));
  registry.counter("server.requests_rejected", run)
      .add(static_cast<double>(server.stats.requests_rejected));
  registry.counter("server.requests_admission_rejected", run)
      .add(static_cast<double>(server.stats.requests_admission_rejected));
  registry.counter("server.batches_executed", run)
      .add(static_cast<double>(server.stats.batches_executed));
  registry.gauge("server.mean_batch_size", run)
      .set(server.stats.mean_batch_size());
  registry.gauge("server.gpu_utilization", run)
      .set(server.gpu_utilization);
  if (server.stats.service_latency_us.count() > 0) {
    registry.gauge("server.service_latency_us_mean", run)
        .set(server.stats.service_latency_us.mean());
  }

  // Fleet runs: per-server and per-tenant breakdowns (the single-server
  // aggregate above stays as servers[0] for existing dashboards).
  if (result.servers.size() > 1) {
    for (const auto& s : result.servers) {
      const obs::Labels labels{{"scenario", result.scenario},
                               {"server", s.name}};
      registry.counter("fleet.requests_received", labels)
          .add(static_cast<double>(s.stats.requests_received));
      registry.counter("fleet.requests_completed", labels)
          .add(static_cast<double>(s.stats.requests_completed));
      registry.counter("fleet.requests_rejected", labels)
          .add(static_cast<double>(s.stats.requests_rejected));
      registry.counter("fleet.requests_admission_rejected", labels)
          .add(static_cast<double>(s.stats.requests_admission_rejected));
      registry.gauge("fleet.gpu_utilization", labels)
          .set(s.gpu_utilization);
    }
  }
  for (const auto& t : result.tenants) {
    const obs::Labels labels{{"scenario", result.scenario},
                             {"tenant", t.name}};
    registry.counter("tenant.frames_captured", labels)
        .add(static_cast<double>(t.totals.frames_captured));
    registry.gauge("tenant.goodput_fraction", labels)
        .set(t.goodput_fraction());
    registry.gauge("tenant.mean_throughput_fps", labels)
        .set(t.mean_throughput_fps);
    registry.gauge("tenant.slo_met", labels).set(t.slo_met() ? 1.0 : 0.0);
  }

  for (const auto& d : result.devices) export_device(d, registry);
}

void write_metrics_json(const ExperimentResult& result, std::ostream& os) {
  obs::MetricsRegistry registry;
  export_metrics(result, registry);
  registry.write_json(os);
}

void write_metrics_json_file(const ExperimentResult& result,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_metrics_json_file: cannot open " + path);
  }
  write_metrics_json(result, out);
}

}  // namespace ff::core
