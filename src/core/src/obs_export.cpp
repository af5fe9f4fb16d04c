#include "ff/core/obs_export.h"

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "ff/obs/json.h"

namespace ff::core {

namespace {

using Label = std::pair<std::string_view, std::string_view>;

/// Appends metric objects to the document's array. Every metric written
/// carries the labels last passed to `labels()`.
class MetricsWriter {
 public:
  explicit MetricsWriter(std::ostream& os) : os_(os) {
    os_ << "{\"metrics\":[";
  }

  void labels(std::initializer_list<Label> labels) { labels_ = labels; }

  void counter(std::string_view name, std::uint64_t value) {
    write(name, "counter", static_cast<double>(value));
  }
  void gauge(std::string_view name, double value) {
    write(name, "gauge", value);
  }

  void finish() { os_ << "]}\n"; }

 private:
  void write(std::string_view name, std::string_view kind, double value) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << "{\"name\":\"";
    obs::write_json_escaped(os_, name);
    os_ << "\",\"kind\":\"" << kind << "\",\"labels\":{";
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (i > 0) os_ << ',';
      os_ << '"';
      obs::write_json_escaped(os_, labels_[i].first);
      os_ << "\":\"";
      obs::write_json_escaped(os_, labels_[i].second);
      os_ << '"';
    }
    os_ << "},\"value\":";
    obs::write_json_number(os_, value);
    os_ << '}';
  }

  std::ostream& os_;
  std::vector<Label> labels_;
  bool first_{true};
};

// The result structs carry finished summaries (StreamingStats/P2Quantile),
// not raw samples, so latency figures export as gauges.
void write_device(const DeviceResult& d, MetricsWriter& w) {
  w.labels({{"device", d.name}, {"controller", d.controller}});

  w.counter("device.frames_captured", d.totals.frames_captured);
  w.counter("device.local_completions", d.totals.local_completions);
  w.counter("device.local_drops", d.totals.local_drops);
  w.counter("device.offload_attempts", d.totals.offload_attempts);
  w.counter("device.offload_successes", d.totals.offload_successes);
  w.counter("device.timeouts_network", d.totals.timeouts_network);
  w.counter("device.timeouts_load", d.totals.timeouts_load);
  w.counter("device.in_flight_at_end", d.totals.in_flight_at_end);
  w.counter("device.offload_late_responses", d.offload.late_responses);

  w.gauge("device.goodput_fraction", d.goodput_fraction());
  w.gauge("device.mean_throughput_fps", d.mean_throughput());
  w.gauge("device.energy_joules", d.energy_joules);
  w.gauge("device.joules_per_inference", d.joules_per_inference());

  if (d.offload.latency_us.count() > 0) {
    w.gauge("device.offload_latency_us_mean", d.offload.latency_us.mean());
    w.gauge("device.offload_latency_us_p50", d.offload.latency_p50.value());
    w.gauge("device.offload_latency_us_p95", d.offload.latency_p95.value());
    w.gauge("device.offload_latency_us_p99", d.offload.latency_p99.value());
  }

  w.counter("net.messages_sent", d.uplink.messages_sent);
  w.counter("net.sends_succeeded", d.uplink.sends_succeeded);
  w.counter("net.sends_failed", d.uplink.sends_failed);
  w.counter("net.sends_cancelled", d.uplink.sends_cancelled);
  w.counter("net.fragments_sent", d.uplink.fragments_sent);
  w.counter("net.retransmissions", d.uplink.retransmissions);
}

}  // namespace

void write_metrics_json(const ExperimentResult& result, std::ostream& os) {
  MetricsWriter w(os);
  w.labels({{"scenario", result.scenario}});

  w.gauge("run.duration_s", static_cast<double>(result.duration) /
                                static_cast<double>(kSecond));
  w.counter("run.events_executed", result.events_executed);
  w.gauge("run.total_mean_throughput_fps", result.total_mean_throughput());

  const ServerResult& server = result.servers.front();
  w.counter("server.requests_received", server.stats.requests_received);
  w.counter("server.requests_completed", server.stats.requests_completed);
  w.counter("server.requests_rejected", server.stats.requests_rejected);
  w.counter("server.requests_admission_rejected",
            server.stats.requests_admission_rejected);
  w.counter("server.batches_executed", server.stats.batches_executed);
  w.gauge("server.mean_batch_size", server.stats.mean_batch_size());
  w.gauge("server.gpu_utilization", server.gpu_utilization);
  if (server.stats.service_latency_us.count() > 0) {
    w.gauge("server.service_latency_us_mean",
            server.stats.service_latency_us.mean());
  }

  // Fleet runs: per-server and per-tenant breakdowns (the single-server
  // aggregate above stays as servers[0] for existing dashboards).
  if (result.servers.size() > 1) {
    for (const auto& s : result.servers) {
      w.labels({{"scenario", result.scenario}, {"server", s.name}});
      w.counter("fleet.requests_received", s.stats.requests_received);
      w.counter("fleet.requests_completed", s.stats.requests_completed);
      w.counter("fleet.requests_rejected", s.stats.requests_rejected);
      w.counter("fleet.requests_admission_rejected",
                s.stats.requests_admission_rejected);
      w.gauge("fleet.gpu_utilization", s.gpu_utilization);
    }
  }
  for (const auto& t : result.tenants) {
    w.labels({{"scenario", result.scenario}, {"tenant", t.name}});
    w.counter("tenant.frames_captured", t.totals.frames_captured);
    w.gauge("tenant.goodput_fraction", t.goodput_fraction());
    w.gauge("tenant.mean_throughput_fps", t.mean_throughput_fps);
    w.gauge("tenant.slo_met", t.slo_met() ? 1.0 : 0.0);
  }

  for (const auto& d : result.devices) write_device(d, w);
  w.finish();
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
