// Self-test of the benchmark's metric arithmetic: every ratio checked
// against its stated base on hand-built ExperimentResults. Exits non-zero
// on the first failed check and names it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.h"

namespace {

using ff::core::DeviceResult;
using ff::core::ExperimentResult;
using ff::core::ServerResult;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void check_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL: %s: got %.12g, want %.12g\n", what, got,
                 want);
    ++failures;
  }
}

/// Device with `local` local completions and `latency_us` constant offload
/// latency over `successes` successful offloads.
DeviceResult device(std::uint64_t local, std::uint64_t drops,
                    std::uint64_t attempts, std::uint64_t successes,
                    std::uint64_t tn, std::uint64_t tl, double latency_us) {
  DeviceResult d;
  d.name = "dev";
  d.totals.local_completions = local;
  d.totals.local_drops = drops;
  d.totals.offload_attempts = attempts;
  d.totals.offload_successes = successes;
  d.totals.timeouts_network = tn;
  d.totals.timeouts_load = tl;
  d.totals.frames_captured = local + drops + successes + tn + tl;
  d.offload.attempts = attempts;
  d.offload.successes = successes;
  for (std::uint64_t i = 0; i < successes; ++i) {
    d.offload.latency_p50.add(latency_us);
    d.offload.latency_p99.add(latency_us);
  }
  return d;
}

ServerResult server(std::uint64_t completed, std::uint64_t rejected,
                    std::uint64_t admission, double batch, double service_us,
                    double utilization) {
  ServerResult s;
  s.name = "srv";
  s.stats.requests_completed = completed;
  s.stats.requests_rejected = rejected;
  s.stats.requests_admission_rejected = admission;
  s.stats.requests_received = completed + rejected + admission;
  for (double done = 0; done < static_cast<double>(completed); done += batch) {
    s.stats.batch_size.add(batch);
  }
  for (std::uint64_t i = 0; i < completed; ++i) {
    s.stats.service_latency_us.add(service_us);
  }
  s.gpu_utilization = utilization;
  return s;
}

/// Two runs of 10 simulated seconds:
///   run A: dev0 local 40, drops 10, offload 50 (30 ok, Tn 12, Tl 8) at
///          100 ms; dev1 local 60; server 80 completed in batches of 5,
///          10 rejected, 10 admission-rejected, 2 ms service, 50% busy.
///   run B: dev0 offload 20 (20 ok) at 60 ms; server 20 completed in
///          batches of 4, 4 ms service, 25% busy.
std::vector<ExperimentResult> round_of_two() {
  ExperimentResult a;
  a.duration = 10 * ff::kSecond;
  a.devices.push_back(device(40, 10, 50, 30, 12, 8, 100'000.0));
  a.devices.push_back(device(60, 0, 0, 0, 0, 0, 0.0));
  a.devices[0].uplink.messages_sent = 50;
  a.devices[0].uplink.fragments_sent = 1300;
  a.devices[0].uplink.retransmissions = 50;
  a.devices[0].uplink.sends_failed = 5;
  a.devices[1].final_server = 1;
  a.servers.push_back(server(80, 10, 10, 5.0, 2000.0, 0.5));

  ExperimentResult b;
  b.duration = 10 * ff::kSecond;
  b.devices.push_back(device(0, 0, 20, 20, 0, 0, 60'000.0));
  b.devices[0].uplink.messages_sent = 20;
  b.devices[0].uplink.fragments_sent = 500;
  b.servers.push_back(server(20, 0, 0, 4.0, 4000.0, 0.25));
  return {a, b};
}

void test_helpers() {
  check_near(ffbench::median({3, 1, 2}), 2.0, "median odd");
  check_near(ffbench::median({4, 1, 3, 2}), 2.5, "median even");
  check_near(ffbench::median({}), 0.0, "median empty");
  check_near(ffbench::ratio(1, 0), 0.0, "ratio over empty base");
  check(ffbench::combine_fingerprints({1, 2}) !=
            ffbench::combine_fingerprints({2, 1}),
        "fingerprint combination is order-sensitive");
  check(ffbench::combine_fingerprints({1, 2}) ==
            ffbench::combine_fingerprints({1, 2}),
        "fingerprint combination is deterministic");
}

void test_outcomes() {
  const ffbench::Outcomes o = ffbench::outcomes(round_of_two());
  // Run A: (40 + 30 + 60) / 10 s = 13 fps; run B: 20 / 10 s = 2 fps.
  check_near(o.goodput_fps, (13.0 + 2.0) / 2, "goodput: mean of run sums");
  // (Tn + Tl) / attempts over both runs: 20 / 70.
  check_near(o.offload_timeout_ratio, 20.0 / 70.0,
             "timeout ratio: (Tn+Tl) / offload attempts");
  // Devices with offloads: 100 ms and 60 ms; dev1 (none) is excluded.
  check_near(o.offload_p50_ms, 80.0, "p50: median over offloading devices");
  check_near(o.offload_p99_ms, 100.0, "p99: max over offloading devices");
}

void test_layers() {
  const auto round = round_of_two();
  const ffbench::DeviceLayer d = ffbench::device_layer(round);
  check_near(d.frames, 100 + 60 + 20, "device.frames");
  check_near(d.offload_share, 70.0 / 180.0, "offload share: attempts/frames");
  check_near(d.offload_success_ratio, 50.0 / 70.0,
             "offload success: successes/attempts");
  check_near(d.local_drop_ratio, 10.0 / 180.0, "local drops / frames");

  const ffbench::NetLayer n = ffbench::net_layer(round);
  check_near(n.messages, 70, "net.messages");
  check_near(n.fragments_per_message, (1800.0 - 50.0) / 70.0,
             "fragments per message exclude retransmissions");
  check_near(n.retransmit_ratio, 50.0 / 1800.0,
             "retransmissions / fragments sent");
  check_near(n.send_failed_ratio, 5.0 / 70.0, "failed sends / messages");

  const ffbench::ServerLayer s = ffbench::server_layer(round);
  check_near(s.requests, 100 + 20, "server.requests");
  check_near(s.mean_batch_size, 100.0 / 21.0, "batched requests / batches");
  check_near(s.reject_ratio, 10.0 / 120.0, "rejects / received");
  check_near(s.admission_reject_ratio, 10.0 / 120.0,
             "admission rejects / received");
  check_near(s.gpu_utilization, 0.375, "gpu utilization: mean over servers");
  check_near(s.service_ms, (80 * 2.0 + 20 * 4.0) / 100,
             "service ms: mean over completions");

  check(ffbench::rehomed_devices(round) == 1, "one device re-homed");
  check(ffbench::device_count(round) == 3, "device count");
}

void test_conservation() {
  auto round = round_of_two();
  check(ffbench::conservation_breach(round[0]).empty(),
        "hand-built run conserves");
  round[0].devices[0].totals.frames_captured += 1;
  check(!ffbench::conservation_breach(round[0]).empty(),
        "frame leak is a breach");
  round[1].servers[0].stats.requests_received += 1;
  check(!ffbench::conservation_breach(round[1]).empty(),
        "request leak is a breach");
}

void test_histogram() {
  ffbench::CostHistogram h;
  check_near(h.quantile(0.5), 0.0, "empty histogram");
  for (int i = 0; i < 99; ++i) h.add(10);
  h.add(1000);
  check(h.count() == 100, "histogram count");
  check_near(h.quantile(0.5), 10.0, "exact below 64 ns");
  check_near(h.quantile(0.99), 10.0, "p99 of 99x10 + 1x1000");
  const double top = h.quantile(1.0);
  check(top <= 1000.0 && top > 1000.0 * (1 - 1.0 / 32),
        "bucket lower edge within 1/32 of the value");
  ffbench::CostHistogram other;
  other.add(1000);
  h.merge(other);
  check(h.count() == 101, "merge adds counts");
}

void test_json() {
  const std::string json = ffbench::result_json(
      true, 3, 0, {{"a", 1.5, "s"}, {"b.c", 2.0, "count"}});
  check(json ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, "
            "\"b.c\": {\"value\": 2, \"unit\": \"count\"}}}",
        "result line schema");
}

}  // namespace

int main() {
  test_helpers();
  test_outcomes();
  test_layers();
  test_conservation();
  test_histogram();
  test_json();
  if (failures == 0) std::puts("ffbench self-test: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
