#include "metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "ff/util/units.h"

namespace ffbench {

using ff::core::ExperimentResult;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t combine_fingerprints(
    const std::vector<std::uint64_t>& fingerprints) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t fp : fingerprints) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (fp >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string conservation_breach(const ExperimentResult& result) {
  for (const auto& d : result.devices) {
    if (!d.totals.conserved()) {
      return "device " + d.name + " breaks frame conservation";
    }
  }
  for (const auto& s : result.servers) {
    if (!s.conserved()) {
      return "server " + s.name + " breaks request conservation";
    }
  }
  return {};
}

Outcomes outcomes(const std::vector<ExperimentResult>& round) {
  Outcomes o;
  double timeouts = 0.0;
  double attempts = 0.0;
  std::vector<double> p50s;
  for (const ExperimentResult& r : round) {
    double successes = 0.0;
    for (const auto& d : r.devices) {
      successes += static_cast<double>(d.totals.successes());
      timeouts += static_cast<double>(d.totals.timeouts());
      attempts += static_cast<double>(d.totals.offload_attempts);
      if (d.offload.latency_p50.count() > 0) {
        p50s.push_back(d.offload.latency_p50.value() / 1e3);
        o.offload_p99_ms =
            std::max(o.offload_p99_ms, d.offload.latency_p99.value() / 1e3);
      }
    }
    o.goodput_fps += ratio(successes, ff::sim_to_seconds(r.duration));
  }
  o.goodput_fps = ratio(o.goodput_fps, static_cast<double>(round.size()));
  o.offload_timeout_ratio = ratio(timeouts, attempts);
  o.offload_p50_ms = median(std::move(p50s));
  return o;
}

DeviceLayer device_layer(const std::vector<ExperimentResult>& round) {
  double frames = 0.0;
  double attempts = 0.0;
  double successes = 0.0;
  double drops = 0.0;
  for (const ExperimentResult& r : round) {
    for (const auto& d : r.devices) {
      frames += static_cast<double>(d.totals.frames_captured);
      attempts += static_cast<double>(d.totals.offload_attempts);
      successes += static_cast<double>(d.totals.offload_successes);
      drops += static_cast<double>(d.totals.local_drops);
    }
  }
  return {frames, ratio(attempts, frames), ratio(successes, attempts),
          ratio(drops, frames)};
}

NetLayer net_layer(const std::vector<ExperimentResult>& round) {
  double messages = 0.0;
  double fragments = 0.0;
  double retransmits = 0.0;
  double failed = 0.0;
  for (const ExperimentResult& r : round) {
    for (const auto& d : r.devices) {
      messages += static_cast<double>(d.uplink.messages_sent);
      fragments += static_cast<double>(d.uplink.fragments_sent);
      retransmits += static_cast<double>(d.uplink.retransmissions);
      failed += static_cast<double>(d.uplink.sends_failed);
    }
  }
  return {messages, ratio(fragments - retransmits, messages),
          ratio(retransmits, fragments), ratio(failed, messages)};
}

ServerLayer server_layer(const std::vector<ExperimentResult>& round) {
  double received = 0.0;
  double batched = 0.0;
  double batches = 0.0;
  double rejected = 0.0;
  double admission = 0.0;
  double utilization = 0.0;
  double servers = 0.0;
  double service_us = 0.0;
  double completed = 0.0;
  for (const ExperimentResult& r : round) {
    for (const auto& s : r.servers) {
      received += static_cast<double>(s.stats.requests_received);
      batched += s.stats.batch_size.sum();
      batches += static_cast<double>(s.stats.batch_size.count());
      rejected += static_cast<double>(s.stats.requests_rejected);
      admission += static_cast<double>(s.stats.requests_admission_rejected);
      utilization += s.gpu_utilization;
      servers += 1.0;
      service_us += s.stats.service_latency_us.sum();
      completed += static_cast<double>(s.stats.service_latency_us.count());
    }
  }
  return {received,
          ratio(batched, batches),
          ratio(rejected, received),
          ratio(admission, received),
          ratio(utilization, servers),
          ratio(service_us, completed) / 1e3};
}

std::uint64_t rehomed_devices(const std::vector<ExperimentResult>& round) {
  std::uint64_t n = 0;
  for (const ExperimentResult& r : round) {
    for (const auto& d : r.devices) {
      if (d.final_server != d.initial_server) ++n;
    }
  }
  return n;
}

std::uint64_t device_count(const std::vector<ExperimentResult>& round) {
  std::uint64_t n = 0;
  for (const ExperimentResult& r : round) n += r.devices.size();
  return n;
}

std::size_t CostHistogram::bucket(std::uint64_t ns) {
  if (ns < 64) return static_cast<std::size_t>(ns);
  const int e = std::bit_width(ns) - 1;  // 6..63
  const std::uint64_t sub = (ns >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return 64 + static_cast<std::size_t>(e - 6) * (1u << kSubBits) +
         static_cast<std::size_t>(sub);
}

std::uint64_t CostHistogram::lower_edge(std::size_t b) {
  if (b < 64) return b;
  const std::size_t e = (b - 64) / (1u << kSubBits) + 6;
  const std::uint64_t sub = (b - 64) % (1u << kSubBits);
  return ((1ull << kSubBits) + sub) << (e - kSubBits);
}

void CostHistogram::add(std::uint64_t ns) {
  ++counts_[bucket(ns)];
  ++count_;
}

void CostHistogram::merge(const CostHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double CostHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(count_));
  const auto target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rank));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= target) return static_cast<double>(lower_edge(b));
  }
  return static_cast<double>(lower_edge(kBuckets - 1));
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace ffbench
