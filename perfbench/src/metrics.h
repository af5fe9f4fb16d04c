#pragma once

// Metric arithmetic of the repository benchmark: pure functions from
// ExperimentResults (and a few host counters) to the numbers the benchmark
// prints. Kept apart from the drivers so the self-test can check every
// ratio against its stated base on hand-built results.

#include <cstdint>
#include <string>
#include <vector>

#include "ff/core/experiment.h"

namespace ffbench {

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// `num / den`, or 0 when the base is empty.
[[nodiscard]] double ratio(double num, double den);

/// FNV-1a over a sequence of 64-bit fingerprints, in order.
[[nodiscard]] std::uint64_t combine_fingerprints(
    const std::vector<std::uint64_t>& fingerprints);

/// The run's correctness conditions that a single result can show on its
/// own: frame conservation on every device, request conservation on every
/// server. Returns an empty string when both hold, else the first breach.
[[nodiscard]] std::string conservation_breach(
    const ff::core::ExperimentResult& result);

/// Simulated end-to-end outcomes of one set of experiments (one round).
/// All four are deterministic for a seed.
struct Outcomes {
  /// In-deadline inferences per simulated second, summed over a run's
  /// devices, averaged over runs.
  double goodput_fps{0.0};
  /// (Tn + Tl) / offload attempts, both summed over every device.
  double offload_timeout_ratio{0.0};
  /// Median over devices (with at least one successful offload) of the
  /// device's P2 p50 capture->response latency, in ms.
  double offload_p50_ms{0.0};
  /// Maximum over those devices of the device's P2 p99, in ms.
  double offload_p99_ms{0.0};
};
[[nodiscard]] Outcomes outcomes(
    const std::vector<ff::core::ExperimentResult>& round);

struct DeviceLayer {
  double frames{0.0};                 ///< frames captured
  double offload_share{0.0};          ///< offload attempts / frames
  double offload_success_ratio{0.0};  ///< successes / offload attempts
  double local_drop_ratio{0.0};       ///< local drops / frames
};
[[nodiscard]] DeviceLayer device_layer(
    const std::vector<ff::core::ExperimentResult>& round);

/// Uplink transport counters (ChannelStats, summed over server paths).
struct NetLayer {
  double messages{0.0};  ///< messages sent
  /// First-transmission fragments per message:
  /// (fragments sent - retransmissions) / messages.
  double fragments_per_message{0.0};
  double retransmit_ratio{0.0};    ///< retransmissions / fragments sent
  double send_failed_ratio{0.0};   ///< failed sends / messages
};
[[nodiscard]] NetLayer net_layer(
    const std::vector<ff::core::ExperimentResult>& round);

struct ServerLayer {
  double requests{0.0};               ///< received (device + background)
  double mean_batch_size{0.0};        ///< requests per executed batch
  double reject_ratio{0.0};           ///< batch-overflow rejects / received
  double admission_reject_ratio{0.0}; ///< admission rejects / received
  double gpu_utilization{0.0};        ///< mean over servers and runs
  double service_ms{0.0};             ///< mean ingress->completion, ms
};
[[nodiscard]] ServerLayer server_layer(
    const std::vector<ff::core::ExperimentResult>& round);

/// Devices whose final server differs from the one placement chose.
[[nodiscard]] std::uint64_t rehomed_devices(
    const std::vector<ff::core::ExperimentResult>& round);

/// Sum of devices over the round's runs.
[[nodiscard]] std::uint64_t device_count(
    const std::vector<ff::core::ExperimentResult>& round);

/// Log-linear histogram of nanosecond costs: exact below 64 ns, then 32
/// sub-buckets per power of two (about 3% resolution). Fixed size, so it
/// can sit behind a per-event observer without allocating.
class CostHistogram {
 public:
  void add(std::uint64_t ns);
  void merge(const CostHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Lower edge of the bucket holding quantile `q` in [0, 1]; 0 if empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr std::size_t kBuckets = 64 + (64 - 6) * (1u << kSubBits);
  [[nodiscard]] static std::size_t bucket(std::uint64_t ns);
  [[nodiscard]] static std::uint64_t lower_edge(std::size_t bucket);

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_{0};
};

/// One named measurement as the benchmark prints it.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace ffbench
