#pragma once

// Per-layer instrumentation for the traced run. Everything here attaches
// through public APIs only: forwarding decorators around controllers and
// the placement policy, a counting trace sink, a per-partition event
// observer, and replays of one layer's traffic on a bare simulator.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ff/control/controller.h"
#include "ff/core/experiment.h"
#include "ff/core/fleet_topology.h"
#include "ff/core/scenario.h"
#include "ff/obs/trace.h"
#include "ff/sim/simulator.h"
#include "metrics.h"

namespace ffbench {

/// Host monotonic clock in nanoseconds.
[[nodiscard]] std::uint64_t wall_ns();

/// Calls into one decorated object and the wall time they took.
struct CallStats {
  std::uint64_t calls{0};
  std::uint64_t ns{0};
};

/// Forwards every Controller call to `inner`, timing update(). Each
/// controller serves one device, so its stats slot is single-threaded even
/// in partitioned runs.
class TimedController final : public ff::control::Controller {
 public:
  TimedController(std::unique_ptr<ff::control::Controller> inner,
                  CallStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] ff::SimDuration measure_period() const override {
    return inner_->measure_period();
  }
  [[nodiscard]] bool wants_probe() const override {
    return inner_->wants_probe();
  }
  [[nodiscard]] double update(
      const ff::control::ControllerInput& input) override;
  [[nodiscard]] std::optional<int> frame_quality() const override {
    return inner_->frame_quality();
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<ff::control::Controller> inner_;
  CallStats* stats_;
};

/// Wraps every controller `inner` makes; each gets its own slot appended
/// to `slots` (a deque, so slots never move).
[[nodiscard]] ff::core::ControllerFactory timed_controllers(
    ff::core::ControllerFactory inner, std::deque<CallStats>* slots);

/// Placement calls; on_rejection runs concurrently on partition workers.
struct PolicyStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

class TimedPlacement final : public ff::core::PlacementPolicy {
 public:
  TimedPlacement(std::unique_ptr<ff::core::PlacementPolicy> inner,
                 PolicyStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t place(
      std::size_t device_index, const ff::device::DeviceConfig& device,
      const ff::core::PlacementView& view) override;
  [[nodiscard]] std::size_t on_rejection(
      std::size_t device_index, std::size_t current_server,
      std::size_t server_count,
      std::uint64_t rejections_total) const override;

 private:
  std::unique_ptr<ff::core::PlacementPolicy> inner_;
  PolicyStats* stats_;
};

[[nodiscard]] ff::core::PlacementFactory timed_placement(
    ff::core::PlacementFactory inner, PolicyStats* stats);

/// Counts trace events per type. Event types are the static ev::
/// constants, so the keys outlive any experiment.
class CountingTraceSink final : public ff::obs::TraceSink {
 public:
  void emit(const ff::obs::TraceEvent& event) override {
    ++counts_[event.type];
    ++total_;
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] const std::map<std::string_view, std::uint64_t>& counts()
      const {
    return counts_;
  }

 private:
  std::map<std::string_view, std::uint64_t> counts_;
  std::uint64_t total_{0};
};

/// Event observer for one simulator (one partition). An event's cost is
/// the wall time from its observer call to the next one on the same
/// partition, so it includes the queue pop and one clock read. Gaps of at
/// least kIdleGapNs are taken as the partition waiting at a window barrier
/// and count neither as cost nor as busy time.
class EventProbe {
 public:
  static constexpr std::uint64_t kIdleGapNs = 50'000;

  void attach(ff::sim::Simulator& sim) {
    sim.set_event_observer(&observe, this);
  }

  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t busy_ns() const { return busy_ns_; }
  [[nodiscard]] const CostHistogram& costs() const { return costs_; }

 private:
  static void observe(void* ctx, ff::SimTime time, std::uint64_t sequence);

  std::uint64_t events_{0};
  std::uint64_t last_ns_{0};
  std::uint64_t busy_ns_{0};
  CostHistogram costs_;
};

/// Sends `messages_per_path` messages of `payload` bytes, evenly spaced
/// over the scenario's horizon, through `paths` independent
/// net::DuplexPaths on a bare simulator under the scenario's netem
/// schedule. Repeats until at least `min_fragments` fragments were sent.
/// Returns wall ns per fragment sent (retransmissions included).
[[nodiscard]] double replay_net(const ff::core::Scenario& scenario,
                                std::size_t paths,
                                std::uint64_t messages_per_path,
                                ff::Bytes payload,
                                std::uint64_t min_fragments);

/// Submits `requests` requests of `payload` bytes, evenly spaced over
/// `horizon`, to one server::EdgeServer built from `config` on a bare
/// simulator. Repeats until at least `min_requests` were submitted.
/// Returns wall ns per request.
[[nodiscard]] double replay_server(const ff::server::ServerConfig& config,
                                   ff::SimDuration horizon,
                                   std::uint64_t requests, ff::Bytes payload,
                                   std::uint64_t min_requests);

/// Spans recorded in memory by the traced run and written out at exit,
/// one JSON object per line.
class SpanLog {
 public:
  /// Opens a span now; returns its id (the index), usable as a parent.
  int begin(std::string name, std::string layer, int parent = -1);
  void end(int id);
  /// Records a finished span from timestamps taken elsewhere.
  int add(std::string name, std::string layer, int parent,
          std::uint64_t start_ns, std::uint64_t end_ns);
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    int parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  std::vector<Span> spans_;
};

}  // namespace ffbench
