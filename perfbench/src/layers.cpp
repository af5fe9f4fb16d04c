#include "layers.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "ff/net/transport.h"
#include "ff/server/edge_server.h"

namespace ffbench {

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double TimedController::update(const ff::control::ControllerInput& input) {
  const std::uint64_t t0 = wall_ns();
  const double po = inner_->update(input);
  stats_->ns += wall_ns() - t0;
  ++stats_->calls;
  return po;
}

ff::core::ControllerFactory timed_controllers(
    ff::core::ControllerFactory inner, std::deque<CallStats>* slots) {
  return [inner = std::move(inner), slots](std::size_t device) {
    slots->emplace_back();
    return std::make_unique<TimedController>(inner(device), &slots->back());
  };
}

std::size_t TimedPlacement::place(std::size_t device_index,
                                  const ff::device::DeviceConfig& device,
                                  const ff::core::PlacementView& view) {
  const std::uint64_t t0 = wall_ns();
  const std::size_t s = inner_->place(device_index, device, view);
  stats_->ns.fetch_add(wall_ns() - t0, std::memory_order_relaxed);
  stats_->calls.fetch_add(1, std::memory_order_relaxed);
  return s;
}

std::size_t TimedPlacement::on_rejection(
    std::size_t device_index, std::size_t current_server,
    std::size_t server_count, std::uint64_t rejections_total) const {
  const std::uint64_t t0 = wall_ns();
  const std::size_t s = inner_->on_rejection(device_index, current_server,
                                             server_count, rejections_total);
  stats_->ns.fetch_add(wall_ns() - t0, std::memory_order_relaxed);
  stats_->calls.fetch_add(1, std::memory_order_relaxed);
  return s;
}

ff::core::PlacementFactory timed_placement(ff::core::PlacementFactory inner,
                                           PolicyStats* stats) {
  return [inner = std::move(inner), stats]() {
    return std::make_unique<TimedPlacement>(inner(), stats);
  };
}

void EventProbe::observe(void* ctx, ff::SimTime /*time*/,
                         std::uint64_t /*sequence*/) {
  auto& probe = *static_cast<EventProbe*>(ctx);
  const std::uint64_t now = wall_ns();
  if (probe.events_++ > 0) {
    const std::uint64_t gap = now - probe.last_ns_;
    if (gap < kIdleGapNs) {
      probe.busy_ns_ += gap;
      probe.costs_.add(gap);
    }
  }
  probe.last_ns_ = now;
}

double replay_net(const ff::core::Scenario& scenario, std::size_t paths,
                  std::uint64_t messages_per_path, ff::Bytes payload,
                  std::uint64_t min_fragments) {
  if (paths == 0 || messages_per_path == 0) return 0.0;
  const ff::SimDuration spacing = std::max<ff::SimDuration>(
      scenario.duration / static_cast<ff::SimDuration>(messages_per_path), 1);
  std::uint64_t ns = 0;
  std::uint64_t fragments = 0;
  while (fragments < min_fragments) {
    ff::sim::Simulator sim(scenario.seed);
    std::vector<std::unique_ptr<ff::net::DuplexPath>> duplex;
    for (std::size_t p = 0; p < paths; ++p) {
      ff::net::LinkConfig up = scenario.uplink_template;
      ff::net::LinkConfig down = scenario.downlink_template;
      up.name = "replay-up-" + std::to_string(p);
      down.name = "replay-down-" + std::to_string(p);
      duplex.push_back(std::make_unique<ff::net::DuplexPath>(
          sim, up, down, scenario.transport, "replay-" + std::to_string(p)));
      ff::net::DuplexPath* path = duplex.back().get();
      scenario.network.apply(sim, path->links());
      // Stagger the paths by one tick so their sends never tie.
      const auto offset = static_cast<ff::SimTime>(p);
      for (std::uint64_t m = 0; m < messages_per_path; ++m) {
        sim.schedule_at(
            static_cast<ff::SimTime>(m) * spacing + offset,
            [path, m, payload] { path->uplink().send(m, payload); });
      }
    }
    const std::uint64_t t0 = wall_ns();
    sim.run_until(scenario.duration + 30 * ff::kSecond);
    ns += wall_ns() - t0;
    for (const auto& path : duplex) {
      fragments += path->uplink().stats().fragments_sent;
    }
    if (fragments == 0) break;
  }
  return ratio(static_cast<double>(ns), static_cast<double>(fragments));
}

double replay_server(const ff::server::ServerConfig& config,
                     ff::SimDuration horizon, std::uint64_t requests,
                     ff::Bytes payload, std::uint64_t min_requests) {
  if (requests == 0) return 0.0;
  const ff::SimDuration spacing = std::max<ff::SimDuration>(
      horizon / static_cast<ff::SimDuration>(requests), 1);
  std::uint64_t ns = 0;
  std::uint64_t submitted = 0;
  while (submitted < min_requests) {
    ff::sim::Simulator sim(1);
    ff::server::EdgeServer server(sim, config);
    for (std::uint64_t i = 0; i < requests; ++i) {
      sim.schedule_at(static_cast<ff::SimTime>(i) * spacing,
                      [&server, i, payload] {
                        ff::server::InferenceRequest request;
                        request.request_id = i;
                        request.client_id = 1;
                        request.payload = payload;
                        server.submit(request,
                                      [](const ff::server::RequestOutcome&) {});
                      });
    }
    const std::uint64_t t0 = wall_ns();
    sim.run_until(horizon + 30 * ff::kSecond);
    ns += wall_ns() - t0;
    submitted += server.stats().requests_received;
  }
  return ratio(static_cast<double>(ns), static_cast<double>(submitted));
}

int SpanLog::begin(std::string name, std::string layer, int parent) {
  spans_.push_back({std::move(name), std::move(layer), parent, wall_ns(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = wall_ns();
}

int SpanLog::add(std::string name, std::string layer, int parent,
                 std::uint64_t start_ns, std::uint64_t end_ns) {
  spans_.push_back(
      {std::move(name), std::move(layer), parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open span file " + path);
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
        << "\", \"start_us\": " << (s.start_ns - origin) / 1000
        << ", \"dur_us\": " << (s.end_ns - s.start_ns) / 1000 << "}\n";
  }
}

}  // namespace ffbench
