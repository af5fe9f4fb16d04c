#include "ff/device/offload_client.h"

#include <utility>

namespace ff::device {

OffloadClient::OffloadClient(sim::Simulator& sim, OffloadTransport& transport,
                             Telemetry& telemetry, OffloadClientConfig config)
    : sim_(sim),
      transport_(transport),
      telemetry_(telemetry),
      config_(std::move(config)) {
  transport_.set_on_response(
      [this](std::uint64_t id, OffloadReply reply) { handle_response(id,
                                                                     reply); });
  transport_.set_on_failure([this](std::uint64_t id) { handle_failure(id); });
}

void OffloadClient::offload_frame(std::uint64_t frame_id, SimTime capture_time,
                                  Bytes payload) {
  ++stats_.attempts;
  telemetry_.record_offload_attempt(sim_.now());

  // Deadline is anchored at capture, not at send: encode time already
  // consumed part of the budget.
  trace(sim_.now(), obs::ev::kFrameOffloadSent, frame_id);
  const SimTime deadline_at = capture_time + config_.deadline;
  const sim::EventId ev = sim_.schedule_at(
      deadline_at, [this, frame_id] { handle_deadline(frame_id); });
  pending_.emplace(frame_id, PendingFrame{capture_time, ev});
  transport_.offload(frame_id, payload);
}

void OffloadClient::send_probe(std::uint64_t probe_id, Bytes payload,
                               ProbeFn on_done) {
  ++stats_.probes_sent;
  const sim::EventId ev = sim_.schedule_in(config_.deadline, [this, probe_id] {
    const auto it = probes_.find(probe_id);
    if (it == probes_.end()) return;
    ProbeFn fn = std::move(it->second.on_done);
    probes_.erase(it);
    transport_.cancel(probe_id);
    ++stats_.probes_failed;
    fn(false);
  });
  probes_.emplace(probe_id, PendingProbe{std::move(on_done), ev});
  transport_.offload(probe_id, payload);
}

void OffloadClient::handle_response(std::uint64_t id, OffloadReply reply) {
  const SimTime now = sim_.now();

  if (const auto pit = probes_.find(id); pit != probes_.end()) {
    sim_.cancel(pit->second.deadline_event);
    ProbeFn fn = std::move(pit->second.on_done);
    probes_.erase(pit);
    const bool ok = !is_rejection(reply);
    ok ? ++stats_.probes_ok : ++stats_.probes_failed;
    fn(ok);
    return;
  }

  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    ++stats_.late_responses;
    return;
  }
  sim_.cancel(it->second.deadline_event);
  const SimTime capture_time = it->second.capture_time;
  pending_.erase(it);

  if (is_rejection(reply)) {
    ++stats_.timeouts_load;
    if (reply == OffloadReply::kRejectedAdmission) {
      ++stats_.admission_rejections;
      telemetry_.record_admission_rejection(now);
    } else {
      telemetry_.record_timeout_load(now);
    }
    trace(now, obs::ev::kFrameTimeoutLoad, id);
  } else {
    ++stats_.successes;
    const auto latency = static_cast<double>(now - capture_time);
    stats_.latency_us.add(latency);
    stats_.latency_p50.add(latency);
    stats_.latency_p95.add(latency);
    stats_.latency_p99.add(latency);
    telemetry_.record_offload_success(now, now - capture_time);
    trace(now, obs::ev::kFrameOffloadSuccess, id);
  }
}

void OffloadClient::handle_failure(std::uint64_t id) {
  if (const auto pit = probes_.find(id); pit != probes_.end()) {
    sim_.cancel(pit->second.deadline_event);
    ProbeFn fn = std::move(pit->second.on_done);
    probes_.erase(pit);
    ++stats_.probes_failed;
    fn(false);
    return;
  }
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  sim_.cancel(it->second.deadline_event);
  pending_.erase(it);
  ++stats_.timeouts_network;
  telemetry_.record_timeout_network(sim_.now());
  trace(sim_.now(), obs::ev::kFrameTimeoutNetwork, id);
}

void OffloadClient::handle_deadline(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  pending_.erase(it);
  transport_.cancel(id);
  ++stats_.timeouts_network;
  telemetry_.record_timeout_network(sim_.now());
  trace(sim_.now(), obs::ev::kFrameTimeoutNetwork, id);
}

void OffloadClient::trace(SimTime t, std::string_view type,
                          std::uint64_t frame_id) {
  if (sink_ == nullptr) return;
  sink_->emit(obs::TraceEvent(t, type, config_.name).with_id(frame_id));
}

}  // namespace ff::device
