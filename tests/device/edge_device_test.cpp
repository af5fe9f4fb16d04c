#include "ff/device/edge_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ff::device {
namespace {

/// Transport that answers every offload successfully after a fixed delay.
class EchoTransport final : public OffloadTransport {
 public:
  EchoTransport(sim::Simulator& sim, SimDuration delay)
      : sim_(sim), delay_(delay) {}

  void offload(std::uint64_t id, Bytes) override {
    ++offloads_;
    (void)sim_.schedule_in(delay_, [this, id] {
      if (on_response_) on_response_(id, OffloadReply::kCompleted);
    });
  }
  void cancel(std::uint64_t) override {}
  void set_on_response(ResponseFn fn) override { on_response_ = std::move(fn); }
  void set_on_failure(FailureFn fn) override { on_failure_ = std::move(fn); }

  int offloads_{0};

 private:
  sim::Simulator& sim_;
  SimDuration delay_;
  ResponseFn on_response_;
  FailureFn on_failure_;
};

DeviceConfig test_config() {
  DeviceConfig c;
  c.name = "test-device";
  c.profile = models::DeviceId::kPi4BR12;
  c.model = models::ModelId::kMobileNetV3Small;
  c.source_fps = 30.0;
  return c;
}

TEST(EdgeDevice, LocalOnlyProcessesAtPl) {
  sim::Simulator sim(1);
  EchoTransport transport(sim, 50 * kMillisecond);
  EdgeDevice dev(sim, transport, test_config());
  dev.set_offload_rate(0.0);
  dev.start();
  sim.run_until(30 * kSecond);
  const auto& totals = dev.telemetry().totals();
  EXPECT_NEAR(static_cast<double>(totals.local_completions) / 30.0, 13.0, 0.7);
  EXPECT_EQ(totals.offload_attempts, 0u);
  EXPECT_GT(totals.local_drops, 0u);  // Pl < Fs
}

TEST(EdgeDevice, FullOffloadSendsEveryFrame) {
  sim::Simulator sim(2);
  EchoTransport transport(sim, 50 * kMillisecond);
  EdgeDevice dev(sim, transport, test_config());
  dev.set_offload_rate(30.0);
  dev.start();
  sim.run_until(10 * kSecond);
  const auto& totals = dev.telemetry().totals();
  EXPECT_NEAR(static_cast<double>(totals.offload_attempts), 300.0, 3.0);
  EXPECT_EQ(totals.local_completions, 0u);
  EXPECT_NEAR(static_cast<double>(totals.offload_successes), 297.0, 5.0);
}

TEST(EdgeDevice, SplitRateCombinesLocalAndOffload) {
  sim::Simulator sim(3);
  EchoTransport transport(sim, 50 * kMillisecond);
  EdgeDevice dev(sim, transport, test_config());
  dev.set_offload_rate(20.0);
  dev.start();
  sim.run_until(30 * kSecond);
  const SimTime now = sim.now();
  auto& t = dev.telemetry();
  EXPECT_NEAR(t.offload_success_rate(now), 20.0, 1.5);
  EXPECT_NEAR(t.local_rate(now), 10.0,
              1.5);  // 10 routed locally, Pl=13 suffices
  EXPECT_NEAR(t.throughput(now), 30.0, 2.0);
}

TEST(EdgeDevice, FrameLimitStopsCapture) {
  sim::Simulator sim(4);
  EchoTransport transport(sim, 10 * kMillisecond);
  DeviceConfig c = test_config();
  c.frame_limit = 60;
  EdgeDevice dev(sim, transport, c);
  dev.start();
  sim.run_until(60 * kSecond);
  EXPECT_EQ(dev.frames_captured(), 60u);
  EXPECT_TRUE(dev.finished());
}

TEST(EdgeDevice, ControllerInputReflectsTelemetry) {
  sim::Simulator sim(5);
  EchoTransport transport(sim, 50 * kMillisecond);
  EdgeDevice dev(sim, transport, test_config());
  dev.set_offload_rate(15.0);
  dev.start();
  sim.run_until(10 * kSecond);
  const control::ControllerInput in = dev.controller_input();
  EXPECT_DOUBLE_EQ(in.source_fps, 30.0);
  EXPECT_DOUBLE_EQ(in.offload_rate, 15.0);
  EXPECT_NEAR(in.offload_success_rate, 15.0, 1.5);
  EXPECT_NEAR(in.local_rate, 13.0, 1.0);
  EXPECT_DOUBLE_EQ(in.timeout_rate, 0.0);
  EXPECT_FALSE(in.probe_success.has_value());
}

TEST(EdgeDevice, SlowTransportProducesTimeouts) {
  sim::Simulator sim(6);
  EchoTransport transport(sim, 400 * kMillisecond);  // beyond 250 ms deadline
  EdgeDevice dev(sim, transport, test_config());
  dev.set_offload_rate(30.0);
  dev.start();
  sim.run_until(10 * kSecond);
  const control::ControllerInput in = dev.controller_input();
  EXPECT_NEAR(in.timeout_rate, 30.0, 2.0);
  EXPECT_NEAR(in.offload_success_rate, 0.0, 0.1);
}

TEST(EdgeDevice, ProbeResultConsumedOnce) {
  sim::Simulator sim(7);
  EchoTransport transport(sim, 50 * kMillisecond);
  EdgeDevice dev(sim, transport, test_config());
  dev.start();
  dev.send_probe();
  sim.run_until(kSecond);
  const auto r1 = dev.take_probe_result();
  ASSERT_TRUE(r1.has_value());
  EXPECT_TRUE(*r1);
  EXPECT_FALSE(dev.take_probe_result().has_value());
}

TEST(EdgeDevice, CpuUtilizationHigherWhenLocal) {
  sim::Simulator sim(8);
  EchoTransport t1(sim, 50 * kMillisecond);
  EdgeDevice local_dev(sim, t1, test_config());
  local_dev.set_offload_rate(0.0);
  local_dev.start();

  EchoTransport t2(sim, 50 * kMillisecond);
  DeviceConfig c2 = test_config();
  c2.name = "offload-device";
  EdgeDevice offload_dev(sim, t2, c2);
  offload_dev.set_offload_rate(30.0);
  offload_dev.start();

  sim.run_until(20 * kSecond);
  const double u_local = local_dev.cpu_utilization();
  const double u_offload = offload_dev.cpu_utilization();
  // Paper §II-A: ~50% local vs ~22% offloaded.
  EXPECT_NEAR(u_local, 0.502, 0.05);
  EXPECT_NEAR(u_offload, 0.223, 0.05);
}

TEST(EdgeDevice, FramePayloadMatchesFrameSpec) {
  sim::Simulator sim(9);
  EchoTransport transport(sim, 0);
  DeviceConfig c = test_config();
  c.frame = {224, 224, 75};
  EdgeDevice dev(sim, transport, c);
  EXPECT_EQ(dev.frame_payload().count,
            models::frame_bytes({224, 224, 75}).count);
}

TEST(EdgeDevice, StopHaltsCapture) {
  sim::Simulator sim(10);
  EchoTransport transport(sim, 0);
  EdgeDevice dev(sim, transport, test_config());
  dev.start();
  (void)sim.schedule_at(kSecond, [&] { dev.stop(); });
  sim.run_until(10 * kSecond);
  EXPECT_NEAR(static_cast<double>(dev.frames_captured()), 30.0, 1.0);
}

TEST(EdgeDevice, TraceLifecycleEndToEnd) {
  sim::Simulator sim(3);
  EchoTransport transport(sim, 50 * kMillisecond);
  DeviceConfig dc;
  dc.source_fps = 30.0;
  EdgeDevice dev(sim, transport, dc);
  obs::CollectingTraceSink sink;
  dev.attach_trace_sink(&sink);
  dev.set_offload_rate(15.0);
  dev.start();
  sim.run_until(5 * kSecond);

  const auto count = [&](std::string_view type) {
    return static_cast<double>(sink.count(type));
  };
  EXPECT_NEAR(count(obs::ev::kFrameCaptured), 150, 2);
  EXPECT_NEAR(count(obs::ev::kFrameRoutedOffload), 75, 2);
  EXPECT_NEAR(count(obs::ev::kFrameRoutedLocal), 75, 2);
  EXPECT_GT(count(obs::ev::kFrameOffloadSuccess), 70);
  EXPECT_GT(count(obs::ev::kFrameLocalCompleted), 50);

  // A specific offloaded frame's lifecycle is ordered and complete.
  const auto& events = sink.events();
  const auto success =
      std::find_if(events.begin(), events.end(), [](const auto& e) {
        return e.type == obs::ev::kFrameOffloadSuccess;
      });
  ASSERT_NE(success, events.end());
  std::vector<const obs::CollectingTraceSink::Stored*> life;
  for (const auto& e : events) {
    if (e.has_id && e.id == success->id) life.push_back(&e);
  }
  ASSERT_GE(life.size(), 4u);
  EXPECT_EQ(life[0]->type, obs::ev::kFrameCaptured);
  EXPECT_EQ(life[1]->type, obs::ev::kFrameRoutedOffload);
  EXPECT_EQ(life[2]->type, obs::ev::kFrameOffloadSent);
  EXPECT_EQ(life[3]->type, obs::ev::kFrameOffloadSuccess);
  for (std::size_t i = 1; i < life.size(); ++i) {
    EXPECT_GE(life[i]->time, life[i - 1]->time);
  }
}

TEST(EdgeDevice, DetachStopsTracing) {
  sim::Simulator sim(4);
  EchoTransport transport(sim, kMillisecond);
  EdgeDevice dev(sim, transport, DeviceConfig{});
  obs::CollectingTraceSink sink;
  dev.attach_trace_sink(&sink);
  dev.start();
  sim.run_until(kSecond);
  const auto before = sink.events().size();
  EXPECT_GT(before, 0u);
  dev.attach_trace_sink(nullptr);
  sim.run_until(2 * kSecond);
  EXPECT_EQ(sink.events().size(), before);
}

}  // namespace
}  // namespace ff::device
