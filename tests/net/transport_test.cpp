#include "ff/net/transport.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ff/obs/trace.h"

namespace ff::net {
namespace {

LinkConfig clean_link(double mbps = 8.0) {
  LinkConfig c;
  c.initial.bandwidth = Bandwidth::mbps(mbps);
  c.initial.loss_probability = 0.0;
  c.initial.propagation_delay = kMillisecond;
  return c;
}

struct Rig {
  sim::Simulator sim{7};
  DuplexPath path;
  std::vector<std::pair<std::uint64_t, Bytes>> delivered;
  std::map<std::uint64_t, bool> send_results;

  explicit Rig(LinkConfig fwd = clean_link(), LinkConfig rev = clean_link(),
               TransportConfig t = {})
      : path(sim, fwd, rev, t) {
    path.uplink().set_on_message([this](std::uint64_t id, Bytes b) {
      delivered.emplace_back(id, b);
    });
    path.uplink().set_on_send_result([this](std::uint64_t id, bool ok) {
      send_results[id] = ok;
    });
  }
};

TEST(ReliableChannel, SingleFragmentDelivery) {
  Rig rig;
  rig.path.uplink().send(1, Bytes{500});
  rig.sim.run_until(kSecond);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].first, 1u);
  EXPECT_EQ(rig.delivered[0].second.count, 500);
  EXPECT_TRUE(rig.send_results.at(1));
  EXPECT_EQ(rig.path.uplink().stats().sends_succeeded, 1u);
}

TEST(ReliableChannel, MultiFragmentReassembly) {
  Rig rig;
  rig.path.uplink().send(2, Bytes{10000});  // 8 fragments at 1400 MTU
  rig.sim.run_until(kSecond);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].second.count, 10000);
  EXPECT_GE(rig.path.uplink().stats().fragments_sent, 8u);
}

TEST(ReliableChannel, PayloadSmallerThanMtuIsOneFragment) {
  TransportConfig t;
  Rig rig(clean_link(), clean_link(), t);
  rig.path.uplink().send(3, Bytes{1});
  rig.sim.run_until(kSecond);
  EXPECT_EQ(rig.path.uplink().stats().fragments_sent, 1u);
}

TEST(ReliableChannel, RetransmitsThroughLoss) {
  LinkConfig lossy = clean_link();
  lossy.initial.loss_probability = 0.3;
  Rig rig(lossy, lossy);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rig.path.uplink().send(i, Bytes{5000});
  }
  rig.sim.run_until(30 * kSecond);
  EXPECT_EQ(rig.delivered.size(), 20u);
  EXPECT_GT(rig.path.uplink().stats().retransmissions, 0u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_TRUE(rig.send_results.at(i));
}

TEST(ReliableChannel, TotalLossExhaustsRetriesAndFails) {
  LinkConfig dead = clean_link();
  dead.initial.loss_probability = 1.0;
  TransportConfig t;
  t.max_retries = 3;
  Rig rig(dead, dead, t);
  rig.path.uplink().send(9, Bytes{100});
  rig.sim.run_until(60 * kSecond);
  EXPECT_TRUE(rig.delivered.empty());
  ASSERT_TRUE(rig.send_results.count(9));
  EXPECT_FALSE(rig.send_results.at(9));
  EXPECT_EQ(rig.path.uplink().stats().sends_failed, 1u);
  EXPECT_FALSE(rig.path.uplink().in_flight(9));
}

TEST(ReliableChannel, CancelStopsRetransmission) {
  LinkConfig dead = clean_link();
  dead.initial.loss_probability = 1.0;
  Rig rig(dead, dead);
  rig.path.uplink().send(4, Bytes{100});
  EXPECT_TRUE(rig.path.uplink().in_flight(4));
  rig.path.uplink().cancel(4);
  EXPECT_FALSE(rig.path.uplink().in_flight(4));
  rig.sim.run_until(10 * kSecond);
  // Neither success nor failure is reported after cancel.
  EXPECT_EQ(rig.send_results.count(4), 0u);
  EXPECT_EQ(rig.path.uplink().stats().sends_cancelled, 1u);
}

TEST(ReliableChannel, ExponentialBackoffSpacesRetries) {
  LinkConfig dead = clean_link();
  dead.initial.loss_probability = 1.0;
  TransportConfig t;
  t.rto = 10 * kMillisecond;
  t.max_retries = 3;
  // One fragment, then three: every round resends all of a message's
  // unacked fragments, and the message fails once, after the last round.
  for (const auto& [payload, fragments] :
       {std::pair{Bytes{100}, 1u}, std::pair{Bytes{3 * 1400}, 3u}}) {
    SCOPED_TRACE(fragments);
    Rig rig(dead, dead, t);
    std::vector<bool> results;
    rig.path.uplink().set_on_send_result(
        [&](std::uint64_t, bool ok) { results.push_back(ok); });
    rig.path.uplink().send(5, payload);
    // Rounds at ~0, 10, 30, 70 ms; message fails at ~150 ms
    // (10+20+40+80 RTO chain). It must still be alive at 50 ms:
    rig.sim.run_until(50 * kMillisecond);
    EXPECT_TRUE(rig.path.uplink().in_flight(5));
    rig.sim.run_until(kSecond);
    EXPECT_FALSE(rig.path.uplink().in_flight(5));
    EXPECT_EQ(rig.path.uplink().stats().fragments_sent,
              fragments * (1u + 3u));
    EXPECT_EQ(results, std::vector<bool>{false});
    EXPECT_EQ(rig.path.uplink().stats().sends_failed, 1u);
  }
}

TEST(ReliableChannel, OneRetransmissionTimerPerMessage) {
  // A 21-fragment frame on a dead path: at most the link's serialization
  // event and the message's round timer are ever pending.
  LinkConfig dead = clean_link();
  dead.initial.loss_probability = 1.0;
  TransportConfig t;
  t.max_retries = 3;
  Rig rig(dead, dead, t);
  rig.path.uplink().send(7, Bytes{21 * 1400});
  EXPECT_EQ(rig.sim.pending_events(), 2u);
  while (rig.path.uplink().in_flight(7)) {
    ASSERT_LE(rig.sim.pending_events(), 2u) << "at t=" << rig.sim.now();
    ASSERT_TRUE(rig.sim.step());
  }
  EXPECT_FALSE(rig.send_results.at(7));
  EXPECT_EQ(rig.path.uplink().stats().fragments_sent, 21u * (1u + 3u));
}

/// Drops exactly the packets whose (0-based) position in the link's
/// serialization order is listed.
class ScriptedLoss final : public LossModel {
 public:
  explicit ScriptedLoss(std::set<std::uint64_t> drops)
      : drops_(std::move(drops)) {}
  [[nodiscard]] bool drop(Rng&) override { return drops_.count(served_++) > 0; }
  [[nodiscard]] double expected_loss() const override { return 0.0; }

 private:
  std::set<std::uint64_t> drops_;
  std::uint64_t served_{0};
};

TEST(ReliableChannel, RoundResendsOnlyUnackedFragments) {
  Rig rig;
  obs::CollectingTraceSink sink;
  rig.path.attach_trace_sink(&sink);
  rig.path.forward_link().set_loss_model(
      std::make_unique<ScriptedLoss>(std::set<std::uint64_t>{2}));
  const SimTime t0 = 20 * kMillisecond;
  rig.sim.schedule_at(t0, [&] { rig.path.uplink().send(8, Bytes{5 * 1400}); });
  rig.sim.run_until(kSecond);

  ASSERT_EQ(sink.count(obs::ev::kNetRetransmit), 1u);
  for (const auto& e : sink.events()) {
    if (e.type != obs::ev::kNetRetransmit) continue;
    EXPECT_EQ(e.time, t0 + TransportConfig{}.rto);
    EXPECT_EQ(e.id, 8u);
    EXPECT_EQ(e.fields, (std::vector<std::pair<std::string, double>>{
                            {"frag", 2.0}, {"attempt", 1.0}}));
  }
  EXPECT_EQ(rig.path.uplink().stats().retransmissions, 1u);
  EXPECT_EQ(rig.path.uplink().stats().fragments_sent, 6u);
  EXPECT_EQ(rig.path.forward_link().stats().packets_offered, 6u);
  ASSERT_EQ(rig.delivered.size(), 1u);
  EXPECT_TRUE(rig.send_results.at(8));
}

TEST(ReliableChannel, DuplicateFragmentsAreCountedNotRedelivered) {
  // Lossy ack path: data arrives, acks die, sender retransmits, receiver
  // must not deliver twice.
  LinkConfig fwd = clean_link();
  LinkConfig rev = clean_link();
  rev.initial.loss_probability = 1.0;
  TransportConfig t;
  t.max_retries = 2;
  Rig rig(fwd, rev, t);
  rig.path.uplink().send(6, Bytes{100});
  rig.sim.run_until(10 * kSecond);
  EXPECT_EQ(rig.delivered.size(), 1u);
  EXPECT_GT(rig.path.uplink().stats().duplicate_fragments, 0u);
  // Sender never saw an ack -> reported failed even though delivered.
  EXPECT_FALSE(rig.send_results.at(6));
}

TEST(ReliableChannel, ManyConcurrentMessagesAllArrive) {
  Rig rig;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    rig.path.uplink().send(static_cast<std::uint64_t>(i), Bytes{3000});
  }
  rig.sim.run_until(60 * kSecond);
  EXPECT_EQ(rig.delivered.size(), static_cast<std::size_t>(n));
}

TEST(DuplexPath, DownlinkIsIndependent) {
  Rig rig;
  std::vector<std::uint64_t> down;
  rig.path.downlink().set_on_message(
      [&](std::uint64_t id, Bytes) { down.push_back(id); });
  rig.path.uplink().send(1, Bytes{1000});
  rig.path.downlink().send(1, Bytes{300});  // same id, different channel
  rig.sim.run_until(kSecond);
  EXPECT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(down.size(), 1u);
}

TEST(DuplexPath, SetConditionsHitsBothDirections) {
  Rig rig;
  rig.path.set_conditions({Bandwidth::mbps(1), 0.2, 5 * kMillisecond});
  EXPECT_DOUBLE_EQ(rig.path.forward_link().conditions().loss_probability, 0.2);
  EXPECT_DOUBLE_EQ(rig.path.reverse_link().conditions().loss_probability, 0.2);
}

TEST(DuplexPath, LinksAccessorReturnsBoth) {
  Rig rig;
  EXPECT_EQ(rig.path.links().size(), 2u);
}

TEST(ReliableChannel, BandwidthBoundsThroughput) {
  // 0.8 Mbps = 100 B/us... actually 0.1 B/us: 30 KB message takes ~300 ms
  // of pure serialization, so at most ~3 msgs/s fit.
  Rig rig(clean_link(0.8), clean_link(0.8));
  for (std::uint64_t i = 0; i < 10; ++i) {
    rig.path.uplink().send(i, Bytes{30000});
  }
  rig.sim.run_until(2 * kSecond);
  // ~2s * 0.8 Mbps / (30 KB + overhead) ~= 6 messages, certainly < 10.
  EXPECT_LT(rig.delivered.size(), 9u);
  EXPECT_GE(rig.delivered.size(), 4u);
}

TEST(ReliableChannel, PartialsExpireAfterReassemblyTimeout) {
  // Forward link drops 60%: fragments trickle in; with max_retries=0 many
  // messages stay partial at the receiver and must be expired.
  LinkConfig fwd = clean_link();
  fwd.initial.loss_probability = 0.6;
  TransportConfig t;
  t.max_retries = 0;
  t.reassembly_timeout = kSecond;
  Rig rig(fwd, clean_link(), t);
  for (std::uint64_t i = 0; i < 50; ++i) {
    rig.path.uplink().send(i, Bytes{10000});
  }
  rig.sim.run_until(30 * kSecond);
  // Keep feeding new messages so gc runs.
  for (std::uint64_t i = 50; i < 60; ++i) {
    rig.path.uplink().send(i, Bytes{10000});
  }
  rig.sim.run_until(60 * kSecond);
  EXPECT_GT(rig.path.uplink().stats().partials_expired, 0u);
}

TEST(ReliableChannel, RejectsInvalidConfig) {
  sim::Simulator sim;
  Link data(sim, clean_link());
  Link ack(sim, clean_link());
  const auto make = [&](TransportConfig t) {
    return std::make_unique<ReliableChannel>(data, ack, 0, t);
  };
  EXPECT_NO_THROW((void)make({}));
  TransportConfig no_retries;
  no_retries.max_retries = 0;
  EXPECT_NO_THROW((void)make(no_retries));

  TransportConfig zero_rto;
  zero_rto.rto = 0;
  EXPECT_THROW((void)make(zero_rto), std::invalid_argument);
  TransportConfig negative_rto;
  negative_rto.rto = -kMillisecond;
  EXPECT_THROW((void)make(negative_rto), std::invalid_argument);
  TransportConfig negative_cap;
  negative_cap.rto_backoff_cap = -1;
  EXPECT_THROW((void)make(negative_cap), std::invalid_argument);
  TransportConfig overflowing_cap;
  overflowing_cap.rto_backoff_cap = 47;  // 100 ms << 47 > INT64_MAX us
  EXPECT_THROW((void)make(overflowing_cap), std::invalid_argument);
  TransportConfig wide_cap;
  wide_cap.rto = 1;
  wide_cap.rto_backoff_cap = 64;
  EXPECT_THROW((void)make(wide_cap), std::invalid_argument);
  TransportConfig negative_retries;
  negative_retries.max_retries = -1;
  EXPECT_THROW((void)make(negative_retries), std::invalid_argument);

  TransportConfig widest_cap;
  widest_cap.rto = 1;
  widest_cap.rto_backoff_cap = 62;  // 1 << 62 still fits
  EXPECT_NO_THROW((void)make(widest_cap));
}

TEST(ReliableChannel, LossyScheduleMatchesGolden) {
  // Pins the lossy retransmission schedule across changes to the
  // transport: the constants below were recorded once and must not move
  // unless the schedule is meant to. Loss draws and serialization use only
  // IEEE arithmetic, so they hold in every build type.
  LinkConfig lossy = clean_link();
  lossy.initial.loss_probability = 0.1;
  TransportConfig t;
  t.max_retries = 2;
  Rig rig(lossy, lossy, t);
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (v >> shift) & 0xff;
      hash *= 1099511628211ull;  // FNV-1a prime
    }
  };
  rig.path.uplink().set_on_message([&](std::uint64_t id, Bytes) {
    mix(static_cast<std::uint64_t>(rig.sim.now()));
    mix(id);
  });
  for (std::uint64_t i = 0; i < 50; ++i) {
    rig.sim.schedule_at(static_cast<SimTime>(i) * 40 * kMillisecond,
                        [&rig, i] { rig.path.uplink().send(i, Bytes{30000}); });
  }
  rig.sim.run_until(20 * kSecond);

  const ChannelStats& s = rig.path.uplink().stats();
  EXPECT_EQ(s.fragments_sent, 1347u);
  EXPECT_EQ(s.retransmissions, 247u);
  EXPECT_EQ(s.sends_failed, 4u);  // acks lost: delivered, but not acked
  EXPECT_EQ(s.messages_delivered, 50u);
  EXPECT_EQ(hash, 0x53cef99f1df3d676ull);
}

}  // namespace
}  // namespace ff::net
