// Tests for the channel + simplified 802.11 DCF MAC using small static
// topologies: delivery in range, no delivery out of range, ACK/retry
// behaviour, hidden-terminal collisions, queue drop-tail and broadcast.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mac/channel.hpp"
#include "mac/mac.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/event_kinds.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::geom::Point2;
using glr::mac::Channel;
using glr::mac::Mac;
using glr::mac::MacParams;
using glr::net::kBroadcast;
using glr::net::Packet;
using glr::phy::RadioParams;
using glr::phy::solveThresholds;
using glr::phy::TwoRayGround;
using glr::sim::Rng;
using glr::sim::Simulator;

/// Static test harness: a channel with fixed node positions.
struct StaticNet {
  Simulator sim;
  TwoRayGround model;
  std::vector<Point2> positions;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Mac>> macs;
  std::vector<std::vector<std::pair<std::string, int>>> received;  // per node

  explicit StaticNet(std::vector<Point2> pos, double range = 250.0,
                     MacParams mp = {}, double csFactor = 2.2)
      : positions(std::move(pos)) {
    RadioParams radio;
    radio.nominalRange = range;
    radio.carrierSenseFactor = csFactor;
    channel = std::make_unique<Channel>(
        sim, model, solveThresholds(model, radio), radio.txPowerW,
        [this](int id) { return positions[static_cast<std::size_t>(id)]; });
    received.resize(positions.size());
    // No net::World here, so the harness routes the MAC event kinds to
    // macs[i0] itself, as the World does in a scenario.
    for (const glr::sim::EventKind kind :
         {glr::sim::kMacAttempt, glr::sim::kMacBackoffExpire,
          glr::sim::kMacTxEnd, glr::sim::kMacAckTimeout,
          glr::sim::kMacAckReply}) {
      sim.setHandler(kind, this, [](void* net, const glr::sim::EventDesc& e) {
        static_cast<StaticNet*>(net)->macs[static_cast<std::size_t>(e.i0)]
            ->onEvent(e);
      });
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      macs.push_back(std::make_unique<Mac>(sim, *channel,
                                           static_cast<int>(i), mp,
                                           Rng{100 + i}));
      auto* sink = &received[i];
      macs.back()->setReceiveCallback([sink](const Packet& p, int from) {
        sink->emplace_back(p.kind, from);
      });
    }
  }

  Packet makePacket(std::string kind, std::size_t bytes = 100) {
    Packet p;
    p.kind = std::move(kind);
    p.bytes = bytes;
    return p;
  }
};

TEST(Mac, UnicastDeliveredInRange) {
  StaticNet net{{{0, 0}, {100, 0}}};
  bool ok = false;
  net.macs[0]->setTxStatusCallback(
      [&](const Packet&, int, bool success) { ok = success; });
  EXPECT_TRUE(net.macs[0]->send(net.makePacket("x"), 1));
  net.sim.run(1.0);
  ASSERT_EQ(net.received[1].size(), 1u);
  EXPECT_EQ(net.received[1][0].first, "x");
  EXPECT_EQ(net.received[1][0].second, 0);
  EXPECT_TRUE(ok);  // MAC-level ACK seen
  EXPECT_EQ(net.macs[1]->stats().ackTx, 1u);
  EXPECT_EQ(net.macs[0]->stats().rxAck, 1u);
}

TEST(Mac, UnicastOutOfRangeFailsAfterRetries) {
  StaticNet net{{{0, 0}, {400, 0}}};  // beyond 250 m
  bool called = false, ok = true;
  net.macs[0]->setTxStatusCallback([&](const Packet&, int, bool success) {
    called = true;
    ok = success;
  });
  net.macs[0]->send(net.makePacket("x"), 1);
  net.sim.run(5.0);
  EXPECT_TRUE(net.received[1].empty());
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  // retryLimit retries happened.
  EXPECT_EQ(net.macs[0]->stats().retryDrops, 1u);
  EXPECT_EQ(net.macs[0]->stats().dataTx, 8u);  // 1 + 7 retries
}

TEST(Mac, BroadcastReachesAllInRange) {
  StaticNet net{{{0, 0}, {100, 0}, {200, 0}, {600, 0}}};
  net.macs[0]->send(net.makePacket("b"), kBroadcast);
  net.sim.run(1.0);
  EXPECT_EQ(net.received[1].size(), 1u);
  EXPECT_EQ(net.received[2].size(), 1u);
  EXPECT_TRUE(net.received[3].empty());  // out of range
}

TEST(Mac, QueueDropTail) {
  MacParams mp;
  mp.queueLimit = 3;
  StaticNet net{{{0, 0}, {100, 0}}, 250.0, mp};
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (net.macs[0]->send(net.makePacket("x", 1000), 1)) ++accepted;
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(net.macs[0]->stats().queueDrops, 7u);
  net.sim.run(5.0);
  EXPECT_EQ(net.received[1].size(), 3u);
}

TEST(Mac, BackToBackPacketsAllArrive) {
  // Names are built with snprintf: GCC 12 raises a spurious -Wrestrict on
  // the inlined `"p" + std::to_string(i)` temporary.
  const auto name = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%d", i);
    return std::string{buf};
  };
  StaticNet net{{{0, 0}, {120, 0}}};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.macs[0]->send(net.makePacket(name(i)), 1));
  }
  net.sim.run(10.0);
  ASSERT_EQ(net.received[1].size(), 20u);
  // In order.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(net.received[1][static_cast<std::size_t>(i)].first, name(i));
  }
}

TEST(Mac, BidirectionalTrafficCompletes) {
  StaticNet net{{{0, 0}, {100, 0}}};
  for (int i = 0; i < 10; ++i) {
    net.macs[0]->send(net.makePacket("a"), 1);
    net.macs[1]->send(net.makePacket("b"), 0);
  }
  net.sim.run(10.0);
  EXPECT_EQ(net.received[0].size(), 10u);
  EXPECT_EQ(net.received[1].size(), 10u);
}

TEST(Mac, HiddenTerminalCausesLossOrRetry) {
  // With carrier-sense factor 1.0, nodes 0 and 2 (1200 m apart, 650 m CS
  // range) cannot hear each other but both reach node 1: classic hidden
  // terminal. With simultaneous saturated traffic, collisions at 1 occur.
  StaticNet net{{{0, 0}, {600, 0}, {1200, 0}}, 650.0, MacParams{}, 1.0};
  for (int i = 0; i < 30; ++i) {
    net.macs[0]->send(net.makePacket("a", 1000), 1);
    net.macs[2]->send(net.makePacket("c", 1000), 1);
  }
  net.sim.run(30.0);
  EXPECT_GT(net.channel->stats().collisions, 0u);
  // Retries recover most frames.
  EXPECT_GT(net.received[1].size(), 30u);
}

TEST(Mac, CarrierSenseSerializesNeighbors) {
  // Two senders in CS range of each other transmitting to a common receiver
  // rarely collide: deliveries should be (near) complete.
  StaticNet net{{{0, 0}, {100, 0}, {50, 80}}};
  for (int i = 0; i < 25; ++i) {
    net.macs[0]->send(net.makePacket("a", 1000), 1);
    net.macs[2]->send(net.makePacket("c", 1000), 1);
  }
  net.sim.run(30.0);
  EXPECT_EQ(net.received[1].size(), 50u);
}

TEST(Mac, DuplicateSuppressionOnAckLoss) {
  // Receiver hears data but its ACK can collide; MAC must not deliver the
  // same frame twice upward. We approximate by checking the duplicate
  // counter stays consistent with deliveries across a lossy hidden-terminal
  // run: upper layer must never see the same (src,seq) twice in a row.
  StaticNet net{{{0, 0}, {600, 0}, {1200, 0}}, 650.0, MacParams{}, 1.0};
  for (int i = 0; i < 40; ++i) {
    net.macs[0]->send(net.makePacket("a", 500), 1);
    net.macs[2]->send(net.makePacket("c", 500), 1);
  }
  net.sim.run(60.0);
  // Each upper-layer delivery of "a" (resp. "c") is distinct: at most 40.
  std::size_t aCount = 0, cCount = 0;
  for (const auto& [kind, from] : net.received[1]) {
    if (kind == "a") ++aCount;
    if (kind == "c") ++cCount;
  }
  EXPECT_LE(aCount, 40u);
  EXPECT_LE(cCount, 40u);
}

TEST(Mac, AirTimeAccounted) {
  StaticNet net{{{0, 0}, {100, 0}}};
  net.macs[0]->send(net.makePacket("x", 1000), 1);
  net.sim.run(1.0);
  // 1028 bytes at 1 Mbps + 192 us preamble = ~8.4 ms, plus a 304 us ACK.
  EXPECT_NEAR(net.channel->stats().airTimeSeconds, 0.0087, 0.001);
}

TEST(Mac, StatsCountersConsistent) {
  StaticNet net{{{0, 0}, {100, 0}}};
  for (int i = 0; i < 5; ++i) net.macs[0]->send(net.makePacket("x"), 1);
  net.sim.run(5.0);
  const auto& s = net.macs[0]->stats();
  EXPECT_EQ(s.enqueued, 5u);
  EXPECT_EQ(s.dataTx, 5u);  // no retries needed in clean channel
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(net.macs[1]->stats().rxData, 5u);
}

}  // namespace
