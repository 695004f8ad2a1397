// Tests for the IMEP-like neighbor/location sensing service on a small
// simulated network: discovery, expiry, 2-hop knowledge and contact events.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "checkpoint/codec.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::geom::Point2;
using glr::mobility::StaticMobility;
using glr::net::NeighborService;
using glr::net::Packet;
using glr::net::World;
using glr::phy::RadioParams;
using glr::phy::TwoRayGround;
using glr::sim::Rng;
using glr::sim::Simulator;

/// Minimal agent that runs only the neighbor service.
class BeaconAgent final : public glr::net::Agent {
 public:
  BeaconAgent(World& world, int self, NeighborService::Params params)
      : service_(world.sim(), world.macOf(self), self,
                 [&world, self] { return world.positionOf(self); }, params,
                 Rng{500 + static_cast<std::uint64_t>(self)}) {}

  void start() override { service_.start(); }
  void onPacket(const Packet& p, int from) override {
    if (const auto* hello = p.payload.get<glr::net::HelloPayload>()) {
      lastHello_ = *hello;
    }
    service_.handlePacket(p, from);
  }
  /// The only event routed here is the hello timer (kHello).
  void onEvent(const glr::sim::EventDesc& /*e*/) override {
    service_.sendHello();
  }

  NeighborService& service() { return service_; }
  /// The last hello this node heard.
  const glr::net::HelloPayload& lastHello() const { return lastHello_; }

 private:
  NeighborService service_;
  glr::net::HelloPayload lastHello_;
};

/// Delivers a hello from `id` straight to `service`, as if just heard.
void injectHello(NeighborService& service, const Simulator& sim, int id,
                 std::vector<glr::net::HelloPayload::Entry> neighbors = {}) {
  Packet p;
  p.kind = glr::net::kHelloKind;
  p.payload = glr::net::Payload::create<glr::net::HelloPayload>();
  auto& hello = p.payload.mutableValue<glr::net::HelloPayload>();
  hello.id = id;
  hello.pos = {1000.0 + id, 0.0};
  hello.sentAt = sim.now();
  hello.neighbors = std::move(neighbors);
  ASSERT_TRUE(service.handlePacket(p, id));
}

/// Records in the neighbor table, fresh or stale, read from its
/// checkpoint encoding: four RNG words, then the table's entry count.
std::uint64_t tableRecords(const NeighborService& service) {
  glr::ckpt::Encoder e;
  service.saveState(e);
  glr::ckpt::Decoder d(e.data().data(), e.data().size(), "neighbor table");
  for (int word = 0; word < 4; ++word) (void)d.u64();
  return d.u64();
}

struct Harness {
  Simulator sim;
  TwoRayGround model;
  std::unique_ptr<World> world;
  std::vector<BeaconAgent*> agents;

  explicit Harness(const std::vector<Point2>& positions, double range = 250.0,
                   NeighborService::Params params = {}) {
    RadioParams radio;
    radio.nominalRange = range;
    world = std::make_unique<World>(sim, model, radio, glr::mac::MacParams{});
    for (std::size_t i = 0; i < positions.size(); ++i) {
      world->addNode(std::make_unique<StaticMobility>(positions[i]),
                     Rng{900 + i});
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      auto agent = std::make_unique<BeaconAgent>(*world, static_cast<int>(i),
                                                 params);
      agents.push_back(agent.get());
      world->setAgent(static_cast<int>(i), std::move(agent));
    }
    world->start();
  }
};

TEST(Neighbor, DiscoversNodesInRange) {
  Harness h{{{0, 0}, {100, 0}, {600, 0}}};
  h.sim.run(3.0);
  EXPECT_EQ(h.agents[0]->service().currentNeighbors(), (std::vector<int>{1}));
  EXPECT_EQ(h.agents[1]->service().currentNeighbors(), (std::vector<int>{0}));
  EXPECT_TRUE(h.agents[2]->service().currentNeighbors().empty());
  EXPECT_TRUE(h.agents[0]->service().isNeighbor(1));
  EXPECT_FALSE(h.agents[0]->service().isNeighbor(2));
}

TEST(Neighbor, PositionsReported) {
  Harness h{{{0, 0}, {100, 0}}};
  h.sim.run(3.0);
  const auto pos = h.agents[0]->service().neighborPosition(1);
  ASSERT_TRUE(pos.has_value());
  EXPECT_NEAR(pos->x, 100.0, 1e-9);
  EXPECT_FALSE(h.agents[0]->service().neighborPosition(9).has_value());
}

TEST(Neighbor, TwoHopKnowledgeViaPiggyback) {
  // 0 -- 1 -- 2 in a line; 0 and 2 are out of range of each other but learn
  // about each other through 1's hello neighbor list.
  Harness h{{{0, 0}, {200, 0}, {400, 0}}};
  h.sim.run(4.0);
  const auto knowledge = h.agents[0]->service().knowledge();
  bool saw1 = false, saw2 = false;
  for (const auto& kn : knowledge) {
    if (kn.id == 1) {
      saw1 = true;
      EXPECT_TRUE(kn.oneHop);
    }
    if (kn.id == 2) {
      saw2 = true;
      EXPECT_FALSE(kn.oneHop);
      EXPECT_NEAR(kn.pos.x, 400.0, 1e-9);
    }
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
}

TEST(Neighbor, ContactCallbackFiresOncePerContact) {
  Harness h{{{0, 0}, {100, 0}}};
  int contacts = 0;
  h.agents[0]->service().setContactCallback([&](int id) {
    EXPECT_EQ(id, 1);
    ++contacts;
  });
  h.sim.run(10.0);
  EXPECT_EQ(contacts, 1);  // steady beacons refresh, not re-contact
}

TEST(Neighbor, LocationSamplesIncludeTwoHop) {
  Harness h{{{0, 0}, {200, 0}, {400, 0}}};
  std::vector<int> sampleIds;
  h.agents[0]->service().setLocationSampleCallback(
      [&](int id, Point2, glr::sim::SimTime) { sampleIds.push_back(id); });
  h.sim.run(4.0);
  EXPECT_TRUE(std::find(sampleIds.begin(), sampleIds.end(), 1) !=
              sampleIds.end());
  EXPECT_TRUE(std::find(sampleIds.begin(), sampleIds.end(), 2) !=
              sampleIds.end());
}

TEST(Neighbor, KnowledgeReservesForFreshRecordsOnly) {
  // 300 nodes heard once, each reporting three more, then silent: once they
  // go stale, knowledge() must not size its output from them, and a beacon
  // must drop them from the table.
  Harness h{{{0, 0}, {100, 0}}};
  NeighborService& service = h.agents[0]->service();
  h.sim.run(3.0);
  const auto before = service.knowledge();
  ASSERT_EQ(before.size(), 1u);

  for (int id = 100; id < 400; ++id) {
    std::vector<glr::net::HelloPayload::Entry> reported;
    for (int k = 0; k < 3; ++k) {
      reported.push_back({1000 + 3 * id + k, {0, 0}, h.sim.now()});
    }
    injectHello(service, h.sim, id, std::move(reported));
  }
  EXPECT_EQ(service.knowledge().size(), 301u + 300u * 3u);
  h.sim.run(10.0);  // the injected records go stale; node 1 stays fresh

  const auto after = service.knowledge();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after.capacity(), before.capacity())
      << "knowledge() reserved for stale records";
  EXPECT_EQ(tableRecords(service), 1u) << "stale records outlived a beacon";
}

TEST(Neighbor, HelloAndKnowledgeAreInIdOrder) {
  Harness h{{{0, 0}, {100, 0}}};
  NeighborService& service = h.agents[0]->service();
  h.sim.run(3.0);
  for (int id = 40; id >= 10; --id) injectHello(service, h.sim, id);
  // Node 0 beacons at least once within the next 0.825 s; the injected
  // records stay fresh for 2 s.
  h.sim.run(h.sim.now() + 1.0);

  std::vector<int> helloIds;
  for (const auto& entry : h.agents[1]->lastHello().neighbors) {
    helloIds.push_back(entry.id);
  }
  std::vector<int> knowledgeIds;
  for (const auto& known : service.knowledge()) {
    knowledgeIds.push_back(known.id);
  }
  std::vector<int> expected{1};
  for (int id = 10; id <= 40; ++id) expected.push_back(id);
  EXPECT_EQ(helloIds, expected);
  EXPECT_EQ(knowledgeIds, expected);
  EXPECT_EQ(service.currentNeighbors(), expected);
}

TEST(Neighbor, StaleRecordsLeaveAtTheNextBeacon) {
  Harness h{{{0, 0}, {100, 0}}};
  NeighborService& service = h.agents[0]->service();
  int contacts = 0;
  service.setContactCallback([&](int id) {
    if (id == 50) ++contacts;
  });
  h.sim.run(3.0);
  injectHello(service, h.sim, 50);
  EXPECT_EQ(contacts, 1);
  EXPECT_EQ(tableRecords(service), 2u);

  // Stale after 2 s; node 0 beacons at least once in the 0.825 s after.
  h.sim.run(h.sim.now() + 3.0);
  EXPECT_FALSE(service.isNeighbor(50));
  EXPECT_EQ(tableRecords(service), 1u);

  // Heard again: one new contact, however often it is heard.
  injectHello(service, h.sim, 50);
  injectHello(service, h.sim, 50);
  EXPECT_EQ(contacts, 2);
  EXPECT_TRUE(service.isNeighbor(50));
  EXPECT_EQ(tableRecords(service), 2u);
}

TEST(Neighbor, HelloTrafficCounted) {
  Harness h{{{0, 0}, {100, 0}}};
  h.sim.run(5.0);
  EXPECT_GE(h.agents[0]->service().hellosSent(), 5u);
  EXPECT_GE(h.agents[0]->service().hellosReceived(), 5u);
}

TEST(Neighbor, BadParamsThrow) {
  Simulator sim;
  TwoRayGround model;
  RadioParams radio;
  World world{sim, model, radio, glr::mac::MacParams{}};
  world.addNode(std::make_unique<StaticMobility>(Point2{0, 0}), Rng{1});
  NeighborService::Params bad;
  bad.helloInterval = 0.0;
  EXPECT_THROW(NeighborService(sim, world.macOf(0), 0,
                               [] { return Point2{0, 0}; }, bad, Rng{2}),
               std::invalid_argument);
}

}  // namespace
