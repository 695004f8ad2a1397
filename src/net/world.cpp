#include "net/world.hpp"

#include <stdexcept>
#include <string>

#include "sim/event_kinds.hpp"

namespace glr::net {

void Agent::onEvent(const sim::EventDesc& e) {
  throw std::runtime_error{"Agent: no handler for event kind " +
                           std::to_string(e.kind)};
}

World::World(sim::Simulator& sim, const phy::PropagationModel& model,
             const phy::RadioParams& radio, mac::MacParams macParams)
    : sim_(sim),
      macParams_(macParams),
      nominalRange_(radio.nominalRange),
      channel_(sim, model, phy::solveThresholds(model, radio),
               radio.txPowerW, [this](int id) { return positionOf(id); }) {
  macParams_.bitRateBps = radio.bitRateBps;
  // Candidate gathers pull whole receiver sets from the epoch cache in one
  // call instead of one std::function dispatch (and potential mobility
  // replay) per receiver.
  channel_.setPositionBatchFn(
      [this](const int* ids, std::size_t n, geom::Point2* out) {
        const sim::SimTime now = sim_.now();
        for (std::size_t k = 0; k < n; ++k) {
          out[k] = cachedPositionAt(static_cast<std::size_t>(ids[k]), now);
        }
      });
  // Node-scoped records name live nodes: schedule sites use their own id,
  // and restore checks every i0 against the population.
  for (const sim::EventKind kind :
       {sim::kMacAttempt, sim::kMacBackoffExpire, sim::kMacTxEnd,
        sim::kMacAckTimeout, sim::kMacAckReply}) {
    sim_.setHandler(kind, this, [](void* w, const sim::EventDesc& e) {
      static_cast<World*>(w)->nodes_[static_cast<std::size_t>(e.i0)]
          .mac->onEvent(e);
    });
  }
  sim_.setHandler(sim::kAgentStart, this,
                  [](void* w, const sim::EventDesc& e) {
                    static_cast<World*>(w)->agentOf(e.i0).start();
                  });
  routeToAgents(sim::kHello);
  routeToAgents(sim::kTrafficPaperArrival);
}

void World::routeToAgents(std::uint16_t kind) {
  sim_.setHandler(kind, this, [](void* w, const sim::EventDesc& e) {
    static_cast<World*>(w)->agentOf(e.i0).onEvent(e);
  });
}

int World::addNode(std::unique_ptr<mobility::MobilityModel> mobility,
                   sim::Rng macRng) {
  if (!mobility) throw std::invalid_argument{"World::addNode: null mobility"};
  const int id = static_cast<int>(nodes_.size());
  Node node;
  node.mobility = std::move(mobility);
  node.mac = std::make_unique<mac::Mac>(sim_, channel_, id, macParams_,
                                        macRng);
  nodes_.push_back(std::move(node));
  posCache_.emplace_back();
  posAt_.push_back(-1.0);
  return id;
}

void World::setAgent(int id, std::unique_ptr<Agent> agent) {
  if (!agent) throw std::invalid_argument{"World::setAgent: null agent"};
  Node& node = nodes_.at(static_cast<std::size_t>(id));
  node.agent = std::move(agent);
  Agent* raw = node.agent.get();
  node.mac->setReceiveCallback(
      [raw](const Packet& p, int from) { raw->onPacket(p, from); });
  node.mac->setTxStatusCallback(
      [raw](const Packet& p, int dst, bool ok) { raw->onTxStatus(p, dst, ok); });
}

void World::enableSpatialIndex(double maxSpeed, double rebuildInterval) {
  channel_.enableReceiverIndex(channel_.thresholds().rxRange, maxSpeed,
                               rebuildInterval);
}

void World::reserveNodes(std::size_t n) {
  nodes_.reserve(n);
  posCache_.reserve(n);
  posAt_.reserve(n);
}

void World::setNodeRadius(int id, double range) {
  (void)nodes_.at(static_cast<std::size_t>(id));  // bounds check
  channel_.setNodeTxRange(id, range);
  if (nodeRange_.size() < nodes_.size()) nodeRange_.resize(nodes_.size(), 0.0);
  nodeRange_[static_cast<std::size_t>(id)] = range;
}

double World::radioRangeOf(int id) const {
  const auto i = static_cast<std::size_t>(id);
  if (i >= nodes_.size()) {
    throw std::out_of_range{"World::radioRangeOf: bad node id"};
  }
  return i < nodeRange_.size() && nodeRange_[i] > 0.0 ? nodeRange_[i]
                                                      : nominalRange_;
}

void World::setRadioUp(int id, bool up) {
  Node& node = nodes_.at(static_cast<std::size_t>(id));
  if (node.mac->radioUp() == up) return;
  node.mac->setRadioUp(up);
  if (node.agent) node.agent->onRadioState(up);
}

bool World::radioUp(int id) const {
  return nodes_.at(static_cast<std::size_t>(id)).mac->radioUp();
}

geom::Point2 World::cachedPositionAt(std::size_t i, sim::SimTime now) {
  if (posAt_[i] != now) {
    posCache_[i] = nodes_[i].mobility->positionAt(now);
    posAt_[i] = now;
  }
  return posCache_[i];
}

geom::Point2 World::positionOf(int id) {
  const auto i = static_cast<std::size_t>(id);
  if (i >= nodes_.size()) {
    throw std::out_of_range{"World::positionOf: bad node id"};
  }
  return cachedPositionAt(i, sim_.now());
}

mac::Mac& World::macOf(int id) {
  return *nodes_.at(static_cast<std::size_t>(id)).mac;
}

Agent& World::agentOf(int id) {
  Node& node = nodes_.at(static_cast<std::size_t>(id));
  if (!node.agent) throw std::logic_error{"World::agentOf: no agent set"};
  return *node.agent;
}

void World::start() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].agent) {
      sim::EventDesc d;
      d.kind = sim::kAgentStart;
      d.i0 = static_cast<int>(i);
      sim_.schedule(0.0, d);
    }
  }
}

void World::invalidatePositionCache() {
  for (sim::SimTime& at : posAt_) at = -1.0;
}

}  // namespace glr::net
