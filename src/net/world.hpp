#pragma once
/// \file world.hpp
/// Node container wiring mobility, MAC, channel and routing agents together.

#include <memory>
#include <vector>

#include "geometry/point.hpp"
#include "mac/channel.hpp"
#include "mac/mac.hpp"
#include "mobility/mobility.hpp"
#include "net/packet.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace glr::trace {
class Recorder;  // trace/recorder.hpp
}

namespace glr::net {

class AdversaryModel;  // net/faults.hpp

/// Routing-protocol interface. Agents live on a node, receive packets from
/// the MAC and send through it.
class Agent {
 public:
  virtual ~Agent() = default;
  /// Called once at simulation start (t = 0).
  virtual void start() = 0;
  /// A DATA packet arrived for this node (unicast to it, or broadcast).
  virtual void onPacket(const Packet& packet, int fromMac) = 0;
  /// Outcome of a unicast this node sent (success == MAC-level ACK seen).
  virtual void onTxStatus(const Packet& /*packet*/, int /*dstMac*/,
                          bool /*success*/) {}
  /// The node's radio duty-cycled on (`up`) or off (churn layer). Agents
  /// typically drop neighbor state on a down transition — on wake it would
  /// be stale beyond the freshness horizon anyway.
  virtual void onRadioState(bool /*up*/) {}
};

/// Owns the simulator-facing pieces of one scenario: the channel and all
/// nodes (mobility + MAC + agent).
class World {
 public:
  World(sim::Simulator& sim, const phy::PropagationModel& model,
        const phy::RadioParams& radio, mac::MacParams macParams);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Adds a node with the given mobility; returns its id (dense from 0).
  int addNode(std::unique_ptr<mobility::MobilityModel> mobility,
              sim::Rng macRng);

  /// Installs the routing agent for `id` and wires MAC callbacks to it.
  void setAgent(int id, std::unique_ptr<Agent> agent);

  /// Enables the channel's spatial receiver index (see
  /// mac::Channel::enableReceiverIndex). `maxSpeed` must upper-bound every
  /// node's speed in m/s (0 for static topologies). For mobility models
  /// whose positionAt(t) is a pure function of t (every leg/segment-based
  /// model: static, waypoint, direction, gauss_markov, manhattan, cluster)
  /// results are identical to the unindexed channel; models that integrate
  /// incrementally per query (RandomWalk) can drift by FP rounding because
  /// the index changes which times get queried. Only the per-frame receiver
  /// enumeration cost drops from O(n) to O(neighborhood).
  void enableSpatialIndex(double maxSpeed, double rebuildInterval = 0.5);

  /// Pre-sizes node storage (call before the addNode loop at large
  /// populations so per-node vectors never re-churn mid-construction).
  void reserveNodes(std::size_t n);

  /// Gives node `id` a heterogeneous radio: its transmit power is scaled so
  /// its transmissions are receivable out to `range` metres (see
  /// mac::Channel::setNodeTxRange). Callable before or after
  /// enableSpatialIndex; the receiver index widens itself.
  void setNodeRadius(int id, double range);

  /// Node `id`'s transmit range: the per-node override if set, else the
  /// shared radio's nominal range.
  [[nodiscard]] double radioRangeOf(int id) const;

  /// Churn layer: duty-cycles node `id`'s radio (see mac::Mac::setRadioUp)
  /// and notifies its agent via Agent::onRadioState.
  void setRadioUp(int id, bool up);
  [[nodiscard]] bool radioUp(int id) const;

  /// Current position of node `id`, through the epoch position cache: the
  /// first query for a node at the current sim time evaluates its mobility
  /// model (advancing it); repeat queries at the same time return the
  /// cached point. Invalidation contract: a cache entry is keyed on the
  /// exact sim time it was computed at, so it expires the instant the clock
  /// advances — nothing else can move a node, and the mobility layer's
  /// monotone-time guard (MobilityModel::requireMonotone) guarantees the
  /// clock never runs backwards under a live entry. Re-queries at one time
  /// are identity operations for every model (leg models are pure functions
  /// of t; RandomWalk's incremental integrator advances by dt == 0), so the
  /// cache is bit-identical to always asking the model — pinned by
  /// test_hotpath.cpp across all registered models and under churn.
  [[nodiscard]] geom::Point2 positionOf(int id);

  /// Adversary layer (misbehaving-node models): installed by FaultProcess
  /// when any behavior fraction is set, consulted by routing agents at the
  /// single point where a relayed copy is accepted. Null in honest runs —
  /// the observer pointer keeps world.hpp free of the faults dependency and
  /// costs one branch on the relay path.
  void setAdversary(AdversaryModel* adversary) { adversary_ = adversary; }
  [[nodiscard]] AdversaryModel* adversary() { return adversary_; }

  /// Flight recorder (trace/recorder.hpp): installed by the experiment
  /// layer *before* agents are constructed — agents and their buffers cache
  /// the pointer at construction. Null (the default) = tracing off; the
  /// observer pointer keeps world.hpp free of the trace dependency and
  /// costs one branch per instrumentation point.
  void setTraceRecorder(trace::Recorder* trace) { trace_ = trace; }
  [[nodiscard]] trace::Recorder* trace() { return trace_; }

  [[nodiscard]] mac::Mac& macOf(int id);
  [[nodiscard]] Agent& agentOf(int id);
  [[nodiscard]] std::size_t numNodes() const { return nodes_.size(); }
  [[nodiscard]] mac::Channel& channel() { return channel_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }

  /// Schedules every agent's start() at t = 0 (call before sim.run()).
  void start();

  /// Checkpoint restore support: expires every epoch position-cache entry
  /// so the first post-restore query re-evaluates each node's mobility
  /// model at the restored clock (positions are pure functions of t for
  /// every built-in model, so mobility itself carries no serialized state).
  void invalidatePositionCache();

  /// Re-creates a pending agent-start event under its original key (only
  /// possible for a t = 0 checkpoint; see event_kinds.hpp kAgentStart).
  void restoreAgentStartEvent(const sim::EventKey& key, int id);

 private:
  struct Node {
    std::unique_ptr<mobility::MobilityModel> mobility;
    std::unique_ptr<mac::Mac> mac;
    std::unique_ptr<Agent> agent;
  };

  /// Cache-aware lookup backing positionOf and the channel's batch gather.
  [[nodiscard]] geom::Point2 cachedPositionAt(std::size_t i, sim::SimTime now);

  sim::Simulator& sim_;
  mac::MacParams macParams_;
  double nominalRange_;
  mac::Channel channel_;
  AdversaryModel* adversary_ = nullptr;  // owned by FaultProcess
  trace::Recorder* trace_ = nullptr;     // owned by the experiment layer
  std::vector<Node> nodes_;
  std::vector<double> nodeRange_;  // per-node override; 0 = shared radio

  // Epoch position cache (SoA): posAt_[i] is the sim time posCache_[i] was
  // computed at; -1 marks never-computed (sim times are >= 0).
  std::vector<geom::Point2> posCache_;
  std::vector<sim::SimTime> posAt_;
};

}  // namespace glr::net
