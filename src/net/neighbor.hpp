#pragma once
/// \file neighbor.hpp
/// IMEP-like neighbor/location sensing via periodic hello beacons.
///
/// The paper layers GLR on top of ns-2's IMEP, whose Link/Connection Status
/// Sensing exchanges per-neighbor state at a fixed interval; the authors
/// extend its header with node locations. We model the same mechanism
/// directly: each node broadcasts a hello carrying its id, position and its
/// current 1-hop neighbor table (ids + positions + timestamps), which gives
/// receivers exactly the distance-2 knowledge the paper's LDTG construction
/// uses. Because beacons are periodic, positions known to neighbors are
/// slightly stale — the same artifact the paper notes for IMEP.
///
/// The table is a flat vector sorted by id. Each beacon drops the records
/// that have gone stale, and every reader skips those that went stale
/// since, so the hello payload, currentNeighbors() and knowledge()'s
/// one-hop entries come out in id order by construction. No output depends
/// on a container's iteration order.

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "mac/mac.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spanner/ldtg.hpp"

namespace glr::ckpt {
class Encoder;  // checkpoint/codec.hpp
class Decoder;
}

namespace glr::net {

/// In-simulator hello beacon payload.
struct HelloPayload {
  struct Entry {
    int id = -1;
    geom::Point2 pos;
    sim::SimTime heardAt = 0;  // when the sender last heard this neighbor
  };
  int id = -1;
  geom::Point2 pos;
  sim::SimTime sentAt = 0;
  std::vector<Entry> neighbors;  // sender's fresh 1-hop table
};

/// Packet kind tag used by the service.
inline constexpr const char* kHelloKind = "hello";

class NeighborService {
 public:
  struct Params {
    double helloInterval = 0.75;   // seconds between beacons
    double expiry = 2.0;           // neighbor freshness horizon (seconds)
    std::size_t baseBytes = 20;    // id + position + timestamp
    std::size_t perNeighborBytes = 12;
    bool includeNeighborList = true;  // piggyback 1-hop table (2-hop info)
  };

  /// New-contact callback: fires when a hello arrives from a node that was
  /// not a fresh neighbor (first contact or re-contact after expiry).
  using ContactCallback = std::function<void(int id)>;
  /// Location sample: every position observation carried by hellos
  /// (sender position and piggybacked 2-hop entries), with its timestamp.
  using LocationSampleCallback =
      std::function<void(int id, geom::Point2 pos, sim::SimTime at)>;

  NeighborService(sim::Simulator& sim, mac::Mac& mac, int self,
                  std::function<geom::Point2()> myPosition, Params params,
                  sim::Rng rng);

  /// Begins periodic beaconing (first beacon after a random sub-interval
  /// offset so nodes don't beacon in lockstep).
  void start();

  /// Feed packets from Agent::onPacket; returns true if it was a hello and
  /// has been consumed.
  bool handlePacket(const Packet& packet, int fromMac);

  void setContactCallback(ContactCallback cb) { onContact_ = std::move(cb); }
  void setLocationSampleCallback(LocationSampleCallback cb) {
    onLocationSample_ = std::move(cb);
  }

  /// Forgets all neighbor/location state. The churn layer calls this when
  /// the node's radio duty-cycles off: on wake, everything in the table
  /// would be stale beyond the expiry horizon, and a cold start matches
  /// what a real rebooted radio knows. Beaconing continues unchanged (the
  /// MAC drops hellos while down).
  void reset() { table_.clear(); }

  /// Fresh 1-hop neighbor ids (heard within expiry), sorted.
  [[nodiscard]] std::vector<int> currentNeighbors() const;
  [[nodiscard]] bool isNeighbor(int id) const;
  /// Last known position of a fresh 1-hop neighbor.
  [[nodiscard]] std::optional<geom::Point2> neighborPosition(int id) const;

  /// The node's <= 2-hop knowledge for LDTG construction: fresh 1-hop
  /// neighbors (as oneHop) plus the nodes they reported (as two-hop),
  /// deduplicated keeping the freshest observation. One-hop entries come
  /// first, in id order; two-hop entries follow in the order their
  /// reporters, taken in id order, listed them.
  [[nodiscard]] std::vector<spanner::KnownNode> knowledge() const;

  [[nodiscard]] std::uint64_t hellosSent() const { return hellosSent_; }
  [[nodiscard]] std::uint64_t hellosReceived() const { return hellosReceived_; }
  /// Beacons the MAC refused (queue full / radio down). A dropped hello
  /// only delays neighbor discovery by one interval, but under saturation
  /// these must be visible, not silent.
  [[nodiscard]] std::uint64_t helloSendFailures() const {
    return helloSendFailures_;
  }

  /// Checkpoint support: the table round-trips record for record, stale
  /// records included (a snapshot can fall between two beacons).
  void saveState(ckpt::Encoder& e) const;
  void restoreState(ckpt::Decoder& d);

  /// The kHello timer fired: beacons once and re-arms the timer. The
  /// owning agent calls it from its Agent::onEvent.
  void sendHello();

 private:
  struct NeighborRecord {
    geom::Point2 pos;
    sim::SimTime heard = -1e18;
    std::vector<HelloPayload::Entry> reported;
  };

  [[nodiscard]] bool fresh(const NeighborRecord& r) const;
  /// The record for `id` if it is fresh, else null.
  [[nodiscard]] const NeighborRecord* freshRecord(int id) const;

  sim::Simulator& sim_;
  mac::Mac& mac_;
  int self_;
  std::function<geom::Point2()> myPosition_;
  Params params_;
  sim::Rng rng_;

  std::vector<std::pair<int, NeighborRecord>> table_;  // ascending id
  ContactCallback onContact_;
  LocationSampleCallback onLocationSample_;
  std::uint64_t hellosSent_ = 0;
  std::uint64_t hellosReceived_ = 0;
  std::uint64_t helloSendFailures_ = 0;
};

}  // namespace glr::net
