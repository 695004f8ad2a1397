#pragma once
/// \file location_table.hpp
/// Per-node table of other nodes' last known locations with timestamps
/// (paper Sec. 2.3.1): fed by hello exchanges and by destination-location
/// fields in message headers; always keeps the freshest observation.

#include <optional>
#include <unordered_map>

#include "geometry/point.hpp"
#include "sim/simulator.hpp"

namespace glr::ckpt {
class Encoder;  // checkpoint/codec.hpp
class Decoder;
}

namespace glr::dtn {

class LocationTable {
 public:
  struct Entry {
    geom::Point2 pos;
    sim::SimTime at = -1e18;
  };

  /// Records an observation; keeps it only if fresher than what is stored.
  /// Returns true if the table was updated.
  bool update(int id, geom::Point2 pos, sim::SimTime at) {
    auto [it, inserted] = table_.try_emplace(id, Entry{pos, at});
    if (inserted) return true;
    if (at > it->second.at) {
      it->second = {pos, at};
      return true;
    }
    return false;
  }

  [[nodiscard]] std::optional<Entry> lookup(int id) const {
    const auto it = table_.find(id);
    if (it == table_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Drops every observation older than `olderThan`. The table is a pure
  /// key-value lookup (nothing iterates it), so pruning is only observable
  /// when a later lookup would have returned one of the dropped, very-stale
  /// entries. City-scale runs call this periodically to keep an idle node's
  /// footprint bounded by its active 2-hop neighborhood instead of by every
  /// node it has ever heard of.
  void prune(sim::SimTime olderThan) {
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second.at < olderThan) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Checkpoint support: entries are written in ascending id order.
  void saveState(ckpt::Encoder& e) const;
  void restoreState(ckpt::Decoder& d);

 private:
  std::unordered_map<int, Entry> table_;
};

}  // namespace glr::dtn
