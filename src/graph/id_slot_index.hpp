#pragma once
/// \file id_slot_index.hpp
/// Node id -> slot map for per-call dedup on the route-check path.
///
/// The route check gathers a few dozen node ids per call, many times per
/// simulated second, and needs each id's position in its output. A hash map
/// there frees and reallocates one node per id on every call. IdSlotIndex
/// keeps a generation stamp and a slot per id instead, dense by id (O(N)
/// bytes per instance, so callers keep one per thread, never one per node):
/// an id's entry is live while its stamp equals the current generation, so
/// clear() is one increment and a warm index never allocates. Negative ids,
/// which World never assigns, live in a short side list.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace glr::graph {

class IdSlotIndex {
 public:
  /// Forgets every entry.
  void clear() {
    if (generation_ == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 0;
    }
    ++generation_;
    negative_.clear();
  }

  /// Slot stored for `id` since the last clear(), or -1.
  [[nodiscard]] int find(int id) const {
    if (id < 0) {
      for (const auto& [known, slot] : negative_) {
        if (known == id) return slot;
      }
      return -1;
    }
    const auto i = static_cast<std::size_t>(id);
    if (i >= stamp_.size() || stamp_[i] != generation_) return -1;
    return slot_[i];
  }

  /// Stores `slot` for `id`, which must not be present.
  void insert(int id, int slot) {
    if (id < 0) {
      negative_.emplace_back(id, slot);
      return;
    }
    const auto i = static_cast<std::size_t>(id);
    if (i >= stamp_.size()) {
      stamp_.resize(i + 1, 0);
      slot_.resize(i + 1, 0);
    }
    stamp_[i] = generation_;
    slot_[i] = slot;
  }

 private:
  std::vector<std::uint32_t> stamp_;  // by id
  std::vector<int> slot_;             // by id
  std::vector<std::pair<int, int>> negative_;
  std::uint32_t generation_ = 1;  // stamps start at 0: a new index is empty
};

}  // namespace glr::graph
