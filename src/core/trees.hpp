#pragma once
/// \file trees.hpp
/// Source-to-destination tree extraction from the LDTG spanner (paper
/// Sec. 2.3, Figure 2).
///
/// At each node, a message copy flagged Max/Min/Mid is forwarded to the
/// spanner neighbor making maximum / minimum / median *progress* toward the
/// destination, where progress means strictly reducing Euclidean distance to
/// the destination ("maximum progress (e.g., closest) to the destination").
/// Following one rule from every node induces one tree per rule; copies on
/// different trees take disjoint-ish routes, which is what buys delay
/// tolerance in sparse networks. More than three copies use additional
/// MidDSTD variants (the mid rule "has more options").

#include <optional>
#include <vector>

#include "dtn/message.hpp"
#include "geometry/point.hpp"
#include "graph/graph.hpp"

namespace glr::core {

/// A neighbor that makes progress toward the destination.
struct ProgressNeighbor {
  int id = -1;
  geom::Point2 pos;
  double distToDest = 0.0;
};

/// Fills `out` with the neighbors of a node at `selfPos` that are strictly
/// closer to `destPos` than the node itself, sorted by ascending
/// distance-to-destination (i.e. descending progress). `out` is the
/// caller's buffer, cleared first, so a reused one keeps its capacity.
void progressNeighbors(
    geom::Point2 selfPos, geom::Point2 destPos,
    const std::vector<std::pair<int, geom::Point2>>& neighbors,
    std::vector<ProgressNeighbor>& out);

/// Picks the next hop for a tree kind from sorted progress candidates.
/// kMax -> most progress (front), kMin -> least progress (back),
/// kMid (+ variants) -> median-area elements; kNone behaves like kMax
/// (plain greedy). Returns nullopt when `candidates` is empty.
[[nodiscard]] std::optional<ProgressNeighbor> selectNextHop(
    dtn::TreeFlag flag, const std::vector<ProgressNeighbor>& candidates);

/// Tree flags for `copies` message copies: {Max}, {Max,Min}, {Max,Min,Mid},
/// then additional Mid variants (paper: "multiple MidDSTD trees are
/// extracted"). copies is clamped to [1, kMaxCopies].
[[nodiscard]] std::vector<dtn::TreeFlag> treeFlagsForCopies(int copies);

inline constexpr int kMaxCopies = 5;

/// Analysis helper: follows one tree rule hop by hop over a *static* graph
/// from `src` toward the node nearest `destPos`, reproducing the paper's
/// Figure 2 walk (S -> a -> b -> ... -> T). Stops at a local minimum or
/// after `maxHops`. Returns the visited node sequence starting with src.
[[nodiscard]] std::vector<int> extractPath(
    const graph::Graph& g, const std::vector<geom::Point2>& positions,
    int src, geom::Point2 destPos, dtn::TreeFlag flag, int maxHops = 1000);

}  // namespace glr::core
