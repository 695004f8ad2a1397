#pragma once
/// \file tiled_grid.hpp
/// Incremental tiled point index for fixed-radius neighbor queries over
/// moving points.
///
/// `SpatialGrid` is a snapshot: every rebuild copies all N positions,
/// re-sorts them into cells, and throws the structure away a moment later.
/// That is the right shape for build-once queries (topology analysis) but
/// would cost the channel's receiver index a re-sort and an allocation
/// burst every rebuild interval. TiledSpatialGrid keeps the same
/// uniform-grid geometry but stores membership as intrusive doubly-linked
/// lists over pre-sized SoA arrays (cell, next, prev, recorded position),
/// so moving one point is an O(1) relink, re-recording a point that stayed
/// in its tile is a store, and nothing allocates after construction.
///
/// Each point carries the position it was last *recorded* at. Queries run
/// over recorded positions; callers that track moving points bound each
/// point's drift since its last record and pad their query radius
/// accordingly (see mac::Channel's receiver index). The recorded view is
/// exactly a SpatialGrid snapshot over the recorded positions — pinned
/// bit-identical by property tests across every mobility model.
///
/// Points outside the construction bounds clamp into edge tiles (the same
/// rule SpatialGrid uses for its bounding box): membership stays correct
/// because queries clamp their scan windows the same way; only edge-tile
/// occupancy grows.

#include <cstddef>
#include <vector>

#include "geometry/point.hpp"

namespace glr::geom {

class TiledSpatialGrid {
 public:
  /// Builds an empty grid over [lo, hi] with the given tile size, pre-sized
  /// for point ids in [0, capacity). `tileSize` must be positive and
  /// finite; pass the radius you intend to query with. The effective tile
  /// size may be enlarged to bound the tile count on very sparse bounds
  /// (never affects correctness, only constants).
  TiledSpatialGrid(Point2 lo, Point2 hi, double tileSize,
                   std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return cellOf_.size(); }

  [[nodiscard]] bool contains(int i) const {
    return cellOf_[static_cast<std::size_t>(i)] >= 0;
  }
  [[nodiscard]] Point2 recordedPos(int i) const {
    return pos_[static_cast<std::size_t>(i)];
  }

  /// Records point `i` at position `p`. Inserts absent points; present
  /// points are relinked only if their tile changed. O(1). `t` is the sample
  /// time, which the grid does not store; the parameter stays because
  /// perfbench/CMakeLists.txt wraps this function by its mangled name.
  void update(int i, Point2 p, double t);

  /// Appends to `out` every live point with dist(recordedPos, center) <=
  /// radius (inclusive), in unspecified order — the same contract as
  /// SpatialGrid::queryRadius evaluated over the recorded snapshot.
  void queryRadius(Point2 center, double radius, std::vector<int>& out) const;

 private:
  /// Detaches `i` from its tile's list without touching cellOf_.
  void unlink(int i);
  [[nodiscard]] int tileOfPoint(Point2 p) const {
    return tileAt(clampTileX(p.x), clampTileY(p.y));
  }
  [[nodiscard]] int tileAt(int cx, int cy) const { return cy * nx_ + cx; }
  [[nodiscard]] int clampTileX(double x) const;
  [[nodiscard]] int clampTileY(double y) const;

  Point2 origin_;
  double tile_ = 1.0;
  int nx_ = 1;
  int ny_ = 1;

  // Intrusive per-tile doubly-linked lists over point ids (SoA, pre-sized
  // at construction; -1 = null everywhere).
  std::vector<int> head_;      // per tile: first member
  std::vector<int> cellOf_;    // per point: tile, or -1 if absent
  std::vector<int> next_;      // per point: next member of its tile
  std::vector<int> prev_;      // per point: previous member, -1 if head
  std::vector<Point2> pos_;    // per point: recorded position
};

}  // namespace glr::geom
