#include "geometry/tiled_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace glr::geom {

namespace {
/// Same tile-count cap as SpatialGrid: bounds memory on sparse bounds by
/// enlarging tiles instead of allocating a huge fine grid.
constexpr std::size_t kMaxTilesBase = 1024;
constexpr std::size_t kMaxTilesPerPoint = 4;
}  // namespace

TiledSpatialGrid::TiledSpatialGrid(Point2 lo, Point2 hi, double tileSize,
                                   std::size_t capacity) {
  if (!(tileSize > 0.0) || !std::isfinite(tileSize)) {
    throw std::invalid_argument{"TiledSpatialGrid: tileSize must be positive"};
  }
  if (!std::isfinite(lo.x) || !std::isfinite(lo.y) || !std::isfinite(hi.x) ||
      !std::isfinite(hi.y) || hi.x < lo.x || hi.y < lo.y) {
    throw std::invalid_argument{"TiledSpatialGrid: bad bounds"};
  }
  origin_ = lo;
  tile_ = tileSize;
  const std::size_t maxTiles = kMaxTilesBase + kMaxTilesPerPoint * capacity;
  const double w = hi.x - lo.x;
  const double h = hi.y - lo.y;
  while ((std::floor(w / tile_) + 1.0) * (std::floor(h / tile_) + 1.0) >
         static_cast<double>(maxTiles)) {
    tile_ *= 2.0;
  }
  nx_ = static_cast<int>(std::floor(w / tile_)) + 1;
  ny_ = static_cast<int>(std::floor(h / tile_)) + 1;

  head_.assign(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_),
               -1);
  cellOf_.assign(capacity, -1);
  next_.assign(capacity, -1);
  prev_.assign(capacity, -1);
  pos_.assign(capacity, Point2{0.0, 0.0});
}

int TiledSpatialGrid::clampTileX(double x) const {
  const int c = static_cast<int>(std::floor((x - origin_.x) / tile_));
  return std::clamp(c, 0, nx_ - 1);
}

int TiledSpatialGrid::clampTileY(double y) const {
  const int c = static_cast<int>(std::floor((y - origin_.y) / tile_));
  return std::clamp(c, 0, ny_ - 1);
}

void TiledSpatialGrid::unlink(int i) {
  const auto u = static_cast<std::size_t>(i);
  const int nxt = next_[u];
  const int prv = prev_[u];
  if (prv >= 0) {
    next_[static_cast<std::size_t>(prv)] = nxt;
  } else {
    head_[static_cast<std::size_t>(cellOf_[u])] = nxt;
  }
  if (nxt >= 0) prev_[static_cast<std::size_t>(nxt)] = prv;
}

void TiledSpatialGrid::update(int i, Point2 p, double /*t*/) {
  const auto u = static_cast<std::size_t>(i);
  if (u >= cellOf_.size()) {
    throw std::out_of_range{"TiledSpatialGrid::update: id beyond capacity"};
  }
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    throw std::invalid_argument{"TiledSpatialGrid::update: non-finite point"};
  }
  pos_[u] = p;
  const int tile = tileOfPoint(p);
  const int cur = cellOf_[u];
  if (cur == tile) return;
  if (cur >= 0) unlink(i);
  // Link at the head of the new tile's list.
  const auto tu = static_cast<std::size_t>(tile);
  next_[u] = head_[tu];
  prev_[u] = -1;
  if (head_[tu] >= 0) prev_[static_cast<std::size_t>(head_[tu])] = i;
  head_[tu] = i;
  cellOf_[u] = tile;
}

void TiledSpatialGrid::queryRadius(Point2 center, double radius,
                                   std::vector<int>& out) const {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument{"TiledSpatialGrid: negative query radius"};
  }
  const double r2 = radius * radius;
  const int cx0 = clampTileX(center.x - radius);
  const int cx1 = clampTileX(center.x + radius);
  const int cy0 = clampTileY(center.y - radius);
  const int cy1 = clampTileY(center.y + radius);
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      for (int i = head_[static_cast<std::size_t>(tileAt(cx, cy))]; i >= 0;
           i = next_[static_cast<std::size_t>(i)]) {
        if (dist2(pos_[static_cast<std::size_t>(i)], center) <= r2) {
          out.push_back(i);
        }
      }
    }
  }
}

}  // namespace glr::geom
