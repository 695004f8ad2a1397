#include "geometry/delaunay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "geometry/predicates.hpp"

namespace glr::geom {

namespace {

constexpr int kNone = -1;

/// Bounding super-triangle of `points` (n >= 1), far enough away to act as
/// "infinity". buildInto inserts it as three real vertices, so edgeStatus
/// must see the very same three points.
std::array<Point2, 3> superTriangle(std::span<const Point2> points) {
  double minX = points[0].x, maxX = minX;
  double minY = points[0].y, maxY = minY;
  for (const Point2 p : points.subspan(1)) {
    minX = std::min(minX, p.x);
    maxX = std::max(maxX, p.x);
    minY = std::min(minY, p.y);
    maxY = std::max(maxY, p.y);
  }
  const double cx = (minX + maxX) / 2.0;
  const double cy = (minY + maxY) / 2.0;
  const double extent = std::max({maxX - minX, maxY - minY, 1.0});
  const double m = 1e6 * extent;
  return {{{cx - 2.0 * m, cy - m}, {cx + 2.0 * m, cy - m}, {cx, cy + 2.0 * m}}};
}

/// Triangle under construction.
struct Tri {
  std::array<int, 3> v{kNone, kNone, kNone};    // CCW vertices
  std::array<int, 3> nbr{kNone, kNone, kNone};  // nbr[i] is across edge opposite v[i]
};

/// Construction workspace. One instance lives per thread and is reused by
/// every build (the GLR route check triangulates one small neighborhood per
/// check, hundreds of thousands per run): all vectors keep their capacity
/// across builds, and the cavity membership flags are generation-stamped so
/// they need no clearing.
///
/// Every triangle slot is live. An insertion deletes a cavity of c
/// triangles and creates a fan of c + 2 (the cavity is a disk whose every
/// vertex lies on its boundary), so the fan takes over the cavity's slots
/// and appends two. A build of n unique points ends with exactly 2n + 1
/// slots, which sizes the cavity stamps once per build.
struct Builder {
  std::vector<Point2> pts;  // input points + 3 super vertices
  std::vector<Tri> tris;
  int last = 0;  // walk start: a fan triangle of the latest insertion

  // insert() scratch.
  std::vector<int> cavity;
  std::vector<int> stack;
  std::vector<std::uint32_t> cavityStamp;  // by slot; == stamp -> in cavity
  std::uint32_t stamp = 0;
  struct BoundaryEdge {
    int a, b;         // directed so the cavity interior is to the left
    int outside;      // triangle index across the edge, or kNone
    int outsideEdge;  // the edge's index within `outside`
    int tri;          // fan triangle created over this edge
  };
  std::vector<BoundaryEdge> boundary;
  std::vector<int> fanFrom;  // by vertex: fan triangle whose edge starts there

  // build() scratch.
  std::vector<int> sortIdx;
  std::vector<std::pair<int, int>> edgeList;  // each real edge once

  /// Starts a build of `points`: the one triangle is the super-triangle,
  /// whose vertices follow the input points.
  void reset(const std::vector<Point2>& points) {
    const std::size_t n = points.size();
    const int s0 = static_cast<int>(n);
    pts.assign(points.begin(), points.end());
    for (const Point2 p : superTriangle(points)) pts.push_back(p);
    tris.assign(1, {{s0, s0 + 1, s0 + 2}, {kNone, kNone, kNone}});
    last = 0;
    if (cavityStamp.size() < 2 * n + 1) cavityStamp.resize(2 * n + 1, 0);
    if (fanFrom.size() < n + 3) fanFrom.resize(n + 3);
  }

  [[nodiscard]] bool inCavity(int t) const {
    return cavityStamp[static_cast<std::size_t>(t)] == stamp;
  }

  [[nodiscard]] bool inTriangle(int t, Point2 p, int& exitEdge) const {
    // Returns true if p is inside or on triangle t; otherwise sets exitEdge
    // to an edge index whose opposite neighbor is closer to p.
    const Tri& tr = tris[t];
    for (int e = 0; e < 3; ++e) {
      const Point2 a = pts[tr.v[(e + 1) % 3]];
      const Point2 b = pts[tr.v[(e + 2) % 3]];
      if (orient2d(a, b, p) < 0.0) {
        exitEdge = e;
        return false;
      }
    }
    return true;
  }

  /// Visibility walk from the hint triangle; guaranteed to terminate on a
  /// Delaunay triangulation.
  [[nodiscard]] int locate(Point2 p) const {
    int t = last;
    for (std::size_t guard = 0; guard <= 4 * tris.size() + 16; ++guard) {
      int exitEdge = kNone;
      if (inTriangle(t, p, exitEdge)) return t;
      const int next = tris[t].nbr[exitEdge];
      if (next == kNone) {
        throw std::logic_error{
            "Delaunay::locate: walked outside the super-triangle"};
      }
      t = next;
    }
    throw std::logic_error{"Delaunay::locate: walk did not terminate"};
  }

  [[nodiscard]] bool inCircumcircle(int t, Point2 p) const {
    const Tri& tr = tris[t];
    return incircle(pts[tr.v[0]], pts[tr.v[1]], pts[tr.v[2]], p) > 0.0;
  }

  void insert(int pi) {
    const Point2 p = pts[pi];
    const int seed = locate(p);

    // Grow the cavity: all triangles whose circumcircle contains p. The
    // workspace lives for the whole thread, so the generation stamp can
    // genuinely reach 2^32 over a long sweep — wrap by rewinding to a
    // clean slate instead of colliding with stale entries.
    if (stamp == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(cavityStamp.begin(), cavityStamp.end(), 0);
      stamp = 0;
    }
    ++stamp;
    cavity.clear();
    stack.clear();
    stack.push_back(seed);
    cavityStamp[static_cast<std::size_t>(seed)] = stamp;
    while (!stack.empty()) {
      const int t = stack.back();
      stack.pop_back();
      cavity.push_back(t);
      for (int e = 0; e < 3; ++e) {
        const int n = tris[t].nbr[e];
        if (n == kNone || inCavity(n)) continue;
        if (inCircumcircle(n, p)) {
          cavityStamp[static_cast<std::size_t>(n)] = stamp;
          stack.push_back(n);
        }
      }
    }

    // Boundary edges of the cavity, each with its outside neighbor and the
    // outside neighbor's back edge. Both are read before any fan triangle
    // overwrites a cavity slot.
    boundary.clear();
    for (int t : cavity) {
      for (int e = 0; e < 3; ++e) {
        const int n = tris[t].nbr[e];
        if (n != kNone && inCavity(n)) continue;
        int back = kNone;
        if (n != kNone) {
          const Tri& out = tris[n];
          back = out.nbr[0] == t ? 0 : out.nbr[1] == t ? 1 : 2;
        }
        boundary.push_back(
            {tris[t].v[(e + 1) % 3], tris[t].v[(e + 2) % 3], n, back, kNone});
      }
    }

    // Fan of new triangles from p to each boundary edge, in the cavity's
    // slots first. Triangle verts are {pi, a, b}: nbr[0] spans the boundary
    // edge (a, b), nbr[1] the edge (b, pi), nbr[2] the edge (pi, a).
    for (std::size_t i = 0; i < boundary.size(); ++i) {
      BoundaryEdge& be = boundary[i];
      if (i < cavity.size()) {
        be.tri = cavity[i];
      } else {
        be.tri = static_cast<int>(tris.size());
        tris.emplace_back();
      }
      Tri& tr = tris[be.tri];
      tr.v = {pi, be.a, be.b};
      tr.nbr[0] = be.outside;
      if (be.outside != kNone) tris[be.outside].nbr[be.outsideEdge] = be.tri;
      fanFrom[static_cast<std::size_t>(be.a)] = be.tri;
    }
    // Stitch the fan across its shared (pi, x) edges. The boundary is one
    // cycle, so exactly one fan triangle's edge starts at each boundary
    // vertex: across (b, pi) lies the one whose edge starts at b, and that
    // triangle's (pi, b) edge faces back.
    for (const BoundaryEdge& be : boundary) {
      const int next = fanFrom[static_cast<std::size_t>(be.b)];
      tris[be.tri].nbr[1] = next;
      tris[next].nbr[2] = be.tri;
    }
    last = boundary.back().tri;
  }
};

/// Per-thread construction scratch (scenarios never share a thread
/// mid-build; the sweep engine runs whole scenarios per worker).
Builder& builderScratch() {
  static thread_local Builder b;
  return b;
}

}  // namespace

Delaunay Delaunay::build(const std::vector<Point2>& points) {
  Delaunay result;
  buildInto(result, points);
  return result;
}

void Delaunay::buildInto(Delaunay& result, const std::vector<Point2>& points) {
  const std::size_t n = points.size();
  result.numInput_ = n;
  result.realTriangles_.clear();
  result.realEdges_.clear();
  result.adjOff_.assign(n + 1, 0);
  result.adjFlat_.clear();
  result.duplicateOf_.resize(n);
  std::iota(result.duplicateOf_.begin(), result.duplicateOf_.end(), 0);

  Builder& b = builderScratch();

  // Merge exact duplicates onto their first occurrence: sort indices by
  // (point, index) and map every later member of an equal run onto the
  // run's lowest index — the same canonical representative the old
  // first-insert-wins map produced, without the per-point tree insert.
  b.sortIdx.resize(n);
  std::iota(b.sortIdx.begin(), b.sortIdx.end(), 0);
  std::sort(b.sortIdx.begin(), b.sortIdx.end(), [&points](int x, int y) {
    if (points[x].x != points[y].x) return points[x].x < points[y].x;
    if (points[x].y != points[y].y) return points[x].y < points[y].y;
    return x < y;
  });
  std::size_t numUnique = 0;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && points[b.sortIdx[j]] == points[b.sortIdx[i]]) ++j;
    const int canon = b.sortIdx[i];  // lowest index in the equal run
    for (std::size_t k = i + 1; k < j; ++k) {
      result.duplicateOf_[b.sortIdx[k]] = canon;
    }
    ++numUnique;
    i = j;
  }

  if (numUnique < 2) return;
  if (numUnique == 2) {
    int first = -1, second = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (result.duplicateOf_[i] != static_cast<int>(i)) continue;
      (first < 0 ? first : second) = static_cast<int>(i);
    }
    result.realEdges_.emplace_back(first, second);
    result.adjOff_[static_cast<std::size_t>(first) + 1] = 1;
    result.adjOff_[static_cast<std::size_t>(second) + 1] = 1;
    for (std::size_t v = 0; v < n; ++v) result.adjOff_[v + 1] += result.adjOff_[v];
    result.adjFlat_.assign(2, 0);
    result.adjFlat_[result.adjOff_[static_cast<std::size_t>(first)]] = second;
    result.adjFlat_[result.adjOff_[static_cast<std::size_t>(second)]] = first;
    return;
  }

  // Duplicates never move the bounding box, so all points give the same
  // super-triangle as the unique ones.
  b.reset(points);
  const int s0 = static_cast<int>(n);

  // Insert unique points in original input order (the order affects which
  // of several valid triangulations degenerate cocircular sets settle on,
  // so it must stay what it always was).
  for (std::size_t i = 0; i < n; ++i) {
    if (result.duplicateOf_[i] == static_cast<int>(i)) {
      b.insert(static_cast<int>(i));
    }
  }

  // Real triangles and edges (those not touching super vertices). An edge
  // between two triangles is taken from the lower slot only; an edge with
  // no triangle across it lies on the super-triangle's hull.
  b.edgeList.clear();
  for (std::size_t t = 0; t < b.tris.size(); ++t) {
    const Tri& tr = b.tris[t];
    if (tr.v[0] < s0 && tr.v[1] < s0 && tr.v[2] < s0) {
      result.realTriangles_.push_back(tr.v);
    }
    for (int e = 0; e < 3; ++e) {
      const int u = tr.v[(e + 1) % 3];
      const int v = tr.v[(e + 2) % 3];
      const int across = tr.nbr[e];
      if (u >= s0 || v >= s0 ||
          (across != kNone && static_cast<std::size_t>(across) < t)) {
        continue;
      }
      b.edgeList.emplace_back(u, v);
      ++result.adjOff_[static_cast<std::size_t>(u) + 1];
      ++result.adjOff_[static_cast<std::size_t>(v) + 1];
    }
  }

  // CSR adjacency, each slice sorted ascending (a handful of entries), and
  // the lexicographic edge list read off the slices.
  for (std::size_t v = 0; v < n; ++v) {
    result.adjOff_[v + 1] += result.adjOff_[v];
  }
  result.adjFlat_.resize(result.adjOff_[n]);
  // Reuse sortIdx as the per-vertex fill cursor.
  b.sortIdx.assign(n, 0);
  for (const auto& [u, v] : b.edgeList) {
    const auto su = static_cast<std::size_t>(u);
    const auto sv = static_cast<std::size_t>(v);
    result.adjFlat_[result.adjOff_[su] +
                    static_cast<std::uint32_t>(b.sortIdx[su]++)] = v;
    result.adjFlat_[result.adjOff_[sv] +
                    static_cast<std::uint32_t>(b.sortIdx[sv]++)] = u;
  }
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = result.adjFlat_.begin() + result.adjOff_[u];
    const auto end = result.adjFlat_.begin() + result.adjOff_[u + 1];
    std::sort(first, end);
    for (auto it = std::upper_bound(first, end, static_cast<int>(u));
         it != end; ++it) {
      result.realEdges_.emplace_back(static_cast<int>(u), *it);
    }
  }
}

std::vector<int> Delaunay::neighborsOf(int v) const {
  const auto span = neighbors(v);
  return {span.begin(), span.end()};
}

std::span<const int> Delaunay::neighbors(int v) const {
  if (v < 0 || static_cast<std::size_t>(v) + 1 >= adjOff_.size()) {
    throw std::out_of_range{"Delaunay::neighbors: bad vertex"};
  }
  const auto i = static_cast<std::size_t>(v);
  return {adjFlat_.data() + adjOff_[i], adjFlat_.data() + adjOff_[i + 1]};
}

bool Delaunay::hasEdge(int u, int v) const {
  if (u < 0 || static_cast<std::size_t>(u) + 1 >= adjOff_.size()) return false;
  const auto span = neighbors(u);
  return std::binary_search(span.begin(), span.end(), v);
}

EdgeStatus Delaunay::edgeStatus(std::span<const Point2> points, int ai,
                                int bi) {
  const Point2 a = points[static_cast<std::size_t>(ai)];
  const Point2 b = points[static_cast<std::size_t>(bi)];
  if (a == b) return EdgeStatus::NotEdge;  // one merged vertex

  // The circles through a and b form a one-parameter family. A point left
  // of the directed line ab is strictly inside exactly the circles that
  // reach further left than its own circle through a and b, and likewise
  // on the right; a point on the open segment ab is inside all of them, a
  // point on the line beyond a or b inside none. So the empty circles lie
  // between the tightest left circle and the tightest right one, and the
  // verdict is where each side's tightest point sits against the other
  // side's circle. Find the tightest real point per side first; every
  // incircle test below keeps a real point in the last (translated) slot,
  // which is what keeps the floating-point filter effective next to the
  // far super vertices.
  Point2 left, right;
  bool haveLeft = false, haveRight = false, haveThird = false;
  for (const Point2 p : points) {
    if (p == a || p == b) continue;
    haveThird = true;
    const double o = orient2d(a, b, p);
    if (o > 0.0) {
      if (!haveLeft || incircle(a, b, left, p) > 0.0) left = p;
      haveLeft = true;
    } else if (o < 0.0) {
      if (!haveRight || incircle(b, a, right, p) > 0.0) right = p;
      haveRight = true;
    } else if (onSegment(a, b, p)) {
      return EdgeStatus::NotEdge;
    }
  }
  if (!haveThird) return EdgeStatus::Edge;  // buildInto's two-vertex case

  // Every left/right pair of extremes must be separated: the right point
  // strictly outside the circle through a, b and the left point. `blocks`
  // takes the sign of "strictly inside" and notes a cocircular pair.
  bool tie = false;
  const auto blocks = [&tie](double inside) {
    tie = tie || inside == 0.0;
    return inside > 0.0;
  };
  if (haveLeft && haveRight && blocks(incircle(a, b, left, right))) {
    return EdgeStatus::NotEdge;
  }
  // The super vertices are compared only across sides: with the real
  // extreme opposite (the sign flip swaps it into the last slot), or with
  // each other through an odd rotation that puts a last.
  const std::array<Point2, 3> super = superTriangle(points);
  std::array<double, 3> side{};
  for (std::size_t i = 0; i < 3; ++i) {
    const Point2 s = super[i];
    side[i] = orient2d(s, a, b);  // == orient2d(a, b, s), b translated
    if ((side[i] > 0.0 && haveRight && blocks(incircle(a, b, s, right))) ||
        (side[i] < 0.0 && haveLeft && blocks(-incircle(a, b, s, left)))) {
      return EdgeStatus::NotEdge;
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (side[i] > 0.0 && side[j] < 0.0 &&
          blocks(-incircle(b, super[i], super[j], a))) {
        return EdgeStatus::NotEdge;
      }
    }
  }
  return tie ? EdgeStatus::Tie : EdgeStatus::Edge;
}

std::vector<int> convexHull(const std::vector<Point2>& points) {
  std::vector<int> idx(points.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](int a, int b) {
    return points[a] < points[b];
  });
  idx.erase(std::unique(idx.begin(), idx.end(),
                        [&](int a, int b) { return points[a] == points[b]; }),
            idx.end());
  const std::size_t n = idx.size();
  if (n < 3) return idx;

  std::vector<int> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {  // lower hull
    while (k >= 2 && orient2d(points[hull[k - 2]], points[hull[k - 1]],
                              points[idx[i]]) <= 0.0) {
      --k;
    }
    hull[k++] = idx[i];
  }
  for (std::size_t i = n - 1, t = k + 1; i-- > 0;) {  // upper hull
    while (k >= t && orient2d(points[hull[k - 2]], points[hull[k - 1]],
                              points[idx[i]]) <= 0.0) {
      --k;
    }
    hull[k++] = idx[i];
  }
  hull.resize(k - 1);
  return hull;
}

}  // namespace glr::geom
