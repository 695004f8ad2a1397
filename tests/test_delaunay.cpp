// Tests for the Bowyer–Watson Delaunay triangulation: correctness of the
// empty-circumcircle property, degenerate inputs, duplicates, and structural
// invariants (Euler's formula, hull edges present), and the one-scan edge
// test (Delaunay::edgeStatus) against full builds, plus a differential
// test of the builder against a reference copy of its previous version.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "geometry/predicates.hpp"
#include "sim/rng.hpp"

// ---------------------------------------------------------------------------
// Reference builder: a verbatim copy of the Bowyer–Watson builder as it was
// before every triangle slot became live (dead triangles with an `alive`
// flag, a per-insert stamp resize, an O(b^2) fan-stitching probe, and the
// edge list deduplicated by sort/unique). Only the result type differs: the
// fields Delaunay keeps private are public here. The differential tests
// below require the production builder to produce the same triangulation.
// ---------------------------------------------------------------------------

namespace glr::geom::reference {

struct Triangulation {
  std::size_t numInput_ = 0;
  std::vector<std::array<int, 3>> realTriangles_;
  std::vector<std::pair<int, int>> realEdges_;
  std::vector<std::uint32_t> adjOff_;
  std::vector<int> adjFlat_;
  std::vector<int> duplicateOf_;
};

namespace {

constexpr int kNone = -1;

/// Mutable triangle soup used during construction.
struct Tri {
  std::array<int, 3> v{kNone, kNone, kNone};    // CCW vertices
  std::array<int, 3> nbr{kNone, kNone, kNone};  // nbr[i] is across edge opposite v[i]
  bool alive = false;
};

/// Construction workspace. One instance lives per thread and is reused by
/// every build (the GLR route check triangulates hundreds of thousands of
/// small neighborhoods per run): all vectors keep their capacity across
/// builds, and the cavity membership flags are generation-stamped so they
/// need no clearing. The flat boundary/fan scratch replaces the per-insert
/// std::map edge-stitching of the original Bowyer–Watson loop — boundary
/// cycles are a handful of edges, where a linear scan beats a red-black
/// tree and allocates nothing.
struct Builder {
  std::vector<Point2> pts;  // input points + 3 super vertices
  std::vector<Tri> tris;
  int lastAlive = kNone;  // walk start hint

  // insert() scratch.
  std::vector<int> cavity;
  std::vector<int> stack;
  std::vector<std::uint32_t> cavityStamp;  // == stamp -> tri is in cavity
  std::uint32_t stamp = 0;
  struct BoundaryEdge {
    int a, b;      // directed so the cavity interior is to the left
    int outside;   // triangle index across the edge, or kNone
    int tri;       // fan triangle created over this edge
  };
  std::vector<BoundaryEdge> boundary;

  // build() scratch.
  std::vector<int> sortIdx;
  std::vector<std::pair<int, int>> edgeScratch;

  void reset(const std::vector<Point2>& points) {
    pts.assign(points.begin(), points.end());
    tris.clear();
    lastAlive = kNone;
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
    int t = lastAlive;
    if (t == kNone || !tris[t].alive) {
      for (std::size_t i = 0; i < tris.size(); ++i) {
        if (tris[i].alive) {
          t = static_cast<int>(i);
          break;
        }
      }
    }
    if (t == kNone) throw std::logic_error{"Delaunay::locate: no triangles"};
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

  int newTriangle(int a, int b, int c) {
    Tri tr;
    tr.v = {a, b, c};
    tr.alive = true;
    tris.push_back(tr);
    return static_cast<int>(tris.size() - 1);
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
    cavityStamp.resize(tris.size(), 0);
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

    // Boundary edges of the cavity, each with its outside neighbor.
    boundary.clear();
    for (int t : cavity) {
      for (int e = 0; e < 3; ++e) {
        const int n = tris[t].nbr[e];
        if (n != kNone && inCavity(n)) continue;
        boundary.push_back(
            {tris[t].v[(e + 1) % 3], tris[t].v[(e + 2) % 3], n, kNone});
      }
    }
    for (int t : cavity) tris[t].alive = false;

    // Fan of new triangles from p to each boundary edge. Triangle verts are
    // {pi, a, b}: nbr[0] spans the boundary edge (a, b), nbr[1] the edge
    // (b, pi), nbr[2] the edge (pi, a).
    for (BoundaryEdge& be : boundary) {
      const int t = newTriangle(pi, be.a, be.b);
      be.tri = t;
      tris[t].nbr[0] = be.outside;
      if (be.outside != kNone) {
        for (int e = 0; e < 3; ++e) {
          const Tri& out = tris[be.outside];
          if (out.v[(e + 1) % 3] == be.b && out.v[(e + 2) % 3] == be.a) {
            tris[be.outside].nbr[e] = t;
            break;
          }
        }
      }
    }
    // Stitch fan triangles to each other across shared (pi, x) edges: the
    // neighbor across (pi, a) is the fan triangle whose boundary edge ends
    // at a (b == a), and across (b, pi) the one whose edge starts at b.
    // The boundary cycle is a handful of edges, so the linear probe is
    // cheaper than the edge map it replaces — and each directed edge has at
    // most one reverse, so the wiring is the same.
    for (const BoundaryEdge& be : boundary) {
      for (const BoundaryEdge& other : boundary) {
        if (other.b == be.a) tris[be.tri].nbr[2] = other.tri;
        if (other.a == be.b) tris[be.tri].nbr[1] = other.tri;
      }
    }
    lastAlive = boundary.empty() ? kNone : boundary.back().tri;
  }
};

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

/// Per-thread construction scratch (scenarios never share a thread
/// mid-build; the sweep engine runs whole scenarios per worker).
Builder& builderScratch() {
  static thread_local Builder b;
  return b;
}

void buildInto(Triangulation& result, const std::vector<Point2>& points) {
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

  b.reset(points);

  // Duplicates never move the bounding box, so all points give the same
  // super-triangle as the unique ones.
  const int s0 = static_cast<int>(n);
  for (const Point2 p : superTriangle(points)) b.pts.push_back(p);
  b.lastAlive = b.newTriangle(s0, s0 + 1, s0 + 2);

  // Insert unique points in original input order (the order affects which
  // of several valid triangulations degenerate cocircular sets settle on,
  // so it must stay what it always was).
  for (std::size_t i = 0; i < n; ++i) {
    if (result.duplicateOf_[i] == static_cast<int>(i)) {
      b.insert(static_cast<int>(i));
    }
  }

  // Extract real triangles and edges (those not touching super vertices).
  b.edgeScratch.clear();
  for (const Tri& t : b.tris) {
    if (!t.alive) continue;
    if (t.v[0] < s0 && t.v[1] < s0 && t.v[2] < s0) {
      result.realTriangles_.push_back(t.v);
    }
    for (int e = 0; e < 3; ++e) {
      const int u = t.v[(e + 1) % 3];
      const int v = t.v[(e + 2) % 3];
      if (u < s0 && v < s0) {
        b.edgeScratch.emplace_back(std::min(u, v), std::max(u, v));
      }
    }
  }
  std::sort(b.edgeScratch.begin(), b.edgeScratch.end());
  b.edgeScratch.erase(
      std::unique(b.edgeScratch.begin(), b.edgeScratch.end()),
      b.edgeScratch.end());
  result.realEdges_.assign(b.edgeScratch.begin(), b.edgeScratch.end());

  // CSR adjacency. Appending both directions in lexicographic edge order
  // fills every vertex's slice in ascending order ((a, v) edges with a < v
  // sort before every (v, b) edge), so no per-slice sort is needed.
  for (const auto& [u, v] : result.realEdges_) {
    ++result.adjOff_[static_cast<std::size_t>(u) + 1];
    ++result.adjOff_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    result.adjOff_[v + 1] += result.adjOff_[v];
  }
  result.adjFlat_.resize(result.adjOff_[n]);
  {
    // Reuse sortIdx as the per-vertex fill cursor.
    b.sortIdx.assign(n, 0);
    for (const auto& [u, v] : result.realEdges_) {
      const auto su = static_cast<std::size_t>(u);
      const auto sv = static_cast<std::size_t>(v);
      result.adjFlat_[result.adjOff_[su] +
                      static_cast<std::uint32_t>(b.sortIdx[su]++)] = v;
      result.adjFlat_[result.adjOff_[sv] +
                      static_cast<std::uint32_t>(b.sortIdx[sv]++)] = u;
    }
  }
}

}  // namespace

}  // namespace glr::geom::reference

namespace {

using glr::geom::convexHull;
using glr::geom::Delaunay;
using glr::geom::EdgeStatus;
using glr::geom::incircle;
using glr::geom::orient2d;
using glr::geom::Point2;

// Checks the defining property: no input point strictly inside any
// triangle's circumcircle.
void expectEmptyCircumcircles(const Delaunay& dt,
                              const std::vector<Point2>& pts) {
  for (const auto& tri : dt.triangles()) {
    const Point2 a = pts[tri[0]], b = pts[tri[1]], c = pts[tri[2]];
    ASSERT_GT(orient2d(a, b, c), 0.0) << "triangle must be CCW";
    for (std::size_t p = 0; p < pts.size(); ++p) {
      if (static_cast<int>(p) == tri[0] || static_cast<int>(p) == tri[1] ||
          static_cast<int>(p) == tri[2]) {
        continue;
      }
      EXPECT_LE(incircle(a, b, c, pts[p]), 0.0)
          << "point " << p << " violates empty circumcircle";
    }
  }
}

/// Pairs edgeStatus decided and pairs it left as ties.
struct EdgeStatusTally {
  int decided = 0;
  int ties = 0;
};

// Every pair edgeStatus decides (all ordered pairs, self-pairs and
// duplicates included) must match the built triangulation's edge set.
EdgeStatusTally expectEdgeStatusMatchesBuild(const std::vector<Point2>& pts) {
  const Delaunay d = Delaunay::build(pts);
  EdgeStatusTally tally;
  const int n = static_cast<int>(pts.size());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const EdgeStatus st = Delaunay::edgeStatus(pts, i, j);
      if (st == EdgeStatus::Tie) {
        ++tally.ties;
        continue;
      }
      ++tally.decided;
      EXPECT_EQ(st == EdgeStatus::Edge,
                d.hasEdge(d.canonicalIndex(i), d.canonicalIndex(j)))
          << "pair " << i << "-" << j << " of " << n << " points";
    }
  }
  return tally;
}

TEST(Delaunay, EmptyAndSingle) {
  const Delaunay d0 = Delaunay::build({});
  EXPECT_TRUE(d0.edges().empty());
  EXPECT_TRUE(d0.triangles().empty());

  const Delaunay d1 = Delaunay::build({{1, 2}});
  EXPECT_TRUE(d1.edges().empty());
}

TEST(Delaunay, TwoPointsMakeOneEdge) {
  const Delaunay d = Delaunay::build({{0, 0}, {3, 4}});
  ASSERT_EQ(d.edges().size(), 1u);
  EXPECT_EQ(d.edges()[0], std::make_pair(0, 1));
  EXPECT_TRUE(d.hasEdge(0, 1));
  EXPECT_TRUE(d.hasEdge(1, 0));
}

TEST(Delaunay, TriangleIsItself) {
  const std::vector<Point2> pts{{0, 0}, {4, 0}, {2, 3}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_EQ(d.triangles().size(), 1u);
  EXPECT_EQ(d.edges().size(), 3u);
  expectEmptyCircumcircles(d, pts);
}

TEST(Delaunay, SquareHasDiagonal) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_EQ(d.triangles().size(), 2u);
  EXPECT_EQ(d.edges().size(), 5u);  // 4 sides + 1 diagonal
  // Exactly one diagonal (cocircular: either is valid).
  const bool d1 = d.hasEdge(0, 2);
  const bool d2 = d.hasEdge(1, 3);
  EXPECT_TRUE(d1 != d2);
  expectEmptyCircumcircles(d, pts);
}

TEST(Delaunay, CollinearPointsFormPath) {
  // No triangles exist; the triangulation's real edges must form the path
  // of consecutive points along the line.
  const std::vector<Point2> pts{{0, 0}, {3, 0}, {1, 0}, {2, 0}, {5, 0}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_TRUE(d.triangles().empty());
  const std::set<std::pair<int, int>> want{{0, 2}, {2, 3}, {1, 3}, {1, 4}};
  const std::set<std::pair<int, int>> got(d.edges().begin(), d.edges().end());
  EXPECT_EQ(got, want);
}

TEST(Delaunay, DuplicatePointsMerged) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {0, 0}, {0.5, 1}};
  const Delaunay d = Delaunay::build(pts);
  EXPECT_EQ(d.canonicalIndex(2), 0);
  EXPECT_EQ(d.canonicalIndex(0), 0);
  EXPECT_EQ(d.canonicalIndex(1), 1);
  // Triangulation of the three distinct points.
  EXPECT_EQ(d.triangles().size(), 1u);
}

TEST(Delaunay, GridIsHandledExactly) {
  // Regular grids maximize cocircular degeneracies.
  std::vector<Point2> pts;
  for (int x = 0; x < 5; ++x)
    for (int y = 0; y < 5; ++y)
      pts.push_back({static_cast<double>(x), static_cast<double>(y)});
  const Delaunay d = Delaunay::build(pts);
  expectEmptyCircumcircles(d, pts);
  // Euler: for n points with h on the hull: triangles = 2n - h - 2,
  // edges = 3n - h - 3. Hull of the 5x5 grid has 16 boundary points, but
  // collinear hull points are interior to hull edges; for triangulation
  // counting, h counts all points on the boundary = 16.
  EXPECT_EQ(d.triangles().size(), 2u * 25 - 16 - 2);
  EXPECT_EQ(d.edges().size(), 3u * 25 - 16 - 3);
}

TEST(Delaunay, HullEdgesArePresent) {
  glr::sim::Rng rng{7};
  std::vector<Point2> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  const Delaunay d = Delaunay::build(pts);
  const auto hull = convexHull(pts);
  ASSERT_GE(hull.size(), 3u);
  for (std::size_t i = 0; i < hull.size(); ++i) {
    const int u = hull[i];
    const int v = hull[(i + 1) % hull.size()];
    EXPECT_TRUE(d.hasEdge(u, v)) << "hull edge " << u << "-" << v;
  }
}

TEST(Delaunay, NeighborsConsistentWithEdges) {
  glr::sim::Rng rng{11};
  std::vector<Point2> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  const Delaunay d = Delaunay::build(pts);
  std::size_t degSum = 0;
  for (int v = 0; v < 40; ++v) {
    for (int u : d.neighborsOf(v)) {
      EXPECT_TRUE(d.hasEdge(v, u));
    }
    degSum += d.neighborsOf(v).size();
  }
  EXPECT_EQ(degSum, 2 * d.edges().size());
}

class DelaunayRandom : public ::testing::TestWithParam<int> {};

TEST_P(DelaunayRandom, EmptyCircumcirclePropertyHolds) {
  glr::sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const int n = 10 + static_cast<int>(rng.below(70));
  std::vector<Point2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 500), rng.uniform(0, 500)});
  }
  const Delaunay d = Delaunay::build(pts);
  expectEmptyCircumcircles(d, pts);

  // Euler sanity: with h hull points (general position assumed at random),
  // triangles = 2n - h - 2 and edges = 3n - h - 3.
  const auto hull = convexHull(pts);
  const std::size_t h = hull.size();
  EXPECT_EQ(d.triangles().size(), 2 * static_cast<std::size_t>(n) - h - 2);
  EXPECT_EQ(d.edges().size(), 3 * static_cast<std::size_t>(n) - h - 3);
}

TEST_P(DelaunayRandom, EdgeStatusMatchesBuild) {
  glr::sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const int n = 1 + static_cast<int>(rng.below(60));
  // Offset from the origin like simulation coordinates, so the far super
  // vertices and the translated predicates are exercised as in the spanner.
  const Point2 origin{rng.uniform(0, 1500), rng.uniform(0, 300)};
  std::vector<Point2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({origin.x + rng.uniform(-100, 100),
                   origin.y + rng.uniform(-100, 100)});
  }
  const EdgeStatusTally tally = expectEdgeStatusMatchesBuild(pts);
  EXPECT_EQ(tally.ties, 0) << "random points are in general position";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelaunayRandom, ::testing::Range(1, 26));

TEST(Delaunay, EdgeStatusSmallAndDegenerateCases) {
  const std::vector<Point2> one{{1, 2}};
  EXPECT_EQ(Delaunay::edgeStatus(one, 0, 0), EdgeStatus::NotEdge);
  const std::vector<Point2> two{{0, 0}, {3, 4}, {0, 0}};
  EXPECT_EQ(Delaunay::edgeStatus(two, 0, 1), EdgeStatus::Edge);
  EXPECT_EQ(Delaunay::edgeStatus(two, 2, 1), EdgeStatus::Edge);
  EXPECT_EQ(Delaunay::edgeStatus(two, 0, 2), EdgeStatus::NotEdge);
  // A point on the open segment blocks the edge; one beyond it does not.
  const std::vector<Point2> line{{0, 0}, {2, 0}, {1, 0}, {5, 0}};
  EXPECT_EQ(Delaunay::edgeStatus(line, 0, 1), EdgeStatus::NotEdge);
  EXPECT_EQ(Delaunay::edgeStatus(line, 0, 2), EdgeStatus::Edge);
  EXPECT_EQ(Delaunay::edgeStatus(line, 1, 3), EdgeStatus::Edge);
  // Both diagonals of a square are ties; its sides are edges.
  const std::vector<Point2> square{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_EQ(Delaunay::edgeStatus(square, 0, 2), EdgeStatus::Tie);
  EXPECT_EQ(Delaunay::edgeStatus(square, 1, 3), EdgeStatus::Tie);
  EXPECT_EQ(Delaunay::edgeStatus(square, 0, 1), EdgeStatus::Edge);
  // A very flat hull triangle: the circle through its long side and apex
  // swallows a super vertex, so buildInto has no edge 0-1 although the
  // Delaunay triangulation of the three points alone would.
  const std::vector<Point2> flat{{0, 0}, {2, 0}, {1, 1e-9}};
  EXPECT_EQ(Delaunay::edgeStatus(flat, 0, 1), EdgeStatus::NotEdge);
  EXPECT_EQ(Delaunay::edgeStatus(flat, 0, 2), EdgeStatus::Edge);
  expectEdgeStatusMatchesBuild(line);
  expectEdgeStatusMatchesBuild(square);
  expectEdgeStatusMatchesBuild(flat);
}

TEST(Delaunay, EdgeStatusMatchesBuildOnIntegerGrids) {
  // Small integer grids are full of cocircular quadruples, collinear
  // triples and (drawn with replacement) duplicate positions.
  glr::sim::Rng rng{17};
  EdgeStatusTally total;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(14));
    std::vector<Point2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({static_cast<double>(rng.below(5)),
                     static_cast<double>(rng.below(5))});
    }
    const EdgeStatusTally tally = expectEdgeStatusMatchesBuild(pts);
    total.decided += tally.decided;
    total.ties += tally.ties;
  }
  EXPECT_GT(total.ties, 0);
  EXPECT_GT(total.decided, 10 * total.ties);
}

TEST(Delaunay, ClusteredPointsStressFilter) {
  // Tight clusters + far satellites stress the incircle filter.
  glr::sim::Rng rng{13};
  std::vector<Point2> pts;
  for (int c = 0; c < 5; ++c) {
    const Point2 center{rng.uniform(0, 1e6), rng.uniform(0, 1e6)};
    for (int i = 0; i < 12; ++i) {
      pts.push_back(
          {center.x + rng.uniform(-1e-3, 1e-3),
           center.y + rng.uniform(-1e-3, 1e-3)});
    }
  }
  const Delaunay d = Delaunay::build(pts);
  expectEmptyCircumcircles(d, pts);
  expectEdgeStatusMatchesBuild(pts);
}

// The production builder against the reference builder: the same edges,
// adjacency slices and duplicate merging, and the same triangles (their
// order is free, so they are compared as sorted lists).
void expectMatchesReference(const std::vector<Point2>& pts) {
  const Delaunay d = Delaunay::build(pts);
  glr::geom::reference::Triangulation ref;
  glr::geom::reference::buildInto(ref, pts);
  const int n = static_cast<int>(pts.size());
  ASSERT_EQ(d.pointCount(), ref.numInput_);
  ASSERT_EQ(d.edges(), ref.realEdges_) << n << " points";
  for (int v = 0; v < n; ++v) {
    const auto got = d.neighbors(v);
    const auto i = static_cast<std::size_t>(v);
    const std::vector<int> want(ref.adjFlat_.begin() + ref.adjOff_[i],
                                ref.adjFlat_.begin() + ref.adjOff_[i + 1]);
    ASSERT_EQ(std::vector<int>(got.begin(), got.end()), want)
        << "vertex " << v << " of " << n;
    ASSERT_EQ(d.canonicalIndex(v), ref.duplicateOf_[i]) << "vertex " << v;
  }
  auto gotTris = d.triangles();
  auto wantTris = ref.realTriangles_;
  std::sort(gotTris.begin(), gotTris.end());
  std::sort(wantTris.begin(), wantTris.end());
  ASSERT_EQ(gotTris, wantTris) << n << " points";
}

TEST(DelaunayDifferential, MatchesReferenceOnRandomSets) {
  glr::sim::Rng rng{23};
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(298));
    const Point2 origin{rng.uniform(0, 1500), rng.uniform(0, 300)};
    const double spread = trial % 2 == 0 ? 100.0 : 1e4;
    std::vector<Point2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({origin.x + rng.uniform(-spread, spread),
                     origin.y + rng.uniform(-spread, spread)});
    }
    expectMatchesReference(pts);
  }
}

TEST(DelaunayDifferential, MatchesReferenceOnRouteCheckSizedViews) {
  // Two-hop views as the route check sees them: a dozen points or so
  // within two radio ranges of the node.
  glr::sim::Rng rng{29};
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(30));
    const Point2 self{rng.uniform(0, 1500), rng.uniform(0, 300)};
    std::vector<Point2> pts{self};
    while (static_cast<int>(pts.size()) < n) {
      const Point2 q{self.x + rng.uniform(-200, 200),
                     self.y + rng.uniform(-200, 200)};
      if (glr::geom::dist(self, q) <= 200.0) pts.push_back(q);
    }
    expectMatchesReference(pts);
  }
}

TEST(DelaunayDifferential, MatchesReferenceOnClusteredSets) {
  glr::sim::Rng rng{31};
  for (int trial = 0; trial < 60; ++trial) {
    const int clusters = 1 + static_cast<int>(rng.below(6));
    const int perCluster = 3 + static_cast<int>(rng.below(40));
    const double jitter = trial % 3 == 0 ? 1e-3 : 1.0;
    std::vector<Point2> pts;
    for (int c = 0; c < clusters; ++c) {
      const Point2 center{rng.uniform(0, 1e6), rng.uniform(0, 1e6)};
      for (int i = 0; i < perCluster; ++i) {
        pts.push_back({center.x + rng.uniform(-jitter, jitter),
                       center.y + rng.uniform(-jitter, jitter)});
      }
    }
    expectMatchesReference(pts);
  }
}

TEST(DelaunayDifferential, MatchesReferenceOnIntegerGrids) {
  // Integer grids are full of cocircular quadruples, where the insertion
  // order picks the diagonal, and collinear runs; drawing with replacement
  // adds duplicates.
  glr::sim::Rng rng{37};
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(60));
    const auto side = 2 + rng.below(8);
    std::vector<Point2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({static_cast<double>(rng.below(side)),
                     static_cast<double>(rng.below(side))});
    }
    expectMatchesReference(pts);
  }
  // Whole grids of distinct points, up to 17 x 17 = 289, in shuffled
  // insertion orders.
  for (int trial = 0; trial < 40; ++trial) {
    const int w = 2 + static_cast<int>(rng.below(16));
    const int h = 2 + static_cast<int>(rng.below(16));
    std::vector<Point2> pts;
    for (int x = 0; x < w; ++x) {
      for (int y = 0; y < h; ++y) {
        pts.push_back({static_cast<double>(x), static_cast<double>(y)});
      }
    }
    for (std::size_t i = pts.size(); i > 1; --i) {
      std::swap(pts[i - 1], pts[rng.below(i)]);
    }
    expectMatchesReference(pts);
  }
}

TEST(DelaunayDifferential, MatchesReferenceOnCollinearSets) {
  glr::sim::Rng rng{41};
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 3 + static_cast<int>(rng.below(60));
    const Point2 dir{static_cast<double>(rng.below(5)) - 2.0,
                     static_cast<double>(rng.below(5)) - 2.0};
    std::vector<Point2> pts;
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<double>(rng.below(40));
      pts.push_back({7.0 + k * dir.x, -3.0 + k * dir.y});
    }
    // Every third set has one point off the line.
    if (trial % 3 == 0) pts.push_back({8.0 - dir.y, -3.0 + dir.x});
    expectMatchesReference(pts);
  }
}

TEST(ConvexHull, KnownSquare) {
  const std::vector<Point2> pts{{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}};
  const auto hull = convexHull(pts);
  EXPECT_EQ(hull.size(), 4u);
  const std::set<int> hullSet(hull.begin(), hull.end());
  EXPECT_EQ(hullSet, (std::set<int>{0, 1, 2, 3}));
}

TEST(ConvexHull, CollinearExcluded) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {2, 0}, {2, 2}};
  const auto hull = convexHull(pts);
  EXPECT_EQ(hull.size(), 3u);
  const std::set<int> hullSet(hull.begin(), hull.end());
  EXPECT_EQ(hullSet, (std::set<int>{0, 2, 3}));
}

}  // namespace
