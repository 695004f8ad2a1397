// Tests for the Bowyer–Watson Delaunay triangulation: correctness of the
// empty-circumcircle property, degenerate inputs, duplicates, and structural
// invariants (Euler's formula, hull edges present), and the one-scan edge
// test (Delaunay::edgeStatus) against full builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "geometry/delaunay.hpp"
#include "geometry/point.hpp"
#include "geometry/predicates.hpp"
#include "sim/rng.hpp"

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
