// Tests for DSTD tree extraction (Max/Min/Mid progress next hops), the
// copy-count flags and Algorithm 1's decision rule.

#include <gtest/gtest.h>

#include "core/decision.hpp"
#include "sim/rng.hpp"
#include "core/trees.hpp"
#include "graph/graph.hpp"
#include "spanner/udg.hpp"

namespace {

using glr::core::decideCopyCount;
using glr::core::extractPath;
using glr::core::NetworkProfile;
using glr::core::ProgressNeighbor;
using glr::core::progressNeighbors;
using glr::core::selectNextHop;
using glr::core::treeFlagsForCopies;
using glr::dtn::TreeFlag;
using glr::geom::Point2;

using Nbrs = std::vector<std::pair<int, Point2>>;

TEST(Progress, OnlyStrictlyCloserNeighbors) {
  const Point2 self{0, 0}, dest{100, 0};
  const Nbrs nbrs{{1, {50, 0}},    // closer
                  {2, {-10, 0}},   // farther
                  {3, {0, 100}},   // equal-ish (dist ~141 > 100): farther
                  {4, {99, 0}}};   // much closer
  std::vector<ProgressNeighbor> c;
  progressNeighbors(self, dest, nbrs, c);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].id, 4);  // sorted by distance to destination
  EXPECT_EQ(c[1].id, 1);
}

TEST(Progress, EmptyWhenLocalMinimum) {
  const Point2 self{50, 50}, dest{50, 50};
  const Nbrs nbrs{{1, {60, 50}}, {2, {40, 50}}};
  std::vector<ProgressNeighbor> c{{9, {50, 50}, 0.0}};  // cleared first
  progressNeighbors(self, dest, nbrs, c);
  EXPECT_TRUE(c.empty());
}

TEST(Progress, DeterministicTieBreakById) {
  const Point2 self{0, 0}, dest{100, 0};
  const Nbrs nbrs{{7, {50, 10}}, {3, {50, -10}}};  // equidistant from dest
  std::vector<ProgressNeighbor> c;
  progressNeighbors(self, dest, nbrs, c);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].id, 3);
  EXPECT_EQ(c[1].id, 7);
}

TEST(SelectNextHop, MaxMinMid) {
  const Point2 self{0, 0}, dest{100, 0};
  const Nbrs nbrs{{1, {90, 0}}, {2, {70, 0}}, {3, {50, 0}},
                  {4, {30, 0}}, {5, {10, 0}}};
  std::vector<ProgressNeighbor> c;
  progressNeighbors(self, dest, nbrs, c);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(selectNextHop(TreeFlag::kMax, c)->id, 1);  // closest to dest
  EXPECT_EQ(selectNextHop(TreeFlag::kMin, c)->id, 5);  // least progress
  EXPECT_EQ(selectNextHop(TreeFlag::kMid, c)->id, 3);  // median
  EXPECT_EQ(selectNextHop(TreeFlag::kNone, c)->id, 1);  // greedy == max
}

TEST(SelectNextHop, MidVariantsPreferDistinctNeighbors) {
  const Point2 self{0, 0}, dest{100, 0};
  const Nbrs nbrs{{1, {90, 0}}, {2, {70, 0}}, {3, {50, 0}},
                  {4, {30, 0}}, {5, {10, 0}}};
  std::vector<ProgressNeighbor> c;
  progressNeighbors(self, dest, nbrs, c);
  const auto mid0 = selectNextHop(TreeFlag::kMid, c)->id;
  const auto mid1 =
      selectNextHop(static_cast<TreeFlag>(4), c)->id;  // first extra mid
  EXPECT_NE(mid0, mid1);
}

TEST(SelectNextHop, EmptyCandidates) {
  EXPECT_FALSE(selectNextHop(TreeFlag::kMax, {}).has_value());
}

TEST(SelectNextHop, SingleCandidateAlwaysChosen) {
  const Point2 self{0, 0}, dest{100, 0};
  std::vector<ProgressNeighbor> c;
  progressNeighbors(self, dest, {{9, {50, 0}}}, c);
  for (const auto f : {TreeFlag::kMax, TreeFlag::kMin, TreeFlag::kMid}) {
    EXPECT_EQ(selectNextHop(f, c)->id, 9);
  }
}

TEST(TreeFlags, CopiesMapping) {
  EXPECT_EQ(treeFlagsForCopies(1),
            (std::vector<TreeFlag>{TreeFlag::kMax}));
  EXPECT_EQ(treeFlagsForCopies(2),
            (std::vector<TreeFlag>{TreeFlag::kMax, TreeFlag::kMin}));
  EXPECT_EQ(treeFlagsForCopies(3),
            (std::vector<TreeFlag>{TreeFlag::kMax, TreeFlag::kMin,
                                   TreeFlag::kMid}));
  // More than three: extra Mid variants, all distinct.
  const auto f5 = treeFlagsForCopies(5);
  EXPECT_EQ(f5.size(), 5u);
  for (std::size_t i = 0; i < f5.size(); ++i) {
    for (std::size_t j = i + 1; j < f5.size(); ++j) {
      EXPECT_NE(f5[i], f5[j]);
    }
  }
  // Clamped at both ends.
  EXPECT_EQ(treeFlagsForCopies(0).size(), 1u);
  EXPECT_EQ(treeFlagsForCopies(99).size(),
            static_cast<std::size_t>(glr::core::kMaxCopies));
}

TEST(ExtractPath, MaxAndMinDifferOnLadder) {
  // A ladder where max-progress takes long rungs and min-progress short
  // ones, like the paper's Figure 2.
  std::vector<Point2> pts{
      {0, 0},     // 0 = source
      {40, 0},    // 1
      {80, 0},    // 2
      {120, 0},   // 3 = destination area
      {20, 15},   // 4 (small steps off axis)
      {55, 15},   // 5
      {95, 15},   // 6
  };
  const auto g = glr::spanner::buildUnitDiskGraph(pts, 45.0);
  const auto maxPath = extractPath(g, pts, 0, pts[3], TreeFlag::kMax);
  const auto minPath = extractPath(g, pts, 0, pts[3], TreeFlag::kMin);
  ASSERT_GE(maxPath.size(), 2u);
  ASSERT_GE(minPath.size(), 2u);
  EXPECT_EQ(maxPath.back(), 3);
  EXPECT_EQ(minPath.back(), 3);
  EXPECT_NE(maxPath, minPath);
  // Min path takes at least as many hops.
  EXPECT_GE(minPath.size(), maxPath.size());
}

TEST(ExtractPath, StopsAtLocalMinimum) {
  // Destination far to the right, graph only extends left.
  std::vector<Point2> pts{{0, 0}, {-40, 0}, {-80, 0}};
  const auto g = glr::spanner::buildUnitDiskGraph(pts, 50.0);
  const auto path = extractPath(g, pts, 0, Point2{500, 0}, TreeFlag::kMax);
  EXPECT_EQ(path, (std::vector<int>{0}));
}

TEST(ExtractPath, MonotoneDistanceDecrease) {
  std::vector<Point2> pts;
  glr::sim::Rng rng{5};
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(0, 500), rng.uniform(0, 500)});
  }
  const auto g = glr::spanner::buildUnitDiskGraph(pts, 120.0);
  const Point2 dest = pts[59];
  for (const auto flag : {TreeFlag::kMax, TreeFlag::kMin, TreeFlag::kMid}) {
    const auto path = extractPath(g, pts, 0, dest, flag);
    for (std::size_t i = 1; i < path.size(); ++i) {
      EXPECT_LT(glr::geom::dist(pts[path[i]], dest),
                glr::geom::dist(pts[path[i - 1]], dest))
          << "flag=" << static_cast<int>(flag) << " step " << i;
    }
  }
}

TEST(Decision, PaperCalibration) {
  // n=50, 1500x300: threshold ~133 m => 3 copies at 50/100, 1 at 150+.
  NetworkProfile net;
  for (const double r : {50.0, 100.0}) {
    net.radius = r;
    EXPECT_EQ(decideCopyCount(net), 3) << r;
  }
  for (const double r : {150.0, 200.0, 250.0}) {
    net.radius = r;
    EXPECT_EQ(decideCopyCount(net), 1) << r;
  }
}

TEST(Decision, SparseCopiesParameter) {
  NetworkProfile net;
  net.radius = 50.0;
  EXPECT_EQ(decideCopyCount(net, 5), 5);
}

}  // namespace
