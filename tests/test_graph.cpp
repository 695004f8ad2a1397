// Tests for the graph module: adjacency bookkeeping, BFS/Dijkstra,
// components, planarity checking and stretch factors.

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph.hpp"
#include "graph/id_slot_index.hpp"
#include "geometry/point.hpp"

namespace {

using glr::geom::Point2;
using glr::graph::bfsHops;
using glr::graph::componentCount;
using glr::graph::connectedComponents;
using glr::graph::dijkstra;
using glr::graph::DisjointSet;
using glr::graph::Graph;
using glr::graph::IdSlotIndex;
using glr::graph::isConnected;
using glr::graph::isPlanarEmbedding;
using glr::graph::kInfDist;
using glr::graph::stretchFactor;

TEST(Graph, AddEdgeBasics) {
  Graph g{4};
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  EXPECT_EQ(g.numEdges(), 2u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(1, 0));
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, DuplicateAndSelfLoopIgnored) {
  Graph g{3};
  g.addEdge(0, 1);
  g.addEdge(1, 0);
  g.addEdge(0, 0);
  EXPECT_EQ(g.numEdges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, OutOfRangeThrows) {
  Graph g{2};
  EXPECT_THROW(g.addEdge(0, 2), std::out_of_range);
  EXPECT_THROW(g.addEdge(-1, 0), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(5), std::out_of_range);
}

TEST(Graph, EdgesListIsCanonical) {
  Graph g{4};
  g.addEdge(2, 0);
  g.addEdge(3, 1);
  const auto es = g.edges();
  ASSERT_EQ(es.size(), 2u);
  for (const auto& [u, v] : es) EXPECT_LT(u, v);
}

TEST(BfsHops, PathGraph) {
  Graph g{5};
  for (int i = 0; i < 4; ++i) g.addEdge(i, i + 1);
  const auto h = bfsHops(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(h[i], i);
}

TEST(BfsHops, UnreachableIsMinusOne) {
  Graph g{4};
  g.addEdge(0, 1);
  const auto h = bfsHops(g, 0);
  EXPECT_EQ(h[2], -1);
  EXPECT_EQ(h[3], -1);
}

TEST(Dijkstra, TriangleShortcut) {
  // 0-1-2 path vs direct 0-2 edge: geometry decides.
  Graph g{3};
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(0, 2);
  const std::vector<Point2> pos{{0, 0}, {1, 1}, {2, 0}};
  const auto d = dijkstra(g, pos, 0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);  // direct edge wins over 2*sqrt(2)
  EXPECT_DOUBLE_EQ(d[0], 0.0);
}

TEST(Dijkstra, DisconnectedInfinite) {
  Graph g{3};
  g.addEdge(0, 1);
  const std::vector<Point2> pos{{0, 0}, {1, 0}, {9, 9}};
  const auto d = dijkstra(g, pos, 0);
  EXPECT_EQ(d[2], kInfDist);
}

TEST(Dijkstra, SizeMismatchThrows) {
  Graph g{3};
  const std::vector<Point2> pos{{0, 0}};
  EXPECT_THROW((void)dijkstra(g, pos, 0), std::invalid_argument);
}

TEST(Components, LabelsAndCount) {
  Graph g{6};
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(3, 4);
  const auto labels = connectedComponents(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[5], labels[0]);
  EXPECT_NE(labels[5], labels[3]);
  EXPECT_EQ(componentCount(g), 3u);
  EXPECT_FALSE(isConnected(g));
  g.addEdge(2, 3);
  g.addEdge(4, 5);
  EXPECT_TRUE(isConnected(g));
}

TEST(Components, EmptyAndSingletonConnected) {
  EXPECT_TRUE(isConnected(Graph{0}));
  EXPECT_TRUE(isConnected(Graph{1}));
}

TEST(Planarity, CrossingDetected) {
  Graph g{4};
  g.addEdge(0, 1);
  g.addEdge(2, 3);
  const std::vector<Point2> cross{{0, 0}, {2, 2}, {0, 2}, {2, 0}};
  EXPECT_FALSE(isPlanarEmbedding(g, cross));
  const std::vector<Point2> apart{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  EXPECT_TRUE(isPlanarEmbedding(g, apart));
}

TEST(Planarity, SharedEndpointAllowed) {
  Graph g{3};
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  const std::vector<Point2> pos{{0, 0}, {1, 1}, {2, 0}};
  EXPECT_TRUE(isPlanarEmbedding(g, pos));
}

TEST(Stretch, CompleteGraphIsOne) {
  Graph g{3};
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(0, 2);
  const std::vector<Point2> pos{{0, 0}, {1, 0}, {0.5, 1}};
  EXPECT_DOUBLE_EQ(stretchFactor(g, pos), 1.0);
}

TEST(Stretch, DetourMeasured) {
  // 0 and 2 connected only via 1, which sits off the line.
  Graph g{3};
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  const std::vector<Point2> pos{{0, 0}, {1, 1}, {2, 0}};
  EXPECT_DOUBLE_EQ(stretchFactor(g, pos), std::sqrt(2.0));
}

TEST(DisjointSet, UniteAndFind) {
  DisjointSet ds{5};
  EXPECT_EQ(ds.setCount(), 5u);
  EXPECT_TRUE(ds.unite(0, 1));
  EXPECT_TRUE(ds.unite(2, 3));
  EXPECT_FALSE(ds.unite(1, 0));
  EXPECT_EQ(ds.setCount(), 3u);
  EXPECT_EQ(ds.find(0), ds.find(1));
  EXPECT_NE(ds.find(0), ds.find(2));
  EXPECT_TRUE(ds.unite(1, 3));
  EXPECT_EQ(ds.find(0), ds.find(2));
  EXPECT_EQ(ds.setCount(), 2u);
}

TEST(IdSlotIndex, FindsInsertedIdsUntilCleared) {
  IdSlotIndex index;
  EXPECT_EQ(index.find(3), -1);  // a new index is empty
  index.insert(3, 0);
  index.insert(40, 1);
  index.insert(-2, 2);
  EXPECT_EQ(index.find(3), 0);
  EXPECT_EQ(index.find(40), 1);
  EXPECT_EQ(index.find(-2), 2);
  EXPECT_EQ(index.find(4), -1);
  EXPECT_EQ(index.find(1000), -1);
  EXPECT_EQ(index.find(-1), -1);
  index.clear();
  for (int id : {3, 40, -2}) EXPECT_EQ(index.find(id), -1) << id;
  index.insert(40, 7);
  EXPECT_EQ(index.find(40), 7);
  EXPECT_EQ(index.find(3), -1);
}

}  // namespace
