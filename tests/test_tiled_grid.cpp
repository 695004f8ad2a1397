// Property tests for the incremental tiled spatial index: queries over the
// recorded point set must be bit-identical to a from-scratch SpatialGrid
// built over the same recorded positions — across every registered mobility
// model and under partial refresh where recorded positions have mixed
// staleness. Plus the channel-level pin: a World whose channel enumerates
// broadcast receivers through the index must deliver exactly what the
// unindexed full scan delivers, under mobility and radio churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/spatial_grid.hpp"
#include "geometry/tiled_grid.hpp"
#include "mac/channel.hpp"
#include "mac/mac.hpp"
#include "mobility/mobility.hpp"
#include "mobility/registry.hpp"
#include "net/packet.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::geom::Point2;
using glr::geom::SpatialGrid;
using glr::geom::TiledSpatialGrid;
using glr::sim::Rng;

constexpr double kW = 1000.0;
constexpr double kH = 400.0;
constexpr double kRadius = 110.0;

/// Sorted ids within `radius` of `center` per the incremental grid.
std::vector<int> tiledQuery(const TiledSpatialGrid& grid, Point2 center,
                            double radius) {
  std::vector<int> out;
  grid.queryRadius(center, radius, out);
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted ids within `radius` of `center` per a from-scratch SpatialGrid
/// built over exactly the grid's live recorded positions.
std::vector<int> scratchQuery(const TiledSpatialGrid& grid, Point2 center,
                              double radius) {
  std::vector<int> ids;
  std::vector<Point2> pts;
  for (int i = 0; i < static_cast<int>(grid.capacity()); ++i) {
    if (!grid.contains(i)) continue;
    ids.push_back(i);
    pts.push_back(grid.recordedPos(i));
  }
  SpatialGrid fresh{std::move(pts), radius};
  std::vector<int> idx;
  fresh.queryRadius(center, radius, idx);
  std::vector<int> out;
  out.reserve(idx.size());
  for (int k : idx) out.push_back(ids[static_cast<std::size_t>(k)]);
  std::sort(out.begin(), out.end());
  return out;
}

void expectMatchesScratch(const TiledSpatialGrid& grid, Rng& rng,
                          const std::string& label) {
  for (int q = 0; q < 12; ++q) {
    const Point2 center{rng.uniform(-50.0, kW + 50.0),
                        rng.uniform(-50.0, kH + 50.0)};
    const double radius = rng.uniform(0.0, kRadius);
    EXPECT_EQ(tiledQuery(grid, center, radius),
              scratchQuery(grid, center, radius))
        << label << " center (" << center.x << ", " << center.y
        << ") radius " << radius;
  }
}

TEST(TiledSpatialGrid, MatchesScratchRebuildAcrossAllMobilityModels) {
  constexpr int kNodes = 70;
  for (const std::string& model : glr::mobility::mobilityModelNames()) {
    glr::mobility::ModelParams params;
    params.area = {kW, kH};
    params.speedMin = 0.5;
    params.speedMax = 20.0;
    params.pause = 0.5;
    Rng master{static_cast<std::uint64_t>(
        std::hash<std::string>{}(model) | 1u)};
    params.home = {kW / 2.0, kH / 2.0};

    std::vector<std::unique_ptr<glr::mobility::MobilityModel>> nodes;
    TiledSpatialGrid grid{{0.0, 0.0}, {kW, kH}, kRadius, kNodes};
    Rng placement = master.fork(1);
    for (int i = 0; i < kNodes; ++i) {
      const Point2 start = glr::mobility::randomPosition(params.area,
                                                         placement);
      nodes.push_back(glr::mobility::makeMobilityModel(
          model, params, start, master.fork(100 + i)));
      grid.update(i, start, 0.0);
    }

    Rng queryRng = master.fork(3);
    for (int step = 1; step <= 20; ++step) {
      const double t = 0.7 * step;
      // Partial refresh — only a staggered third of the nodes re-record
      // each step, so recorded positions have mixed staleness when the
      // comparison runs.
      for (int i = 0; i < kNodes; ++i) {
        if ((i + step) % 3 == 0) {
          grid.update(i, nodes[static_cast<std::size_t>(i)]->positionAt(t),
                      t);
        }
      }
      expectMatchesScratch(grid, queryRng, model + " step " +
                                               std::to_string(step));
    }
  }
}

TEST(TiledSpatialGrid, HandlesPointsOutsideConstructionBounds) {
  TiledSpatialGrid grid{{0.0, 0.0}, {100.0, 100.0}, 25.0, 8};
  // Points beyond the bounds clamp into edge tiles but keep exact recorded
  // positions, so membership answers stay exact.
  grid.update(0, {-40.0, 50.0}, 0.0);
  grid.update(1, {140.0, 50.0}, 0.0);
  grid.update(2, {50.0, 50.0}, 0.0);
  std::vector<int> out;
  grid.queryRadius({-35.0, 50.0}, 10.0, out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  out.clear();
  grid.queryRadius({50.0, 50.0}, 300.0, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(TiledSpatialGrid, RelinkKeepsListsConsistent) {
  TiledSpatialGrid grid{{0.0, 0.0}, {100.0, 100.0}, 10.0, 16};
  Rng rng{99};
  std::vector<int> live;
  for (int op = 0; op < 2000; ++op) {
    const int i = static_cast<int>(rng.below(16));
    grid.update(i, {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)},
                static_cast<double>(op));
    if (std::find(live.begin(), live.end(), i) == live.end()) {
      live.insert(std::upper_bound(live.begin(), live.end(), i), i);
    }
    // Full-area query must see exactly the live set, each point once.
    std::vector<int> out;
    grid.queryRadius({50.0, 50.0}, 1000.0, out);
    std::sort(out.begin(), out.end());
    ASSERT_EQ(out, live);
  }
}

// ---------------------------------------------------------------------------
// Channel receiver index vs. the unindexed full scan.
// ---------------------------------------------------------------------------

/// One received broadcast, as the receiving node's MAC reports it.
struct Reception {
  double time;
  int from;
  std::string tag;
  bool operator==(const Reception&) const = default;
};

struct BroadcastRun {
  std::vector<std::vector<Reception>> perReceiver;
  glr::mac::ChannelStats stats;
};

/// Drives random broadcasts from every node of a mobile, churning World and
/// logs what each node receives. `indexed` routes broadcast receiver
/// enumeration through the channel's spatial index; everything else
/// (seeds, schedule, mobility) is identical between the two settings.
BroadcastRun runBroadcasts(const std::string& model, bool indexed) {
  constexpr int kNodes = 80;
  constexpr double kSpeedMax = 20.0;
  constexpr double kSimTime = 60.0;
  glr::sim::Simulator sim;
  glr::phy::TwoRayGround propagation;
  glr::phy::RadioParams radio;
  radio.nominalRange = kRadius;
  glr::net::World world{sim, propagation, radio, glr::mac::MacParams{}};

  glr::mobility::ModelParams params;
  params.area = {kW, kH};
  params.speedMin = 1.0;
  params.speedMax = kSpeedMax;
  params.pause = 0.5;
  params.home = {kW / 2.0, kH / 2.0};
  Rng master{
      static_cast<std::uint64_t>(std::hash<std::string>{}(model) | 1u)};
  Rng placement = master.fork(1);
  BroadcastRun run;
  run.perReceiver.resize(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    const Point2 start = glr::mobility::randomPosition(params.area, placement);
    const int id = world.addNode(
        glr::mobility::makeMobilityModel(model, params, start,
                                         master.fork(100 + i)),
        master.fork(200 + i));
    world.macOf(id).setReceiveCallback(
        [&run, &sim, id](const glr::net::Packet& p, int from) {
          run.perReceiver[static_cast<std::size_t>(id)].push_back(
              {sim.now(), from, p.kind});
        });
  }
  if (indexed) world.enableSpatialIndex(kSpeedMax, 0.5);

  // Each node broadcasts at exponential intervals; a churn process toggles
  // random radios so receivers drop in and out mid-frame.
  Rng traffic = master.fork(2);
  int nextTag = 0;
  for (int i = 0; i < kNodes; ++i) {
    for (double t = traffic.exponential(1.0); t < kSimTime;
         t += traffic.exponential(1.0)) {
      const std::string tag = std::to_string(nextTag++);
      sim.scheduleAt(t, [&world, i, tag] {
        glr::net::Packet p;
        p.bytes = 64;
        p.kind = tag;
        world.macOf(i).send(std::move(p), glr::net::kBroadcast);
      });
    }
  }
  Rng churn = master.fork(3);
  for (double t = 0.25; t < kSimTime; t += 0.25) {
    const int i = static_cast<int>(churn.below(kNodes));
    sim.scheduleAt(t, [&world, i] {
      world.setRadioUp(i, !world.macOf(i).radioUp());
    });
  }
  sim.run(kSimTime);
  run.stats = world.channel().stats();
  return run;
}

TEST(ReceiverIndex, DeliveriesMatchFullScanUnderMobilityAndChurn) {
  for (const char* model : {"waypoint", "gauss_markov"}) {
    const BroadcastRun scan = runBroadcasts(model, false);
    const BroadcastRun indexed = runBroadcasts(model, true);
    for (std::size_t v = 0; v < scan.perReceiver.size(); ++v) {
      const auto& a = scan.perReceiver[v];
      const auto& b = indexed.perReceiver[v];
      const auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
      EXPECT_TRUE(diff.first == a.end() && diff.second == b.end())
          << model << " receiver " << v << ": logs of " << a.size()
          << " and " << b.size() << " receptions first differ at "
          << (diff.first - a.begin());
    }
    EXPECT_EQ(scan.stats.framesSent, indexed.stats.framesSent) << model;
    EXPECT_EQ(scan.stats.framesDelivered, indexed.stats.framesDelivered)
        << model;
    EXPECT_EQ(scan.stats.collisions, indexed.stats.collisions) << model;
    EXPECT_EQ(scan.stats.rxWhileTx, indexed.stats.rxWhileTx) << model;
    EXPECT_EQ(scan.stats.faultDrops, indexed.stats.faultDrops) << model;
    EXPECT_EQ(scan.stats.airTimeSeconds, indexed.stats.airTimeSeconds)
        << model;
    // The workload must exercise what it compares.
    EXPECT_GT(scan.stats.framesDelivered, 1000u) << model;
    EXPECT_GT(scan.stats.collisions, 0u) << model;
  }
}

}  // namespace
