/// \file bench_scale.cpp
/// City-scale population sweep: how far the default simulator path (4-ary
/// heap kernel, spatial receiver index, population pre-sizing, table
/// eviction) carries the simulator on one machine.
///
/// Cells run at *constant density* (the area grows with the population, so
/// every node sees the paper's local picture) with a fixed small traffic
/// subset — the overwhelming majority of nodes are idle, so the recorded
/// resident bytes/node is effectively the idle-node footprint (see
/// kIdleBytesPerNodeCeiling). Per cell the JSON records events/sec and resident
/// bytes/node ((process peak RSS during the cell - RSS at cell start) /
/// nodes; cells run in ascending size so each cell owns the peak it sets).
/// The JSON also names the host and build the numbers were measured on.
///
/// Usage: bench_scale [--quick] [--nodes N] [--out FILE.json]
///   --quick   CI mode: 1k + 10k cells only, short horizons, and a hard
///             assert that the 10k cell stays under the committed
///             resident-bytes-per-node ceiling.
///   --nodes   run one extra cell at exactly N nodes (also GLR_BENCH_NODES).
///   --out     machine-readable results (default BENCH_scale.json).
/// Full mode sweeps 1k / 10k / 100k full runs plus a 1M-node smoke cell.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

// Sanitizer shadow memory multiplies RSS by an arbitrary factor, so the
// idle-memory ceiling is only meaningful in plain builds; sanitized CI legs
// still get the completion check.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define GLR_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GLR_BENCH_SANITIZED 1
#endif
#endif
#ifndef GLR_BENCH_SANITIZED
#define GLR_BENCH_SANITIZED 0
#endif

namespace {

using glr::bench::benchNodes;
using glr::bench::currentRssBytes;
using glr::bench::peakRssBytes;
using glr::bench::scalePopulation;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

/// Idle-node resident ceiling the scale path commits to (bytes/node),
/// asserted on every >=10k cell. The roadmap's aspirational figure is 1 KB;
/// the measured floor of the current architecture is ~2.6 KB of constructed
/// state per node (MAC 696 B including its inline recent-tx ring, GLR agent
/// ~1 KB, mobility model + world entry) plus ~2 KB of bounded steady-state
/// tables (the two-hop neighbor knowledge the LDTG construction needs,
/// location observations, MAC dedup) and the kernel's event arena. Measured
/// at 10k nodes: ~5.4 KB/node after 10 sim-s, saturating near ~6.2 KB at
/// 30 sim-s as the eviction horizons fill — so the committed, regression-
/// guarded budget is 7 KB. What the ceiling really polices is boundedness:
/// without table eviction the same cell measured 8.6 KB/node after 10 sim-s
/// and grew without bound (~350 B/node per sim-second); with it, growth
/// stops at the eviction horizon.
/// Closing the gap to 1 KB needs SoA-pooled agents/MACs (roadmap item).
constexpr double kIdleBytesPerNodeCeiling = 7168.0;

/// Base config every cell scales from: the paper's GLR setup with a fixed
/// small traffic subset (45 senders regardless of population) so added
/// nodes are idle relays.
ScenarioConfig baseConfig(int nodes, double simTime, int messages) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  cfg.seed = 7;
  scalePopulation(cfg, nodes);
  cfg.trafficNodes = std::min(nodes, 45);
  cfg.simTime = simTime;
  cfg.numMessages = messages;
  // Steady-state table bounds: without eviction every node accumulates a
  // record for everything it has ever heard (~300 B/node per sim-second at
  // city densities), which would swamp the idle-node budget on any long
  // horizon.
  cfg.neighborEvictAfterFactor = 2.0;
  cfg.locationEvictAfter = 15.0;
  return cfg;
}

struct Cell {
  int nodes = 0;
  double simTime = 0.0;
  ScenarioResult result;
  double wall = 0.0;
  double eventsPerSec = 0.0;
  double bytesPerNode = 0.0;
  bool smoke = false;  // 1M cell: completion matters, numbers are indicative
};

Cell runCell(int nodes, double simTime, int messages, bool smoke) {
  Cell c;
  c.nodes = nodes;
  c.simTime = simTime;
  c.smoke = smoke;
  const std::size_t rss0 = currentRssBytes();
  const auto wall0 = std::chrono::steady_clock::now();
  c.result = runScenario(baseConfig(nodes, simTime, messages));
  c.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall0)
               .count();
  const std::size_t hwm = peakRssBytes();
  c.eventsPerSec = static_cast<double>(c.result.eventsExecuted) / c.wall;
  c.bytesPerNode = hwm > rss0 ? static_cast<double>(hwm - rss0) /
                                    static_cast<double>(nodes)
                              : 0.0;
  std::printf(
      "%8d nodes  %6.1f sim-s  %10llu events  %7.2f wall-s  "
      "%8.0f ev/s  %7.1f B/node%s\n",
      nodes, simTime,
      static_cast<unsigned long long>(c.result.eventsExecuted), c.wall,
      c.eventsPerSec, c.bytesPerNode, smoke ? "  [smoke]" : "");
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int extraNodes = benchNodes(0);
  std::string outPath = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      extraNodes = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--nodes N] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("scale bench (%s mode)\n", quick ? "quick" : "full");

  // Ascending cell sizes so each cell's RSS high-water delta is its own.
  std::vector<Cell> cells;
  if (quick) {
    cells.push_back(runCell(1000, 20.0, 40, false));
    cells.push_back(runCell(10000, 10.0, 40, false));
  } else {
    cells.push_back(runCell(1000, 60.0, 60, false));
    cells.push_back(runCell(10000, 30.0, 60, false));
    cells.push_back(runCell(100000, 10.0, 60, false));
  }
  if (extraNodes >= 2) {
    cells.push_back(runCell(extraNodes, quick ? 10.0 : 20.0, 40, false));
  }
  if (!quick) {
    // 1M-node smoke: construction + a short event horizon; completing at
    // all (and under the idle-memory ceiling) is the acceptance bar.
    cells.push_back(runCell(1000000, 1.5, 0, true));
  }

  // Idle-memory ceiling: meaningful from 10k nodes up (smaller cells are
  // dominated by fixed per-run overhead, not per-node state).
  bool memOk = true;
  for (const Cell& c : cells) {
    if (GLR_BENCH_SANITIZED != 0) {
      std::printf("idle-memory ceiling skipped (sanitized build)\n");
      break;
    }
    if (c.nodes < 10000 || c.bytesPerNode <= 0.0) continue;
    if (c.bytesPerNode > kIdleBytesPerNodeCeiling) {
      std::fprintf(stderr,
                   "bench_scale: %d-node cell resident %.1f bytes/node "
                   "exceeds the %.0f B idle ceiling\n",
                   c.nodes, c.bytesPerNode, kIdleBytesPerNodeCeiling);
      memOk = false;
    }
  }
  if (!memOk) return 1;

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"scale\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  glr::bench::writeHostStamp(out);
  std::fprintf(out, "  \"idle_bytes_per_node_ceiling\": %.0f,\n",
               kIdleBytesPerNodeCeiling);
  std::fprintf(out, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(out,
                 "    {\"nodes\": %d, \"sim_seconds\": %.1f, "
                 "\"events\": %llu, \"wall_seconds\": %.2f, "
                 "\"events_per_sec\": %.0f, "
                 "\"resident_bytes_per_node\": %.1f, \"smoke\": %s}%s\n",
                 c.nodes, c.simTime,
                 static_cast<unsigned long long>(c.result.eventsExecuted),
                 c.wall, c.eventsPerSec, c.bytesPerNode,
                 c.smoke ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
