/// \file bench_sweep.cpp
/// Scaling bench for the deterministic parallel experiment engine
/// (src/experiment/runner.hpp): runs the Table-3 custody grid — the
/// canonical two-config sweep every table/figure bench is now built on — at
/// 1/2/4/8 threads and reports scenarios/sec and speedup over the 1-thread
/// (serial) pool. Every thread count re-runs the same cells; results are
/// cross-checked cell-for-cell against the serial run, so the bench doubles
/// as the engine's determinism guard.
///
/// Usage: bench_sweep [--quick] [--threads a,b,...] [--out FILE.json]
///   --quick    CI mode: tiny cells, 1 vs 2 threads, determinism check only.
///   --threads  comma-separated thread counts (default 1,2,4,8).
///   --out      machine-readable results (default BENCH_sweep.json; see
///              README "Running paper sweeps in parallel").
///
/// Note: speedup is bounded by the host's online cores (reported as
/// hardware_concurrency in the JSON) — on a 1-core container every thread
/// count measures ~1x, and the interesting output is the determinism check.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/tables.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using glr::experiment::Protocol;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;

/// The Table-3 custody grid (890 messages, 50 m, 1200 s; custody off/on).
std::vector<ScenarioConfig> custodyGrid(bool quick) {
  std::vector<ScenarioConfig> grid;
  for (const bool custody : {false, true}) {
    ScenarioConfig cfg;
    cfg.protocol = Protocol::kGlr;
    cfg.radius = 50.0;
    cfg.custody = custody;
    if (quick) {
      cfg.numMessages = 60;
      cfg.simTime = 300.0;
    } else {
      cfg.numMessages = 890;
      cfg.simTime = 1200.0;
    }
    grid.push_back(cfg);
  }
  return grid;
}

struct Point {
  unsigned threads = 0;
  double wallSeconds = 0.0;
  double scenariosPerSec = 0.0;
  double speedup = 1.0;
  bool identical = true;  // vs the serial (1-thread) results
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_sweep.json";
  // Empty until parsing finishes: an explicit --threads list wins whatever
  // its position relative to --quick; the mode only picks the default.
  std::vector<unsigned> threadCounts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threadCounts.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v <= 0) break;
        threadCounts.push_back(static_cast<unsigned>(v));
        p = *end == ',' ? end + 1 : end;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--threads a,b,...] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (threadCounts.empty()) {
    threadCounts = quick ? std::vector<unsigned>{1, 2}
                         : std::vector<unsigned>{1, 2, 4, 8};
  }
  if (threadCounts.front() != 1) {
    threadCounts.insert(threadCounts.begin(), 1);  // serial baseline first
  }

  const std::vector<ScenarioConfig> grid = custodyGrid(quick);
  const int runs =
      glr::experiment::envInt("GLR_BENCH_RUNS", quick ? 2 : 8);
  const std::size_t cells = grid.size() * static_cast<std::size_t>(runs);
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("Sweep-engine bench (%s mode): Table-3 custody grid, "
              "%zu configs x %d seeds = %zu cells, host concurrency %u\n",
              quick ? "quick" : "full", grid.size(), runs, cells, hw);

  std::vector<std::vector<ScenarioResult>> serial;
  std::vector<Point> points;
  for (const unsigned t : threadCounts) {
    SweepRunner::Options opts;
    opts.threads = t;
    opts.label = "tab3-grid";
    SweepRunner runner{opts};

    const auto t0 = Clock::now();
    const auto results = runner.run(grid, runs);
    Point p;
    p.threads = t;
    p.wallSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
    p.scenariosPerSec = static_cast<double>(cells) / p.wallSeconds;

    if (serial.empty()) {
      serial = results;  // t == 1: the baseline
    } else {
      for (std::size_t g = 0; g < results.size(); ++g) {
        for (std::size_t s = 0; s < results[g].size(); ++s) {
          if (!glr::experiment::bitIdenticalIgnoringWall(results[g][s],
                                                         serial[g][s])) {
            p.identical = false;
          }
        }
      }
    }
    p.speedup = points.empty() ? 1.0 : points.front().wallSeconds / p.wallSeconds;
    points.push_back(p);

    std::printf("%2u thread(s): %6.2fs wall, %5.2f scenarios/s, "
                "speedup %4.2fx, results %s\n",
                p.threads, p.wallSeconds, p.scenariosPerSec, p.speedup,
                p.identical ? "bit-identical to serial" : "DIVERGED");
  }

  bool allIdentical = true;
  for (const Point& p : points) allIdentical = allIdentical && p.identical;
  if (!allIdentical) {
    std::fprintf(stderr, "FATAL: parallel sweep diverged from the serial "
                         "path — determinism contract broken\n");
    return 1;
  }

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"sweep\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  glr::bench::writeHostStamp(out);
  std::fprintf(out, "  \"grid\": \"table3-custody\",\n");
  std::fprintf(out, "  \"configs\": %zu,\n", grid.size());
  std::fprintf(out, "  \"seeds_per_config\": %d,\n", runs);
  std::fprintf(out, "  \"cells\": %zu,\n", cells);
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(out,
               "  \"note\": \"speedup is bounded by hardware_concurrency; "
               "cells are independent compute-bound scenarios, so "
               "scenarios/sec scales with online cores\",\n");
  std::fprintf(out, "  \"bit_identical_to_serial\": true,\n");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"threads\": %u, \"wall_seconds\": %.3f, "
                 "\"scenarios_per_sec\": %.3f, \"speedup\": %.3f}%s\n",
                 p.threads, p.wallSeconds, p.scenariosPerSec, p.speedup,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
