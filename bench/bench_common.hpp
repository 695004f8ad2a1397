#pragma once
/// \file bench_common.hpp
/// Shared support for the paper-reproduction benches.
///
/// Every bench prints the paper's reported numbers next to our measured
/// `mean ± CI90` so the shape comparison is one glance. Default scale is
/// reduced for wall-clock sanity (fewer seeds, shorter horizon, fewer
/// messages); set GLR_PAPER_SCALE=1 for the paper's full parameters and
/// GLR_BENCH_RUNS=<n> to override the seed count.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "experiment/tables.hpp"
#include "stats/summary.hpp"

namespace glr::bench {

using experiment::fmt;
using experiment::fmtCI;
using experiment::fmtPct;
using experiment::paperScale;
using experiment::Protocol;
using experiment::runScenarioSeeds;
using experiment::ScenarioConfig;
using experiment::ScenarioResult;

/// Aggregated multi-seed results with 90% confidence intervals.
struct Agg {
  stats::ConfidenceInterval ratio;
  stats::ConfidenceInterval latency;
  stats::ConfidenceInterval hops;
  stats::ConfidenceInterval maxPeak;
  stats::ConfidenceInterval avgPeak;
  double collisions = 0;
  double wallSeconds = 0;
};

inline Agg aggregate(const std::vector<ScenarioResult>& rs) {
  Agg a;
  a.ratio = stats::meanCI(
      experiment::metricAcross(rs, &ScenarioResult::deliveryRatio));
  a.latency =
      stats::meanCI(experiment::metricAcross(rs, &ScenarioResult::avgLatency));
  a.hops =
      stats::meanCI(experiment::metricAcross(rs, &ScenarioResult::avgHops));
  a.maxPeak = stats::meanCI(
      experiment::metricAcross(rs, &ScenarioResult::maxPeakStorage));
  a.avgPeak = stats::meanCI(
      experiment::metricAcross(rs, &ScenarioResult::avgPeakStorage));
  for (const auto& r : rs) {
    a.collisions += static_cast<double>(r.collisions) / rs.size();
    a.wallSeconds += r.wallSeconds;
  }
  return a;
}

inline Agg runAgg(const ScenarioConfig& cfg, int runs) {
  return aggregate(runScenarioSeeds(cfg, runs));
}

/// Declarative sweep: a bench lists every row's config up front, the
/// engine executes the whole (grid x seeds) cell set across
/// GLR_BENCH_THREADS workers, and the Aggs come back in grid order — one
/// per config, aggregated post-join from index-ordered results so the
/// printed `mean ± CI` is bit-identical to the old hand-rolled serial
/// loops at any thread count.
inline std::vector<Agg> sweepAgg(const std::vector<ScenarioConfig>& grid,
                                 int runs, const char* label = "sweep") {
  experiment::SweepRunner::Options opts;  // default thread count; the
  opts.progress = true;                   // runner caps workers at the
  opts.label = label;                     // cell count itself
  experiment::SweepRunner runner{opts};
  std::vector<Agg> out;
  out.reserve(grid.size());
  for (const auto& rs : runner.run(grid, runs)) out.push_back(aggregate(rs));
  return out;
}

/// Paper Table 1 defaults, scaled down unless GLR_PAPER_SCALE=1.
inline ScenarioConfig benchConfig(Protocol p, double radius) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.radius = radius;
  if (paperScale()) {
    cfg.numMessages = 1980;
    cfg.simTime = 3800.0;
  } else {
    cfg.numMessages = 400;
    cfg.simTime = 1200.0;
  }
  return cfg;
}

inline int defaultRuns() { return experiment::benchRuns(2); }

/// Reads one "<key>:  <n> kB" line from /proc/self/status; 0 if absent
/// (non-Linux platforms — the scale bench then skips its memory asserts).
inline std::size_t procStatusBytes(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  const std::size_t keyLen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, keyLen) == 0 && line[keyLen] == ':') {
      kb = std::strtoull(line + keyLen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

/// Peak resident set size of this process so far (VmHWM).
inline std::size_t peakRssBytes() { return procStatusBytes("VmHWM"); }
/// Current resident set size (VmRSS).
inline std::size_t currentRssBytes() { return procStatusBytes("VmRSS"); }

/// First line of `cmd`'s standard output (empty if it fails or prints
/// nothing), with the trailing newline removed.
inline std::string firstLineOf(const char* cmd) {
  std::FILE* p = popen(cmd, "r");
  if (p == nullptr) return "";
  char line[256] = {};
  const bool got = std::fgets(line, sizeof line, p) != nullptr;
  pclose(p);
  if (!got) return "";
  std::string s{line};
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

/// Writes the host and build identity as JSON members (each line
/// `  "key": value,`) so numbers from different machines are never
/// compared silently. `git_sha` is read at run time from the checkout the
/// bench runs in; "-dirty" marks uncommitted changes to tracked files.
inline void writeHostStamp(std::FILE* out) {
  std::string cpu;
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) break;
      for (const char* c = colon + 1; *c != '\0' && *c != '\n'; ++c) {
        if (*c == '"' || *c == '\\') continue;  // keep the JSON string valid
        if (cpu.empty() && *c == ' ') continue;
        cpu.push_back(*c);
      }
      break;
    }
    std::fclose(f);
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "g++ " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
#ifdef GLR_BUILD_TYPE
  const char* buildType = GLR_BUILD_TYPE;
#else
  const char* buildType = "unknown";
#endif
  std::string sha = firstLineOf("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) {
    sha = "unknown";
  } else if (!firstLineOf("git status --porcelain --untracked-files=no "
                          "2>/dev/null")
                  .empty()) {
    sha += "-dirty";
  }
  std::fprintf(out, "  \"cpu_model\": \"%s\",\n", cpu.c_str());
  std::fprintf(out, "  \"online_cores\": %ld,\n",
               sysconf(_SC_NPROCESSORS_ONLN));
  std::fprintf(out, "  \"compiler\": \"%s\",\n", compiler);
  std::fprintf(out, "  \"build_type\": \"%s\",\n", buildType);
  std::fprintf(out, "  \"git_sha\": \"%s\",\n", sha.c_str());
}

/// Node-count override shared by the benches: GLR_BENCH_NODES in the
/// environment, typically mirrored by a --nodes flag. Returns `fallback`
/// when unset or unparseable.
inline int benchNodes(int fallback) {
  const char* env = std::getenv("GLR_BENCH_NODES");
  if (env == nullptr || *env == '\0') return fallback;
  const long v = std::strtol(env, nullptr, 10);
  return v >= 2 ? static_cast<int>(v) : fallback;
}

/// Rescales a scenario to `nodes` at constant node density: the area grows
/// with the population (aspect ratio preserved) and the traffic subset
/// keeps its share. Radio range, speeds and the rest are untouched, so the
/// local picture every node sees — expected degree, contact rate — matches
/// the base config at any population.
inline void scalePopulation(ScenarioConfig& cfg, int nodes) {
  if (nodes == cfg.numNodes) return;
  const double grow =
      static_cast<double>(nodes) / static_cast<double>(cfg.numNodes);
  const double lin = std::sqrt(grow);
  cfg.areaWidth *= lin;
  cfg.areaHeight *= lin;
  const double trafficShare = static_cast<double>(cfg.trafficNodes) /
                              static_cast<double>(cfg.numNodes);
  cfg.trafficNodes = std::max(
      2, std::min(nodes, static_cast<int>(trafficShare * nodes)));
  cfg.numNodes = nodes;
}

inline void banner(const char* title, const char* paperRef) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper reference: %s\n", paperRef);
  std::printf("Scale: %s (GLR_PAPER_SCALE=1 for full scale), %d seed(s), "
              "up to %u thread(s) (GLR_BENCH_THREADS; capped at the cell "
              "count)\n",
              paperScale() ? "paper" : "reduced", defaultRuns(),
              experiment::ThreadPool::defaultThreads());
  std::printf("================================================================\n");
}

}  // namespace glr::bench
