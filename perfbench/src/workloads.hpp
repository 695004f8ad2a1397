#pragma once
/// \file workloads.hpp
/// The benchmark's workloads and the correctness checks every run passes.
///
/// A workload is a fixed scenario shape. One benchmark run simulates a
/// batch of replicate scenarios of that shape, replicate j using
/// `experiment::seedForRun(seed, j)`, so the inputs are a pure function of
/// the seed and replicate 0 is the seed itself.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "experiment/scenario.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  /// Replicate scenarios in one end-to-end run (the outcome metrics
  /// average over them, which is what keeps them steady across seeds).
  int batch;
  /// Replicate scenarios in one traced run (its untraced twin runs the
  /// same ones).
  int tracedBatch;
  /// Whether the GLR route check runs: true requires spanner and Delaunay
  /// calls in the trace, false requires none.
  bool routeChecks;
  glr::experiment::ScenarioConfig (*make)(std::uint64_t seed);
};

[[nodiscard]] std::span<const Workload> workloads();
/// Null when no workload has that name.
[[nodiscard]] const Workload* findWorkload(std::string_view name);

[[nodiscard]] glr::experiment::ScenarioConfig replicateConfig(
    const Workload& w, std::uint64_t seed, int j);

/// The pinned golden: the glr-paper shape at 400 s with 200 messages and
/// seed 7, which must give exactly the pinned outcomes whatever horizon
/// the timed runs use.
[[nodiscard]] glr::experiment::ScenarioConfig goldenConfig();
/// Empty when `r` is the pinned golden result, else what differs.
[[nodiscard]] std::string checkGolden(const glr::experiment::ScenarioResult& r);

/// Empty when `r` satisfies the checks every run must pass, else the first
/// failure: the conservation inequality, and at least ten deliveries
/// beyond each reported latency percentile.
[[nodiscard]] std::string checkResult(const glr::experiment::ScenarioResult& r);

}  // namespace perfbench
