// perfbench: runs one workload's replicate scenarios and prints one JSON
// line per scenario run, then a closing line with the process's peak
// resident memory. run.py builds this program, drives it and turns the
// lines into metrics; see README.md.
//
//   perfbench --list
//       Prints one JSON line per workload: name, batch, traced batch.
//   perfbench --golden
//       Runs the pinned golden scenario; exits 1 unless it reproduces.
//   perfbench --workload NAME --seed N --seconds S
//       Runs replicates 0..batch-1 once each, then repeats them in order
//       until S host seconds have passed (at least one repeat). Every
//       repeat must be bit-identical to the replicate's first run. About
//       once a second, between runs, it also times the reference kernel
//       (calibration.hpp) and prints {"calib_s": ...}.
//   perfbench_traced --workload NAME --seed N --count K
//       Runs replicates 0..K-1 twice each, back to back in alternating
//       order: once with spans recorded and once without. The two results
//       must be bit-identical.
//
// Built twice: `perfbench` and `perfbench_traced`. The traced binary
// (PERFBENCH_TRACED) also records spans around each layer's entry points,
// checks their coverage and balance, and adds them to every line.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "run_hook.hpp"
#include "span_tracker.hpp"
#include "spanner/ldtg.hpp"
#include "workloads.hpp"

namespace {

using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using perfbench::Workload;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

long long peakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

// Which boundaries a workload must reach: all of them, except that a
// workload without route checks must make no spanner or Delaunay calls.
std::string checkCoverage(const Workload& w,
                          const perfbench::SpanTracker& t) {
  using namespace perfbench;
  for (int b = 0; b < kNumBoundaries; ++b) {
    const bool routeCheck = b == kSpanner || b == kDelaunay;
    const std::uint64_t calls = t.stats(b).calls;
    if (routeCheck && !w.routeChecks && calls != 0) {
      return std::string{"unexpected calls to "} + kBoundaryNames[b];
    }
    if ((!routeCheck || w.routeChecks) && calls == 0) {
      return std::string{"no calls recorded at "} + kBoundaryNames[b];
    }
  }
  if (!t.balanced()) {
    return "span self times do not sum to the root span's inclusive time";
  }
  return {};
}

struct Outcome {
  ScenarioResult result;
  std::string error;
  double setupS = 0.0;
  double runS = 0.0;
};

// Runs one scenario and checks its result. Set-up and Simulator::run are
// timed in thread CPU time. Spans go to `tracker` when it is not null.
Outcome runChecked(const ScenarioConfig& cfg, perfbench::SpanTracker* tracker) {
  Outcome out;
  try {
    perfbench::gRunClock = {};
    perfbench::gTracker = tracker;
    const std::int64_t startNs = perfbench::cpuNs();
    out.result = glr::experiment::runScenario(cfg);
    perfbench::gTracker = nullptr;
    const perfbench::RunClock& clock = perfbench::gRunClock;
    out.setupS = static_cast<double>(clock.enterNs - startNs) * 1e-9;
    out.runS = static_cast<double>(clock.exitNs - clock.enterNs) * 1e-9;
    out.error = perfbench::checkResult(out.result);
    if (out.error.empty() && clock.calls != 1) {
      out.error = "Simulator::run was not entered exactly once";
    }
  } catch (const std::exception& e) {
    perfbench::gTracker = nullptr;
    out.error = std::string{"threw: "} + e.what();
  }
  return out;
}

// Prints a run's line without its closing brace, so the caller can add
// fields. The spanner memo counters are the last scenario's: runScenario
// resets them.
void printRecord(int j, int rep, const ScenarioConfig& cfg, const Outcome& o) {
  const ScenarioResult& r = o.result;
  const glr::spanner::SpannerCacheStats memo =
      glr::spanner::localSpannerCacheStats();
  std::printf(
      "{\"j\":%d,\"rep\":%d,\"seed\":%" PRIu64 ",\"ok\":%s,\"error\":\"%s\","
      "\"setup_s\":%.9f,\"run_s\":%.9f,\"sim_s\":%.17g,"
      "\"events\":%" PRIu64 ",\"created\":%zu,\"delivered\":%zu,"
      "\"latency_p50_s\":%.17g,\"latency_p90_s\":%.17g,"
      "\"collisions\":%" PRIu64 ",\"mac_queue_drops\":%" PRIu64
      ",\"buffer_evictions\":%" PRIu64 ",\"send_rejects\":%" PRIu64
      ",\"custody_refusals\":%" PRIu64 ",\"memo_hits\":%" PRIu64
      ",\"memo_misses\":%" PRIu64,
      j, rep, cfg.seed, o.error.empty() ? "true" : "false",
      jsonEscape(o.error).c_str(), o.setupS, o.runS, cfg.simTime,
      r.eventsExecuted, r.created, r.delivered, r.latencyP50, r.latencyP90,
      r.collisions, r.macQueueDrops, r.bufferEvictions, r.sendRejects,
      r.custodyRefusals, memo.hits, memo.misses);
}

// Runs replicate j once and prints its line. A repeat must match the
// replicate's `first` result bit for bit.
Outcome runOne(const Workload& w, std::uint64_t seed, int j, int rep,
               const ScenarioResult* first) {
  const ScenarioConfig cfg = perfbench::replicateConfig(w, seed, j);
  Outcome out = runChecked(cfg, nullptr);
  if (out.error.empty() && first != nullptr &&
      !glr::experiment::bitIdenticalIgnoringWall(*first, out.result)) {
    out.error = "repeat is not bit-identical to the first run";
  }
  printRecord(j, rep, cfg, out);
  std::printf("}\n");
  std::fflush(stdout);
  return out;
}

// Runs replicate j with spans recorded and without, back to back, and
// prints one line: the traced run's, with the untraced run's time beside
// it. The order alternates with j, so warm-up falls on both sides alike.
bool runTwin(const Workload& w, std::uint64_t seed, int j) {
  const ScenarioConfig cfg = perfbench::replicateConfig(w, seed, j);
  perfbench::SpanTracker tracker;
  Outcome plain;
  Outcome traced;
  if (j % 2 == 0) {
    plain = runChecked(cfg, nullptr);
    traced = runChecked(cfg, &tracker);
  } else {
    traced = runChecked(cfg, &tracker);
    plain = runChecked(cfg, nullptr);
  }
  std::string& error = traced.error;
  if (error.empty()) error = plain.error;
  if (error.empty() &&
      !glr::experiment::bitIdenticalIgnoringWall(plain.result, traced.result)) {
    error = "traced run is not bit-identical to the untraced run";
  }
  if (error.empty()) error = checkCoverage(w, tracker);

  printRecord(j, 0, cfg, traced);
  std::printf(",\"untraced_run_s\":%.9f,\"allocs_under_root\":%" PRIu64
              ",\"spans\":{",
              plain.runS, tracker.allocsUnderRoot());
  for (int b = 0; b < perfbench::kNumBoundaries; ++b) {
    const perfbench::BoundaryStats& s = tracker.stats(b);
    std::printf("%s\"%s\":{\"calls\":%" PRIu64 ",\"self_s\":%.9f,"
                "\"incl_s\":%.9f,\"allocs\":%" PRIu64 "}",
                b == 0 ? "" : ",", perfbench::kBoundaryNames[b], s.calls,
                static_cast<double>(s.selfNs) * 1e-9,
                static_cast<double>(s.inclNs) * 1e-9, s.allocs);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return error.empty();
}

int runGolden() {
  std::string error;
  ScenarioResult r;
  try {
    r = glr::experiment::runScenario(perfbench::goldenConfig());
    error = perfbench::checkGolden(r);
    if (error.empty()) error = perfbench::checkResult(r);
  } catch (const std::exception& e) {
    error = std::string{"threw: "} + e.what();
  }
  std::printf("{\"golden\":true,\"ok\":%s,\"error\":\"%s\",\"events\":%" PRIu64
              ",\"delivered\":%zu,\"created\":%zu,\"latency_p50_s\":%.17g}\n",
              error.empty() ? "true" : "false", jsonEscape(error).c_str(),
              r.eventsExecuted, r.delivered, r.created, r.latencyP50);
  return error.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --list\n"
               "       perfbench --golden\n"
               "       perfbench --workload NAME --seed N --seconds S\n"
               "       perfbench_traced --workload NAME --seed N --count K\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--golden" || key == "--list") {
      args[key] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return usage();
    }
  }
  if (args.count("--golden") != 0) return runGolden();
  if (args.count("--list") != 0) {
    for (const Workload& w : perfbench::workloads()) {
      std::printf("{\"name\":\"%s\",\"batch\":%d,\"traced_batch\":%d}\n",
                  w.name, w.batch, w.tracedBatch);
    }
    return 0;
  }

  const char* const mode = kTraced ? "--count" : "--seconds";
  const Workload* w = perfbench::findWorkload(args["--workload"]);
  if (w == nullptr || args.count("--seed") == 0 || args.count(mode) == 0) {
    return usage();
  }
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);

  int failed = 0;
  if (kTraced) {
    const int count = std::atoi(args["--count"].c_str());
    for (int j = 0; j < count; ++j) failed += !runTwin(*w, seed, j);
  } else {
    const double seconds = std::atof(args["--seconds"].c_str());
    const std::int64_t deadline =
        perfbench::nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t nextCalibration = 0;
    auto calibrate = [&nextCalibration] {
      if (perfbench::nowNs() < nextCalibration) return;
      std::printf("{\"calib_s\":%.9f}\n", perfbench::referenceKernelSeconds());
      nextCalibration = perfbench::nowNs() + 1000000000;
    };
    std::vector<ScenarioResult> first;
    for (int j = 0; j < w->batch; ++j) {
      calibrate();
      Outcome o = runOne(*w, seed, j, 0, nullptr);
      failed += !o.error.empty();
      first.push_back(o.result);
    }
    for (int k = 0; k == 0 || perfbench::nowNs() < deadline; ++k) {
      calibrate();
      const int j = k % w->batch;
      failed += !runOne(*w, seed, j, 1 + k / w->batch, &first[j]).error.empty();
    }
  }
  std::printf("{\"done\":true,\"failed\":%d,\"peak_rss_kb\":%lld}\n", failed,
              peakRssKb());
  return failed == 0 ? 0 : 1;
}
