#include "workloads.hpp"

#include <array>
#include <cmath>
#include <cstdio>

#include "experiment/runner.hpp"

namespace perfbench {
namespace {

using glr::experiment::Protocol;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

// The paper's Table-1 GLR setup on the paper traffic schedule (one message
// a second from t = 10 s), sized to 250 s with 120 messages: the last one
// has 120 s to drain. Shorter replicates than the 400 s golden give more
// of them per run, which steadies the averages across seeds.
ScenarioConfig glrPaper(std::uint64_t seed) {
  ScenarioConfig c;
  c.protocol = Protocol::kGlr;
  c.simTime = 250.0;
  c.numMessages = 120;
  c.seed = seed;
  return c;
}

// Epidemic routing on a street grid with duty-cycled nodes: no route
// checks at all, but full-copy buffers, a busy MAC and churn events. The
// 190 s after the last message lets most copies drain.
ScenarioConfig epidemicManhattanChurn(std::uint64_t seed) {
  ScenarioConfig c;
  c.protocol = Protocol::kEpidemic;
  c.mobility.model = "manhattan";
  c.churn = glr::experiment::churnPreset("moderate");
  c.simTime = 600.0;
  c.numMessages = 400;
  c.seed = seed;
  return c;
}

// GLR in overload: Poisson arrivals far above what the network carries,
// small buffers, custody refusal and AIMD congestion control.
ScenarioConfig glrSaturated(std::uint64_t seed) {
  ScenarioConfig c;
  c.protocol = Protocol::kGlr;
  c.traffic.model = "poisson";
  c.traffic.rate = 50.0;
  c.storageLimit = 40;
  c.custodyWatermark = 20;
  c.congestionControl = true;
  c.simTime = 60.0;
  c.seed = seed;
  return c;
}

// Batches are sized so that one pass over them takes about half of a 36 s
// run on a 4-core Xeon, leaving the other half for the timed repeats.
constexpr std::array<Workload, 3> kWorkloads = {{
    {"glr-paper", 30, 16, true, glrPaper},
    {"epidemic-manhattan-churn", 80, 50, false, epidemicManhattanChurn},
    {"glr-saturated", 40, 24, true, glrSaturated},
}};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* findWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ScenarioConfig replicateConfig(const Workload& w, std::uint64_t seed, int j) {
  return w.make(glr::experiment::seedForRun(seed, j));
}

ScenarioConfig goldenConfig() {
  ScenarioConfig c = glrPaper(7);
  c.simTime = 400.0;
  c.numMessages = 200;
  return c;
}

std::string checkGolden(const ScenarioResult& r) {
  char buf[256];
  const double p50 = std::round(r.latencyP50 * 100.0) / 100.0;
  if (r.eventsExecuted != 2385279u || r.created != 200u ||
      r.delivered != 198u || p50 != 19.27) {
    std::snprintf(buf, sizeof buf,
                  "golden mismatch: events %llu created %zu delivered %zu "
                  "p50 %.4f (want 2385279, 200, 198, 19.27)",
                  static_cast<unsigned long long>(r.eventsExecuted), r.created,
                  r.delivered, r.latencyP50);
    return buf;
  }
  return {};
}

std::string checkResult(const ScenarioResult& r) {
  const std::uint64_t countedDrops =
      r.advBlackholeDrops + r.advGreyholeDrops + r.advSelfishRefusals +
      r.bufferEvictions + r.expiredDrops + r.macQueueDrops + r.macRetryDrops +
      r.macRadioDownDrops;
  if (r.created > r.delivered + r.bufferedAtEnd + r.macQueueAtEnd +
                      countedDrops) {
    return "conservation violated: more messages created than delivered, "
           "held or dropped";
  }
  // p90 is the highest percentile reported; ten deliveries beyond it need
  // at least a hundred deliveries.
  if (r.delivered < 100) {
    return "fewer than 100 deliveries: latency_p90 has under ten samples "
           "beyond it";
  }
  return {};
}

}  // namespace perfbench
