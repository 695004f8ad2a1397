#pragma once
/// \file scenario.hpp
/// End-to-end scenario runner reproducing the paper's simulation setup
/// (Table 1): 50 nodes, 1500 m x 300 m, random waypoint 0-20 m/s with zero
/// pause, 1 Mbps 802.11-like MAC with queue limit 150, two-ray ground
/// propagation, 1000-byte payloads, 45 traffic endpoints generating one
/// message per second.
///
/// A scenario is a pure function of (config, seed): every subsystem draws
/// from a forked RNG stream, so runs are reproducible and protocols can be
/// compared on identical topologies and traffic.

#include <cstdint>
#include <string>
#include <vector>

#include "core/glr_agent.hpp"
#include "dtn/buffer.hpp"
#include "experiment/traffic.hpp"
#include "mobility/registry.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"

namespace glr::experiment {

enum class Protocol {
  kGlr,
  kEpidemic,
  kDirectDelivery,  // extension baseline: source waits to meet destination
  kSprayAndWait,    // extension baseline: binary spray with copy budget
};

[[nodiscard]] const char* protocolName(Protocol p);

/// Which mobility model drives the nodes, selected by registry name
/// (mobility/registry.hpp) so a sweep's mobility axis is just a vector of
/// strings. Model knobs live on the embedded mobility::ModelParams and go
/// to the factory verbatim — no hand-copied field list to forget — EXCEPT
/// params.area / params.speedMin / params.speedMax / params.pause, which
/// runScenario always overlays from ScenarioConfig (setting them here has
/// no effect), and params.home, which is overlaid per node from the drawn
/// cluster centres only when model == "cluster" (custom home-based models
/// receive the verbatim value for every node). The default reproduces the
/// paper's random waypoint bit-identically.
struct MobilitySpec {
  std::string model = "waypoint";
  int numClusters = 4;  // cluster: how many shared home points to draw
  mobility::ModelParams params;
};

/// Duty-cycled node churn: the embedded net::ChurnProcess::Params go to
/// the churn layer verbatim (fraction/upMean/downMean/start — see
/// net/churn.hpp). Disabled by default — the default scenario stays
/// bit-identical to the paper setup.
struct ChurnSpec {
  bool enabled = false;
  net::ChurnProcess::Params params;
};

/// Named churn levels for sweep grids: "none", "light", "moderate",
/// "heavy". Throws std::invalid_argument for anything else.
[[nodiscard]] ChurnSpec churnPreset(const std::string& name);

/// Fault injection: the embedded net::FaultProcess::Params go to the fault
/// layer verbatim (burst loss, frame corruption, stuck-node stalls — see
/// net/faults.hpp). Disabled by default — the default scenario stays
/// bit-identical to the paper setup.
struct FaultSpec {
  bool enabled = false;
  net::FaultProcess::Params params;
};

struct ScenarioConfig {
  Protocol protocol = Protocol::kGlr;

  // Topology / radio (paper Table 1).
  int numNodes = 50;
  double areaWidth = 1500.0;
  double areaHeight = 300.0;
  double radius = 100.0;      // transmission range, 50-250 m
  double speedMin = 0.1;      // "0-20 m/s uniform" with a positive floor
  double speedMax = 20.0;
  double pause = 0.0;
  double bitRateBps = 1e6;
  std::size_t queueLimit = 150;

  // Scenario diversity: pluggable mobility, node churn, heterogeneous
  // radios. Per-node transmit ranges are radius * U[radiusSpreadMin,
  // radiusSpreadMax]; 1.0/1.0 (default) keeps the homogeneous radio and
  // draws nothing.
  MobilitySpec mobility;
  ChurnSpec churn;
  double radiusSpreadMin = 1.0;
  double radiusSpreadMax = 1.0;

  // Workload. `traffic` selects the arrival process: the default "paper"
  // model replays the fixed shuffled-pair schedule below bit-identically;
  // the stochastic models (poisson/onoff/hotspot/flashcrowd) read
  // traffic.rate and their own knobs instead of numMessages /
  // messageInterval and can offer millions of messages per run.
  double simTime = 3800.0;
  int numMessages = 1980;
  double messageInterval = 1.0;  // "packets are generated every second"
  double trafficStart = 10.0;    // let neighbor tables converge first
  int trafficNodes = 45;         // paper: 45 senders/destinations out of 50
  TrafficSpec traffic;

  // Fault injection (off by default).
  FaultSpec faults;

  // Protocol knobs.
  std::size_t storageLimit = dtn::kUnlimitedStorage;
  double checkInterval = 0.9;
  bool custody = true;
  bool faceRouting = true;
  bool witnessRule = true;
  int copiesOverride = -1;  // -1: Algorithm 1 decides
  core::LocationMode locationMode = core::LocationMode::kSourceKnows;
  double helloInterval = 0.75;
  double cacheTimeout = 6.0;
  int sprayBudget = 8;  // kSprayAndWait only
  /// GLR overload controls (see GlrParams): buffer occupancy at which a
  /// node refuses new custody (0 = never, the historical default), and the
  /// AIMD custody window driven by the custody-ack RTT estimator.
  std::size_t custodyWatermark = 0;
  bool congestionControl = false;
  /// Adversarial-resilience knobs (all off by default — bit-identical
  /// goldens). glrRecovery arms GLR's custody-failure detection: suspicion
  /// scoring on custody timeouts/NACKs, suspect-avoiding reroute, and the
  /// bounded spray fallback for copies that keep failing. messageTtl > 0
  /// gives bundles a lifetime (counted expiry drops) for every protocol.
  /// Misbehaving-node populations ride in faults.params.adversary.
  /// Detector tuning for glrRecovery (GlrParams defaults; see
  /// core/glr_agent.hpp): custody failures on a hop before it is marked
  /// suspect, and failures on a copy before the spray fallback clones it.
  bool glrRecovery = false;
  int glrSuspicionThreshold = 2;
  int glrRecoveryAfterFailures = 3;
  int glrRecoveryFanout = 2;
  double glrRecoveryCooldown = 15.0;
  double glrSuspicionTtl = 120.0;
  double messageTtl = 0.0;

  // Scaling-path knobs (city-scale worlds). Defaults keep every pinned
  // golden bit-identical; bench_scale and the scale tests flip them.
  /// Steady-state table eviction for long/large runs (0 = keep forever,
  /// the historical default): neighbor records stale beyond
  /// `neighborEvictAfterFactor * hello expiry` are erased, and GLR location
  /// observations older than `locationEvictAfter` seconds are pruned. Both
  /// bound an idle node's footprint by its active neighborhood instead of
  /// by everything it has ever heard.
  double neighborEvictAfterFactor = 0.0;
  double locationEvictAfter = 0.0;

  // Observability (all off by default — bit-identical goldens, zero-alloc
  // hot path). tracePath non-empty arms the flight recorder: every
  // send/delivery/custody/drop/expiry/suspicion event is streamed through a
  // fixed SPSC ring (traceRingCapacity records, rounded up to a power of
  // two) to a length-prefixed binary file a writer thread owns — see
  // trace/recorder.hpp; inspect with tools/trace_inspect. nodeCountersPath
  // non-empty exports per-node MAC/protocol/storage counters at scenario
  // end; the format follows the extension (".json" or ".csv").
  std::string tracePath;
  std::size_t traceRingCapacity = 1 << 16;
  std::string nodeCountersPath;

  // Crash safety (see checkpoint/scenario_checkpoint.hpp). checkpointPath
  // non-empty + checkpointEvery > 0 snapshots the full simulation state
  // every checkpointEvery sim-seconds (atomic replace, so a crash leaves
  // the previous snapshot intact). restoreFrom non-empty resumes from such
  // a snapshot and continues bit-identically to the uninterrupted run.
  // checkpointEvery changes the event sequence (the writer is a simulated
  // event) and is therefore part of the config digest; the paths are not.
  std::string checkpointPath;
  double checkpointEvery = 0.0;
  std::string restoreFrom;
  /// Watchdog: abort the run with sim::WallClockTimeout after this many
  /// wall-clock seconds (0 = no deadline). Host timing only — never part of
  /// the simulated event sequence or the checkpoint config digest.
  double wallDeadlineSeconds = 0.0;

  std::uint64_t seed = 1;
};

struct ScenarioResult {
  // Delivery metrics (paper's headline numbers).
  std::size_t created = 0;
  std::size_t delivered = 0;
  double deliveryRatio = 0.0;
  double avgLatency = 0.0;  // seconds, delivered messages only
  double avgHops = 0.0;

  // Storage metrics (Tables 4/5): message-count peaks over nodes.
  double maxPeakStorage = 0.0;
  double avgPeakStorage = 0.0;

  // Network-layer health.
  std::uint64_t macDataTx = 0;
  std::uint64_t macQueueDrops = 0;
  std::uint64_t macRetryDrops = 0;
  std::uint64_t macRadioDownDrops = 0;  // churn: sends lost to a down radio
  std::uint64_t macAckTimeouts = 0;     // ACK waits that expired
  std::uint64_t macBusyDeferrals = 0;   // attempts deferred on busy medium
  std::uint64_t collisions = 0;
  double airTimeSeconds = 0.0;
  std::uint64_t faultFrameDrops = 0;  // deliveries suppressed by faults
  std::uint64_t duplicateDeliveries = 0;
  std::uint64_t perturbations = 0;

  // Protocol internals, harvested via routing::DtnAgent::harvestCounters.
  // GLR fills every field; epidemic reports its data/duplicate traffic;
  // other protocols leave what they don't track at zero.
  std::uint64_t glrDataSent = 0;
  std::uint64_t glrDataReceived = 0;
  std::uint64_t glrDuplicatesDropped = 0;
  std::uint64_t glrCustodyAcksSent = 0;
  std::uint64_t glrCustodyAcksReceived = 0;
  std::uint64_t glrCacheTimeouts = 0;
  std::uint64_t glrTxFailures = 0;
  std::uint64_t glrFaceTransitions = 0;

  // Overload accounting, reported by every protocol: sends the MAC queue
  // finally refused, storage-pressure buffer evictions, and custody
  // transfers refused under the watermark (GLR only). All zero in an
  // unsaturated run.
  std::uint64_t sendRejects = 0;
  std::uint64_t bufferEvictions = 0;
  std::uint64_t custodyRefusals = 0;

  // Adversarial resilience. The adv* fields count misbehavior at the
  // adversary layer (every blackhole/greyhole discard lands in exactly one
  // of them — no uncounted loss); the glr* fields count the recovery
  // sublayer's reactions. expiredDrops counts TTL expiries across all
  // protocols; bufferedAtEnd is the copies still held by agents when the
  // scenario ends and macQueueAtEnd the frames still sitting in MAC queues
  // (a copy can end the run in flight), closing the conservation inequality
  //   created <= delivered + bufferedAtEnd + macQueueAtEnd + counted drops.
  // All zero when the corresponding knobs are off.
  std::uint64_t advBlackholeDrops = 0;
  std::uint64_t advGreyholeDrops = 0;
  std::uint64_t advSelfishRefusals = 0;
  std::uint64_t advFlapTransitions = 0;
  std::uint64_t glrSuspicionsRaised = 0;
  std::uint64_t glrSuspectSkips = 0;
  std::uint64_t glrRecoveryActivations = 0;
  std::uint64_t glrRecoverySprays = 0;
  std::uint64_t expiredDrops = 0;
  std::uint64_t bufferedAtEnd = 0;
  std::uint64_t macQueueAtEnd = 0;

  // First-delivery latency distribution, read from the online sketches
  // (stats/sketch.hpp) — bounded memory at any message count. Quantiles are
  // t-digest estimates (exact below the sketch's buffer size); min/max/
  // stddev come from the exact streaming moments. All zero when nothing is
  // delivered.
  double latencyP50 = 0.0;
  double latencyP90 = 0.0;
  double latencyP99 = 0.0;
  double latencyMin = 0.0;
  double latencyMax = 0.0;
  double latencyStddev = 0.0;

  // Observability: flight-recorder records written (0 with tracing off).
  // Deterministic — a pure function of the simulated event sequence.
  std::uint64_t traceEventsRecorded = 0;

  // Run health.
  std::uint64_t eventsExecuted = 0;
  double wallSeconds = 0.0;
};

/// Runs one scenario to completion and collects results.
[[nodiscard]] ScenarioResult runScenario(const ScenarioConfig& cfg);

/// Runs `runs` replicate seeds of the same configuration across the
/// deterministic parallel engine (runner.hpp): cells execute on
/// GLR_BENCH_THREADS workers (default hardware_concurrency) and land in
/// replicate order, so the returned vector is identical to a serial loop at
/// any thread count.
[[nodiscard]] std::vector<ScenarioResult> runScenarioSeeds(
    ScenarioConfig cfg, int runs);

/// Projects one metric across runs (for confidence intervals).
[[nodiscard]] std::vector<double> metricAcross(
    const std::vector<ScenarioResult>& rs, double ScenarioResult::*field);

}  // namespace glr::experiment
