#pragma once
/// \file scenario_checkpoint.hpp
/// Whole-scenario snapshot/restore orchestration.
///
/// A checkpoint captures everything a mid-run scenario owns that is not a
/// pure function of (config, seed): the kernel clock and pending-event set
/// (the kernel's event records under their (time, seq) keys — see
/// sim/event_kinds.hpp), the
/// channel history ring, every node's MAC and routing-agent state, the
/// churn/fault/traffic processes and the metrics sketches. Restoring into a
/// freshly constructed scenario of the SAME config continues the run
/// bit-identically: construction-derived state (positions, per-node RNG
/// forks, spatial index) is rebuilt by construction, serialized state
/// overwrites every mutable field, and the pending event records are
/// copied back under their exact original keys.
///
/// Mismatches refuse loudly: a checkpoint restored into a different
/// configuration (digest), an unsupported version, a truncated or corrupt
/// file, or an event record whose owning component is absent all throw
/// std::runtime_error naming the defect.

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "sim/simulator.hpp"

namespace glr::net {
class World;
class ChurnProcess;
class FaultProcess;
}
namespace glr::dtn {
class MetricsCollector;
}
namespace glr::routing {
class DtnAgent;
}
namespace glr::experiment {
class TrafficProcess;
}

namespace glr::ckpt {

/// Live components of one running scenario, wired up by runScenario.
/// Null pointers mean "this config does not build that component" — the
/// writer skips the section and the reader enforces agreement.
struct ScenarioComponents {
  sim::Simulator* sim = nullptr;
  net::World* world = nullptr;
  const experiment::ScenarioConfig* cfg = nullptr;
  const std::vector<routing::DtnAgent*>* agents = nullptr;
  dtn::MetricsCollector* metrics = nullptr;
  net::ChurnProcess* churn = nullptr;             // null unless churn enabled
  net::FaultProcess* faults = nullptr;            // null unless faults enabled
  experiment::TrafficProcess* traffic = nullptr;  // null for the "paper" model
};

/// Digest over every ScenarioConfig field that shapes the simulated event
/// sequence. Output paths (tracePath, nodeCountersPath, checkpointPath,
/// restoreFrom) and the trace ring size are excluded; checkpointEvery is
/// INCLUDED because the periodic writer event is part of the sequence.
[[nodiscard]] std::uint64_t configDigest(const experiment::ScenarioConfig& cfg);

/// Snapshots the full scenario state to `path` (atomic tmp+rename).
void writeCheckpoint(const std::string& path, const ScenarioComponents& c);

/// Restores `path` into a freshly built scenario. Must run after every
/// component is constructed and started (their initial events are cleared)
/// and before Simulator::run. Refuses a digest mismatch, a version or
/// integrity defect, tracing armed on the restored run, a clock that is not
/// a finite non-negative time, pending events out of strict (time, seq)
/// order, or any event record whose kind has no handler here or whose
/// fields name something this scenario lacks.
void restoreCheckpoint(const std::string& path, const ScenarioComponents& c);

}  // namespace glr::ckpt
