#include "checkpoint/scenario_checkpoint.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "checkpoint/codec.hpp"
#include "checkpoint/file.hpp"
#include "dtn/metrics.hpp"
#include "experiment/traffic.hpp"
#include "mac/mac.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"
#include "net/world.hpp"
#include "routing/dtn_agent.hpp"
#include "sim/event_kinds.hpp"

namespace glr::ckpt {

namespace {

/// Section ids (on-disk format: append-only, never renumber).
enum SectionId : std::uint32_t {
  kSectionEvents = 1,   // pending (time, seq, desc) records, fire order
  kSectionChannel = 2,  // transmission history ring + stats
  kSectionNodes = 3,    // per node: MAC then routing agent
  kSectionChurn = 4,    // present iff churn is enabled
  kSectionFaults = 5,   // present iff fault injection is enabled
  kSectionTraffic = 6,  // present iff a stochastic traffic model runs
  kSectionMetrics = 7,  // delivery bitmaps, counters, latency sketches
};

void digestMobility(Encoder& e, const experiment::MobilitySpec& m) {
  e.str(m.model);
  e.i32(m.numClusters);
  const mobility::ModelParams& p = m.params;
  // area/speedMin/speedMax/pause are overlaid from ScenarioConfig (already
  // digested); home is overlaid per node from the cluster stream.
  e.f64(p.legDuration);
  e.f64(p.updateInterval);
  e.f64(p.alpha);
  e.f64(p.meanSpeed);
  e.f64(p.gridSpacing);
  e.f64(p.turnProb);
  e.f64(p.clusterStddev);
  e.f64(p.roamProb);
}

void digestTraffic(Encoder& e, const experiment::TrafficSpec& t) {
  e.str(t.model);
  e.f64(t.rate);
  e.u64(t.maxMessages);
  e.f64(t.onMean);
  e.f64(t.offMean);
  e.f64(t.hotspotFraction);
  e.f64(t.hotspotWeight);
  e.f64(t.flashStart);
  e.f64(t.flashDuration);
  e.f64(t.flashMultiplier);
}

void digestFaults(Encoder& e, const experiment::FaultSpec& f) {
  e.boolean(f.enabled);
  const net::FaultProcess::Params& p = f.params;
  e.f64(p.start);
  e.f64(p.burstRate);
  e.f64(p.burstMean);
  e.f64(p.lossProb);
  e.f64(p.corruptProb);
  e.f64(p.stallRate);
  e.f64(p.stallMean);
  const net::AdversaryModel::Params& a = p.adversary;
  e.f64(a.blackholeFraction);
  e.f64(a.greyholeFraction);
  e.f64(a.greyholeDropProb);
  e.f64(a.selfishFraction);
  e.f64(a.flappingFraction);
  e.f64(a.flapUpMean);
  e.f64(a.flapDownMean);
}

/// Runs `fill` into a fresh encoder and returns the bytes.
template <class Fill>
[[nodiscard]] std::vector<unsigned char> encoded(Fill&& fill) {
  Encoder e;
  fill(e);
  return e.take();
}

[[nodiscard]] bool hasSection(const CheckpointFile& f, std::uint32_t id) {
  for (const Section& s : f.sections) {
    if (s.id == id) return true;
  }
  return false;
}

/// Loud agreement check between a config-built component and a section.
void requireAgreement(bool componentPresent, bool sectionPresent,
                      const char* what, const std::string& path) {
  if (componentPresent == sectionPresent) return;
  throw std::runtime_error{std::string{"checkpoint "} + path + ": " + what +
                           (sectionPresent
                                ? " section present but the configuration "
                                  "does not build that component"
                                : " component built but its section is "
                                  "missing from the checkpoint")};
}

/// What a restored pending-event record must satisfy beyond its kind having
/// a handler in this scenario (churn, fault, traffic and checkpoint-timer
/// kinds are registered only when their component is built, flap events
/// only with an adversary model, and protocol timers only by their agent
/// type). One row per kind, indexed by kind; see sim/event_kinds.hpp for
/// what each field means.
enum class Ref : std::uint8_t {
  kNone,    // unchecked
  kNode,    // a node id: [0, population)
  kTx,      // a transmission id: [0, transmissions started)
  kChurn,   // a churning-node index: [0, churning nodes)
  kSource,  // an ON/OFF traffic source index: [0, sources)
};
struct RecordRule {
  Ref i0 = Ref::kNone;
  Ref i1 = Ref::kNone;
  Ref u0 = Ref::kNone;
  bool treeFlagB0 = false;  // b0 is a dtn::TreeFlag (0..3)
  bool macTimer = false;    // the node's MAC holds a handle to the event
  bool durationF0 = false;  // f0 is a finite non-negative duration
};
constexpr RecordRule kNodeEvent{Ref::kNode};
constexpr RecordRule kMacTimer{Ref::kNode, Ref::kNone, Ref::kNone, false,
                               true};
constexpr RecordRule kAckReply{Ref::kNode, Ref::kNode, Ref::kNone, false,
                               false, true};
constexpr RecordRule kRecordRules[sim::kLibraryKindEnd] = {
    {},                                         // kNone
    {Ref::kNone, Ref::kNone, Ref::kTx},         // kChannelTxEnd
    kMacTimer,                                  // kMacAttempt
    kMacTimer,                                  // kMacBackoffExpire
    kNodeEvent,                                 // kMacTxEnd
    kMacTimer,                                  // kMacAckTimeout
    kAckReply,                                  // kMacAckReply
    kNodeEvent,                                 // kHello
    kNodeEvent,                                 // kAgentStart
    {Ref::kNone, Ref::kNone, Ref::kChurn},      // kChurnToggle
    {},                                         // kFaultBurstNext
    {},                                         // kFaultBurstEnd
    {},                                         // kFaultStallNext
    kNodeEvent,                                 // kFaultStallEnd
    kNodeEvent,                                 // kFaultFlap
    kNodeEvent,                                 // kGlrPeriodicCheck
    kNodeEvent,                                 // kGlrQueuedCheck
    {Ref::kNode, Ref::kNode, Ref::kNone, true},  // kGlrAckRetry
    {Ref::kNode, Ref::kNode, Ref::kNone, true},  // kGlrCustodyTimer
    kNodeEvent,                                 // kEpidemicExchange
    kNodeEvent,                                 // kSprayExpiry
    kNodeEvent,                                 // kDirectCheck
    {Ref::kNode, Ref::kNode},                   // kTrafficPaperArrival
    {},                                         // kTrafficArrival
    {Ref::kNone, Ref::kNone, Ref::kSource},     // kTrafficSourceToggle
    {Ref::kNone, Ref::kNone, Ref::kSource},     // kTrafficSourceArrival
    {},                                         // kCheckpointTimer
};

/// Refuses (through `d`) a record restore must not schedule: an unknown or
/// unregistered kind, a field naming something this scenario lacks, or a
/// tree flag out of range.
void checkRecord(const ScenarioComponents& c, const sim::EventDesc& e,
                 Decoder& d) {
  if (e.kind >= sim::kLibraryKindEnd || !c.sim->handles(e.kind)) {
    d.fail("event kind " + std::to_string(e.kind) +
           " is unknown or has no owner in this scenario (its churn, fault, "
           "traffic, adversary, protocol or checkpoint component is not "
           "built)");
  }
  const RecordRule& rule = kRecordRules[e.kind];
  const auto within = [&](Ref ref, std::int64_t v, const char* field) {
    std::int64_t bound = 0;
    switch (ref) {
      case Ref::kNone:
        return;
      case Ref::kNode:
        bound = static_cast<std::int64_t>(c.agents->size());
        break;
      case Ref::kTx:
        bound = static_cast<std::int64_t>(
            c.world->channel().transmissionsStarted());
        break;
      case Ref::kChurn:
        bound = static_cast<std::int64_t>(c.churn->churningNodes());
        break;
      case Ref::kSource:
        bound = static_cast<std::int64_t>(c.traffic->sourceCount());
        break;
    }
    if (v < 0 || v >= bound) {
      d.fail("event kind " + std::to_string(e.kind) + " field " + field +
             " = " + std::to_string(v) + " is outside [0, " +
             std::to_string(bound) + ")");
    }
  };
  within(rule.i0, e.i0, "i0");
  within(rule.i1, e.i1, "i1");
  // u0 bounds are far below 2^63, so a larger value reads as negative and
  // is refused with the rest.
  within(rule.u0, static_cast<std::int64_t>(e.u0), "u0");
  if (rule.treeFlagB0 && e.b0 > 3) {
    d.fail("event kind " + std::to_string(e.kind) + " has tree flag " +
           std::to_string(e.b0));
  }
  if (rule.durationF0 && !(e.f0 >= 0.0 && std::isfinite(e.f0))) {
    d.fail("event kind " + std::to_string(e.kind) + " has duration " +
           std::to_string(e.f0));
  }
}

}  // namespace

std::uint64_t configDigest(const experiment::ScenarioConfig& cfg) {
  Encoder e;
  e.u16(1);  // digest schema version
  e.i32(static_cast<std::int32_t>(cfg.protocol));
  e.i32(cfg.numNodes);
  e.f64(cfg.areaWidth);
  e.f64(cfg.areaHeight);
  e.f64(cfg.radius);
  e.f64(cfg.speedMin);
  e.f64(cfg.speedMax);
  e.f64(cfg.pause);
  e.f64(cfg.bitRateBps);
  e.size(cfg.queueLimit);
  digestMobility(e, cfg.mobility);
  e.boolean(cfg.churn.enabled);
  e.f64(cfg.churn.params.fraction);
  e.f64(cfg.churn.params.upMean);
  e.f64(cfg.churn.params.downMean);
  e.f64(cfg.churn.params.start);
  e.f64(cfg.radiusSpreadMin);
  e.f64(cfg.radiusSpreadMax);
  e.f64(cfg.simTime);
  e.i32(cfg.numMessages);
  e.f64(cfg.messageInterval);
  e.f64(cfg.trafficStart);
  e.i32(cfg.trafficNodes);
  digestTraffic(e, cfg.traffic);
  digestFaults(e, cfg.faults);
  e.size(cfg.storageLimit);
  e.f64(cfg.checkInterval);
  e.boolean(cfg.custody);
  e.boolean(cfg.faceRouting);
  e.boolean(cfg.witnessRule);
  e.i32(cfg.copiesOverride);
  e.i32(static_cast<std::int32_t>(cfg.locationMode));
  e.f64(cfg.helloInterval);
  e.f64(cfg.cacheTimeout);
  e.i32(cfg.sprayBudget);
  e.size(cfg.custodyWatermark);
  e.boolean(cfg.congestionControl);
  e.boolean(cfg.glrRecovery);
  e.i32(cfg.glrSuspicionThreshold);
  e.i32(cfg.glrRecoveryAfterFailures);
  e.i32(cfg.glrRecoveryFanout);
  e.f64(cfg.glrRecoveryCooldown);
  e.f64(cfg.glrSuspicionTtl);
  e.f64(cfg.messageTtl);
  e.f64(cfg.neighborEvictAfterFactor);
  e.f64(cfg.locationEvictAfter);
  e.f64(cfg.checkpointEvery);
  e.u64(cfg.seed);
  const std::vector<unsigned char> bytes = e.take();
  return fnv1a64(bytes.data(), bytes.size());
}

void writeCheckpoint(const std::string& path, const ScenarioComponents& c) {
  if (c.sim == nullptr || c.world == nullptr || c.cfg == nullptr ||
      c.agents == nullptr || c.metrics == nullptr) {
    throw std::logic_error{"writeCheckpoint: incomplete components"};
  }
  CheckpointFile f;
  f.configDigest = configDigest(*c.cfg);
  f.simNow = c.sim->now();
  f.nextSeq = c.sim->nextSeq();
  f.executed = c.sim->eventsExecuted();

  // Pending events, in exact fire order: each record copied out verbatim.
  const auto pending = c.sim->pendingEvents();
  f.addSection(kSectionEvents, encoded([&](Encoder& e) {
    e.size(pending.size());
    for (const auto& ev : pending) {
      e.u64(ev.key.timeBits);
      e.u64(ev.key.seq);
      e.u16(ev.desc.kind);
      e.u8(ev.desc.b0);
      e.u8(ev.desc.b1);
      e.i32(ev.desc.i0);
      e.i32(ev.desc.i1);
      e.u64(ev.desc.u0);
      e.u64(ev.desc.u1);
      e.f64(ev.desc.f0);
      e.f64(ev.desc.f1);
    }
  }));

  f.addSection(kSectionChannel, encoded([&](Encoder& e) {
    c.world->channel().saveState(e);
  }));

  f.addSection(kSectionNodes, encoded([&](Encoder& e) {
    e.size(c.agents->size());
    for (std::size_t i = 0; i < c.agents->size(); ++i) {
      c.world->macOf(static_cast<int>(i)).saveState(e);
      (*c.agents)[i]->saveState(e);
    }
  }));

  if (c.churn != nullptr) {
    f.addSection(kSectionChurn,
                 encoded([&](Encoder& e) { c.churn->saveState(e); }));
  }
  if (c.faults != nullptr) {
    f.addSection(kSectionFaults,
                 encoded([&](Encoder& e) { c.faults->saveState(e); }));
  }
  if (c.traffic != nullptr) {
    f.addSection(kSectionTraffic,
                 encoded([&](Encoder& e) { c.traffic->saveState(e); }));
  }
  f.addSection(kSectionMetrics,
               encoded([&](Encoder& e) { c.metrics->saveState(e); }));

  f.write(path);
}

void restoreCheckpoint(const std::string& path, const ScenarioComponents& c) {
  if (c.sim == nullptr || c.world == nullptr || c.cfg == nullptr ||
      c.agents == nullptr || c.metrics == nullptr) {
    throw std::logic_error{"restoreCheckpoint: incomplete components"};
  }
  if (!c.cfg->tracePath.empty()) {
    throw std::runtime_error{
        "restoreCheckpoint: refusing to restore with tracing armed — the "
        "flight recorder cannot rewind to mid-run state (re-run the traced "
        "scenario from the start instead)"};
  }
  const CheckpointFile f = CheckpointFile::read(path);
  if (!(f.simNow >= 0.0) || !std::isfinite(f.simNow)) {
    throw std::runtime_error{"checkpoint " + path + ": clock " +
                             std::to_string(f.simNow) +
                             " is not a finite non-negative time"};
  }
  const std::uint64_t expect = configDigest(*c.cfg);
  if (f.configDigest != expect) {
    throw std::runtime_error{
        "checkpoint " + path +
        ": was written under a different configuration (digest " +
        std::to_string(f.configDigest) + ", this run " +
        std::to_string(expect) + ") — refusing to restore"};
  }
  requireAgreement(c.churn != nullptr, hasSection(f, kSectionChurn), "churn",
                   path);
  requireAgreement(c.faults != nullptr, hasSection(f, kSectionFaults),
                   "faults", path);
  requireAgreement(c.traffic != nullptr, hasSection(f, kSectionTraffic),
                   "traffic", path);

  // Kernel first: drop every construction-time event, rewind the clock and
  // counters, then overwrite component state before any event re-creation
  // (the MAC's cancellation handles are re-bound after restoreState resets
  // them, and record checks read restored counts).
  c.sim->clearPending();
  c.sim->restoreClock(f.simNow, f.nextSeq, f.executed);
  c.world->invalidatePositionCache();

  {
    const Section& s = f.section(kSectionChannel, path);
    Decoder d(s.bytes.data(), s.bytes.size(), path + " channel section");
    c.world->channel().restoreState(d);
    d.expectEnd();
  }
  {
    const Section& s = f.section(kSectionNodes, path);
    Decoder d(s.bytes.data(), s.bytes.size(), path + " nodes section");
    const std::size_t n = d.checkedSize(d.u64(), 1);
    if (n != c.agents->size()) d.fail("node count mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      try {
        c.world->macOf(static_cast<int>(i)).restoreState(d);
        (*c.agents)[i]->restoreState(d);
      } catch (const std::runtime_error& err) {
        throw std::runtime_error{std::string{err.what()} + " [node " +
                                 std::to_string(i) + "]"};
      }
    }
    d.expectEnd();
  }
  if (c.churn != nullptr) {
    const Section& s = f.section(kSectionChurn, path);
    Decoder d(s.bytes.data(), s.bytes.size(), path + " churn section");
    c.churn->restoreState(d);
    d.expectEnd();
  }
  if (c.faults != nullptr) {
    const Section& s = f.section(kSectionFaults, path);
    Decoder d(s.bytes.data(), s.bytes.size(), path + " faults section");
    c.faults->restoreState(d);
    d.expectEnd();
  }
  if (c.traffic != nullptr) {
    const Section& s = f.section(kSectionTraffic, path);
    Decoder d(s.bytes.data(), s.bytes.size(), path + " traffic section");
    c.traffic->restoreState(d);
    d.expectEnd();
  }
  {
    const Section& s = f.section(kSectionMetrics, path);
    Decoder d(s.bytes.data(), s.bytes.size(), path + " metrics section");
    c.metrics->restoreState(d);
    d.expectEnd();
  }

  // Pending events last: each record copied back under its exact saved
  // (timeBits, seq) key, in strictly increasing key order.
  const Section& s = f.section(kSectionEvents, path);
  Decoder d(s.bytes.data(), s.bytes.size(), path + " events section");
  const std::size_t nEvents = d.checkedSize(d.u64(), 58);
  sim::EventKey prev{};
  for (std::size_t i = 0; i < nEvents; ++i) {
    sim::EventKey key{};
    key.timeBits = d.u64();
    key.seq = d.u64();
    sim::EventDesc desc;
    desc.kind = d.u16();
    desc.b0 = d.u8();
    desc.b1 = d.u8();
    desc.i0 = d.i32();
    desc.i1 = d.i32();
    desc.u0 = d.u64();
    desc.u1 = d.u64();
    desc.f0 = d.f64();
    desc.f1 = d.f64();
    if (i > 0 && std::tie(key.timeBits, key.seq) <=
                     std::tie(prev.timeBits, prev.seq)) {
      d.fail("event " + std::to_string(i) +
             " is not after its predecessor in (time, seq) order");
    }
    prev = key;
    checkRecord(c, desc, d);
    sim::EventHandle h;
    try {
      h = c.sim->scheduleKeyed(key, desc);
    } catch (const std::invalid_argument& err) {
      d.fail(err.what());
    }
    if (kRecordRules[desc.kind].macTimer) {
      c.world->macOf(desc.i0).adoptRestoredTimer(desc, h);
    }
  }
  d.expectEnd();
}

}  // namespace glr::ckpt
