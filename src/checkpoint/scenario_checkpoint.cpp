#include "checkpoint/scenario_checkpoint.hpp"

#include <stdexcept>
#include <string>

#include "checkpoint/codec.hpp"
#include "checkpoint/event_kinds.hpp"
#include "checkpoint/file.hpp"
#include "dtn/metrics.hpp"
#include "experiment/traffic.hpp"
#include "mac/mac.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"
#include "net/world.hpp"
#include "routing/dtn_agent.hpp"

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

  // Pending events, in exact fire order. An undescribed event is a silently
  // unrestorable checkpoint, so it refuses here, at snapshot time.
  const auto pending = c.sim->pendingEvents();
  f.addSection(kSectionEvents, encoded([&](Encoder& e) {
    e.size(pending.size());
    for (const auto& ev : pending) {
      if (ev.desc.kind == kNone) {
        throw std::runtime_error{
            "writeCheckpoint: pending event at t=" +
            std::to_string(sim::Simulator::bitsToTime(ev.key.timeBits)) +
            " seq=" + std::to_string(ev.key.seq) +
            " has no descriptor (untagged schedule site)"};
      }
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
  // (restore*Event methods re-arm cancellation handles that restoreState
  // resets).
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

  // Pending events last, each dispatched to its owning component and
  // re-created under the exact saved (timeBits, seq) key.
  const Section& s = f.section(kSectionEvents, path);
  Decoder d(s.bytes.data(), s.bytes.size(), path + " events section");
  const std::size_t nEvents = d.checkedSize(d.u64(), 58);
  const int numNodes = static_cast<int>(c.agents->size());
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

    const auto nodeOf = [&](std::int32_t id) {
      if (id < 0 || id >= numNodes) {
        d.fail("event names node " + std::to_string(id) +
               " outside the population");
      }
      return id;
    };

    switch (desc.kind) {
      case kChannelTxEnd:
        c.world->channel().restoreTxEndEvent(key, desc.u0);
        break;
      case kMacAttempt:
        c.world->macOf(nodeOf(desc.i0)).restoreAttemptEvent(key);
        break;
      case kMacBackoffExpire:
        c.world->macOf(nodeOf(desc.i0)).restoreBackoffEvent(key);
        break;
      case kMacTxEnd:
        c.world->macOf(nodeOf(desc.i0))
            .restoreTxEndEvent(key, desc.b0 != 0, desc.u0);
        break;
      case kMacAckTimeout:
        c.world->macOf(nodeOf(desc.i0)).restoreAckTimeoutEvent(key);
        break;
      case kMacAckReply:
        c.world->macOf(nodeOf(desc.i0))
            .restoreAckReplyEvent(key, desc.i1, desc.u0, desc.f0, desc.u1);
        break;
      case kAgentStart:
        c.world->restoreAgentStartEvent(key, nodeOf(desc.i0));
        break;
      case kChurnToggle:
        if (c.churn == nullptr) d.fail("churn event without churn");
        c.churn->restoreToggleEvent(key,
                                    static_cast<std::size_t>(desc.u0));
        break;
      case kFaultBurstNext:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreBurstNextEvent(key);
        break;
      case kFaultBurstEnd:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreBurstEndEvent(key);
        break;
      case kFaultStallNext:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreStallNextEvent(key);
        break;
      case kFaultStallEnd:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreStallEndEvent(key, nodeOf(desc.i0));
        break;
      case kFaultFlap:
        if (c.faults == nullptr) d.fail("fault event without faults");
        c.faults->restoreFlapEvent(key, nodeOf(desc.i0), desc.b0 != 0);
        break;
      case kHello:
      case kGlrPeriodicCheck:
      case kGlrQueuedCheck:
      case kGlrAckRetry:
      case kGlrCustodyTimer:
      case kEpidemicExchange:
      case kSprayExpiry:
      case kDirectCheck:
        (*c.agents)[static_cast<std::size_t>(nodeOf(desc.i0))]->restoreEvent(
            key, desc);
        break;
      case kTrafficPaperArrival: {
        routing::DtnAgent* agent =
            (*c.agents)[static_cast<std::size_t>(nodeOf(desc.i0))];
        const int dst = nodeOf(desc.i1);
        c.sim->scheduleKeyed(key, desc,
                             [agent, dst] { agent->originate(dst); });
        break;
      }
      case kTrafficArrival:
        if (c.traffic == nullptr) d.fail("traffic event without process");
        c.traffic->restoreArrivalEvent(key);
        break;
      case kTrafficSourceToggle:
        if (c.traffic == nullptr) d.fail("traffic event without process");
        c.traffic->restoreToggleEvent(key,
                                      static_cast<std::size_t>(desc.u0));
        break;
      case kTrafficSourceArrival:
        if (c.traffic == nullptr) d.fail("traffic event without process");
        c.traffic->restoreSourceArrivalEvent(
            key, static_cast<std::size_t>(desc.u0), desc.u1);
        break;
      case kCheckpointTimer:
        if (!c.restoreCheckpointTimer) {
          d.fail("checkpoint-timer event but no writer hook installed");
        }
        c.restoreCheckpointTimer(key);
        break;
      default:
        d.fail("unknown event kind " + std::to_string(desc.kind));
    }
  }
  d.expectEnd();
}

}  // namespace glr::ckpt
