#include "routing/epidemic.hpp"

#include <array>
#include <stdexcept>

#include "checkpoint/codec.hpp"
#include "checkpoint/message_codec.hpp"
#include "sim/event_kinds.hpp"
#include "trace/recorder.hpp"

#include "net/faults.hpp"

namespace glr::routing {

namespace {

sim::EventDesc exchangeDesc(int self) {
  sim::EventDesc d;
  d.kind = sim::kEpidemicExchange;
  d.i0 = self;
  return d;
}

}  // namespace

EpidemicAgent::EpidemicAgent(net::World& world, int self,
                             EpidemicParams params,
                             dtn::MetricsCollector* metrics, sim::Rng rng)
    : world_(world),
      self_(self),
      params_(params),
      metrics_(metrics),
      rng_(rng),
      neighbors_(world.sim(), world.macOf(self), self,
                 [this] { return myPos(); }, params.hello, rng.fork(1)),
      buffer_(params.storageLimit, params.expectedBufferedCopies) {
  buffer_.setTrace(world_.trace(), self_);
  neighbors_.setContactCallback(
      [this](int id) { sendSummary(id, /*full=*/true); });
  world_.routeToAgents(sim::kEpidemicExchange);
}

void EpidemicAgent::start() {
  neighbors_.start();
  world_.sim().schedule(rng_.uniform(0.0, params_.exchangeCheckInterval),
                        exchangeDesc(self_));
}

void EpidemicAgent::exchangeTick() {
  if (params_.messageTtl > 0.0) buffer_.expireDue(world_.sim().now());
  // Delta re-offers to neighbors that have not seen our latest additions,
  // rate-limited per pair (covers messages originated during a long-lived
  // contact without flooding full summary vectors every second).
  if (buffer_.size() > 0) {
    for (const int j : neighbors_.currentNeighbors()) {
      const auto it = offeredUpTo_.find(j);
      if (it != offeredUpTo_.end() && it->second >= addSeq_) continue;
      const auto at = lastOfferAt_.find(j);
      if (at != lastOfferAt_.end() &&
          world_.sim().now() - at->second < params_.svMinInterval) {
        continue;
      }
      sendSummary(j, /*full=*/false);
    }
  }
  world_.sim().schedule(params_.exchangeCheckInterval, exchangeDesc(self_));
}

void EpidemicAgent::sendSummary(int to, bool full) {
  const std::uint64_t watermark = full ? 0 : offeredUpTo_[to];
  // Build directly inside a recycled arena block (clear() keeps capacity).
  net::Payload payload = net::Payload::create<SummaryVector>();
  SummaryVector& sv = payload.mutableValue<SummaryVector>();
  sv.ids.clear();
  for (const auto& [seq, id] : additions_) {
    if (seq > watermark && buffer_.containsAnyBranch(id)) {
      sv.ids.push_back(id);
    }
  }
  offeredUpTo_[to] = addSeq_;
  lastOfferAt_[to] = world_.sim().now();
  if (sv.ids.empty()) return;

  net::Packet p;
  p.kind = kEpSvKind;
  p.bytes = params_.svHeaderBytes + params_.svEntryBytes * sv.ids.size();
  p.payload = std::move(payload);
  if (!world_.macOf(self_).send(std::move(p), to)) ++counters_.sendRejects;
  ++counters_.summariesSent;
}

void EpidemicAgent::originate(int dstNode) {
  dtn::Message m;
  m.id = {self_, nextSeq_++};
  m.srcNode = self_;
  m.dstNode = dstNode;
  m.created = world_.sim().now();
  m.payloadBytes = params_.payloadBytes;
  if (params_.messageTtl > 0.0) m.expiresAt = m.created + params_.messageTtl;
  if (metrics_ != nullptr) metrics_->onCreated(m);
  addMessage(std::move(m));
}

void EpidemicAgent::addMessage(dtn::Message m) {
  const dtn::MessageId id = m.id;
  if (buffer_.addToStore(std::move(m))) {
    additions_.emplace_back(++addSeq_, id);
  }
}

void EpidemicAgent::onPacket(const net::Packet& packet, int fromMac) {
  if (neighbors_.handlePacket(packet, fromMac)) return;

  if (packet.kind == kEpSvKind) {
    const auto* sv = packet.payload.get<SummaryVector>();
    if (sv == nullptr) return;
    net::Payload payload = net::Payload::create<RequestVector>();
    RequestVector& req = payload.mutableValue<RequestVector>();
    req.ids.clear();
    for (const dtn::MessageId& id : sv->ids) {
      if (buffer_.containsAnyBranch(id) || deliveredHere_.contains(id)) {
        continue;
      }
      // One outstanding request per id: dense networks offer the same
      // message from many neighbors within milliseconds.
      const auto it = requestedAt_.find(id);
      if (it != requestedAt_.end() &&
          world_.sim().now() - it->second < params_.requestWindow) {
        continue;
      }
      requestedAt_[id] = world_.sim().now();
      req.ids.push_back(id);
    }
    if (req.ids.empty()) return;
    net::Packet p;
    p.kind = kEpReqKind;
    p.bytes = params_.svHeaderBytes + params_.svEntryBytes * req.ids.size();
    p.payload = std::move(payload);
    if (!world_.macOf(self_).send(std::move(p), fromMac)) {
      ++counters_.sendRejects;
    }
    ++counters_.requestsSent;
    return;
  }

  if (packet.kind == kEpReqKind) {
    const auto* req = packet.payload.get<RequestVector>();
    if (req == nullptr) return;
    for (const dtn::MessageId& id : req->ids) {
      dtn::Message* m = buffer_.findInStore({id, dtn::TreeFlag::kNone});
      if (m == nullptr) continue;  // dropped since the summary was sent
      net::Packet p;
      p.kind = kEpDataKind;
      p.bytes = m->payloadBytes + params_.dataHeaderBytes;
      p.payload = net::Payload::of(*m);
      if (!world_.macOf(self_).send(std::move(p), fromMac)) {
        ++counters_.sendRejects;
      }
      ++counters_.dataSent;
      if (trace::Recorder* t = world_.trace()) {
        t->record(trace::EventType::kSend, self_, fromMac, id.src, id.seq);
      }
    }
    return;
  }

  if (packet.kind == kEpDataKind) {
    const auto* pm = packet.payload.get<dtn::Message>();
    if (pm == nullptr) return;
    dtn::Message m = *pm;
    m.hops += 1;
    ++counters_.dataReceived;
    // Adversaries misbehave only on the relay path: traffic addressed to
    // this node is always delivered (and the drop is counted centrally by
    // the AdversaryModel, never silently). Epidemic has no custody, so a
    // selfish refusal degenerates to the same silent non-storage as a drop.
    if (m.dstNode != self_) {
      if (net::AdversaryModel* adv = world_.adversary()) {
        if (adv->onRelayData(self_) !=
            net::AdversaryModel::RelayDecision::kAccept) {
          return;
        }
      }
    }
    if (buffer_.containsAnyBranch(m.id) || deliveredHere_.contains(m.id)) {
      ++counters_.duplicatesDropped;
      return;
    }
    if (m.dstNode == self_) {
      deliveredHere_.insert(m.id);
      ++counters_.deliveredHere;
      if (metrics_ != nullptr) {
        metrics_->onDelivered(m, world_.sim().now(), m.hops);
      }
      // The destination keeps the message buffered (epidemic never clears),
      // which also stops neighbors from re-sending it here.
    }
    addMessage(std::move(m));
  }
}

void EpidemicAgent::saveState(ckpt::Encoder& e) const {
  for (const std::uint64_t word : rng_.state()) e.u64(word);
  neighbors_.saveState(e);
  buffer_.saveState(e);
  ckpt::saveUnorderedSet(e, deliveredHere_,
                         [](ckpt::Encoder& enc, const dtn::MessageId& id) {
                           ckpt::saveMessageId(enc, id);
                         });
  e.size(additions_.size());
  for (const auto& [seq, id] : additions_) {
    e.u64(seq);
    ckpt::saveMessageId(e, id);
  }
  e.u64(addSeq_);
  ckpt::saveUnorderedMap(
      e, offeredUpTo_,
      [](ckpt::Encoder& enc, const int id, const std::uint64_t seq) {
        enc.i32(id);
        enc.u64(seq);
      });
  ckpt::saveUnorderedMap(
      e, lastOfferAt_,
      [](ckpt::Encoder& enc, const int id, const sim::SimTime at) {
        enc.i32(id);
        enc.f64(at);
      });
  ckpt::saveUnorderedMap(
      e, requestedAt_,
      [](ckpt::Encoder& enc, const dtn::MessageId& id, const sim::SimTime at) {
        ckpt::saveMessageId(enc, id);
        enc.f64(at);
      });
  e.u64(counters_.summariesSent);
  e.u64(counters_.requestsSent);
  e.u64(counters_.dataSent);
  e.u64(counters_.dataReceived);
  e.u64(counters_.duplicatesDropped);
  e.u64(counters_.deliveredHere);
  e.u64(counters_.sendRejects);
  e.i32(nextSeq_);
}

void EpidemicAgent::restoreState(ckpt::Decoder& d) {
  std::array<std::uint64_t, 4> rngState{};
  for (std::uint64_t& word : rngState) word = d.u64();
  rng_.setState(rngState);
  neighbors_.restoreState(d);
  buffer_.restoreState(d);
  ckpt::loadUnorderedSet(d, deliveredHere_, [](ckpt::Decoder& dec) {
    return ckpt::loadMessageId(dec);
  });
  const std::size_t nAdd = d.checkedSize(d.u64(), 12);
  additions_.clear();
  additions_.reserve(nAdd);
  for (std::size_t i = 0; i < nAdd; ++i) {
    const std::uint64_t seq = d.u64();
    additions_.emplace_back(seq, ckpt::loadMessageId(d));
  }
  addSeq_ = d.u64();
  ckpt::loadUnorderedMap(d, offeredUpTo_, [](ckpt::Decoder& dec) {
    const int id = dec.i32();
    const std::uint64_t seq = dec.u64();
    return std::pair<int, std::uint64_t>{id, seq};
  });
  ckpt::loadUnorderedMap(d, lastOfferAt_, [](ckpt::Decoder& dec) {
    const int id = dec.i32();
    const sim::SimTime at = dec.f64();
    return std::pair<int, sim::SimTime>{id, at};
  });
  ckpt::loadUnorderedMap(d, requestedAt_, [](ckpt::Decoder& dec) {
    const dtn::MessageId id = ckpt::loadMessageId(dec);
    const sim::SimTime at = dec.f64();
    return std::pair<dtn::MessageId, sim::SimTime>{id, at};
  });
  counters_.summariesSent = d.u64();
  counters_.requestsSent = d.u64();
  counters_.dataSent = d.u64();
  counters_.dataReceived = d.u64();
  counters_.duplicatesDropped = d.u64();
  counters_.deliveredHere = d.u64();
  counters_.sendRejects = d.u64();
  nextSeq_ = d.i32();
}

void EpidemicAgent::onEvent(const sim::EventDesc& e) {
  switch (e.kind) {
    case sim::kHello:
      neighbors_.sendHello();
      return;
    case sim::kEpidemicExchange:
      exchangeTick();
      return;
    default:
      DtnAgent::onEvent(e);
  }
}

}  // namespace glr::routing
