#include "routing/direct.hpp"

#include <array>
#include <stdexcept>

#include "checkpoint/codec.hpp"
#include "checkpoint/message_codec.hpp"
#include "sim/event_kinds.hpp"
#include "trace/recorder.hpp"

namespace glr::routing {

namespace {

sim::EventDesc checkDesc(int self) {
  sim::EventDesc d;
  d.kind = sim::kDirectCheck;
  d.i0 = self;
  return d;
}

}  // namespace

DirectDeliveryAgent::DirectDeliveryAgent(net::World& world, int self,
                                         DirectParams params,
                                         dtn::MetricsCollector* metrics,
                                         sim::Rng rng)
    : world_(world),
      self_(self),
      params_(params),
      metrics_(metrics),
      rng_(rng),
      neighbors_(world.sim(), world.macOf(self), self,
                 [this] { return myPos(); }, params.hello, rng.fork(1)),
      buffer_(params.storageLimit, params.expectedBufferedCopies) {
  buffer_.setTrace(world_.trace(), self_);
  world_.routeToAgents(sim::kDirectCheck);
}

void DirectDeliveryAgent::start() {
  neighbors_.start();
  world_.sim().schedule(rng_.uniform(0.0, params_.checkInterval),
                        checkDesc(self_));
}

void DirectDeliveryAgent::originate(int dstNode) {
  dtn::Message m;
  m.id = {self_, nextSeq_++};
  m.srcNode = self_;
  m.dstNode = dstNode;
  m.created = world_.sim().now();
  m.payloadBytes = params_.payloadBytes;
  if (metrics_ != nullptr) metrics_->onCreated(m);
  buffer_.addToStore(std::move(m));
}

void DirectDeliveryAgent::check() {
  std::vector<dtn::CopyKey> keys;
  buffer_.storeKeys(keys);
  for (const dtn::CopyKey& key : keys) {
    dtn::Message* m = buffer_.findInStore(key);
    if (m == nullptr) continue;
    if (!neighbors_.isNeighbor(m->dstNode)) continue;
    net::Packet p;
    p.kind = kDirectDataKind;
    p.bytes = m->payloadBytes + params_.dataHeaderBytes;
    p.payload = net::Payload::of(*m);
    const int dst = m->dstNode;
    // Drop the copy only once the MAC accepted the frame: a refused send
    // (queue full / radio down) keeps it stored for the next check instead
    // of silently losing the sole copy.
    if (world_.macOf(self_).send(std::move(p), dst)) {
      if (trace::Recorder* t = world_.trace()) {
        t->record(trace::EventType::kSend, self_, dst, key.id.src,
                  key.id.seq);
      }
      buffer_.erase(key);
      ++dataSent_;
    } else {
      ++sendRejects_;
    }
  }
  world_.sim().schedule(params_.checkInterval, checkDesc(self_));
}

void DirectDeliveryAgent::onPacket(const net::Packet& packet, int fromMac) {
  if (neighbors_.handlePacket(packet, fromMac)) return;
  if (packet.kind != kDirectDataKind) return;
  const auto* pm = packet.payload.get<dtn::Message>();
  if (pm == nullptr || pm->dstNode != self_) return;
  if (deliveredHere_.insert(pm->id).second && metrics_ != nullptr) {
    metrics_->onDelivered(*pm, world_.sim().now(), pm->hops + 1);
  }
}

void DirectDeliveryAgent::saveState(ckpt::Encoder& e) const {
  for (const std::uint64_t word : rng_.state()) e.u64(word);
  neighbors_.saveState(e);
  buffer_.saveState(e);
  ckpt::saveKeyed(e, deliveredHere_, ckpt::saveMessageId);
  e.u64(dataSent_);
  e.u64(sendRejects_);
  e.i32(nextSeq_);
}

void DirectDeliveryAgent::restoreState(ckpt::Decoder& d) {
  std::array<std::uint64_t, 4> rngState{};
  for (std::uint64_t& word : rngState) word = d.u64();
  rng_.setState(rngState);
  neighbors_.restoreState(d);
  buffer_.restoreState(d);
  ckpt::loadKeyed(d, deliveredHere_, ckpt::loadMessageId);
  dataSent_ = d.u64();
  sendRejects_ = d.u64();
  nextSeq_ = d.i32();
}

void DirectDeliveryAgent::onEvent(const sim::EventDesc& e) {
  switch (e.kind) {
    case sim::kHello:
      neighbors_.sendHello();
      return;
    case sim::kDirectCheck:
      check();
      return;
    default:
      DtnAgent::onEvent(e);
  }
}

}  // namespace glr::routing
