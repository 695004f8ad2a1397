#include "net/neighbor.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "checkpoint/codec.hpp"
#include "checkpoint/message_codec.hpp"
#include "graph/id_slot_index.hpp"
#include "sim/event_kinds.hpp"

namespace glr::net {

namespace {

sim::EventDesc helloDesc(int self) {
  sim::EventDesc d;
  d.kind = sim::kHello;
  d.i0 = self;
  return d;
}

/// knowledge()'s per-thread workspace: where each id sits in the output,
/// and the timestamp of the observation each output slot holds.
struct KnowledgeScratch {
  graph::IdSlotIndex slotOf;
  std::vector<sim::SimTime> heard;  // by output slot
};

KnowledgeScratch& knowledgeScratch() {
  static thread_local KnowledgeScratch scratch;
  return scratch;
}

/// Where `id` sits, or would be inserted, in an id-sorted table.
template <class Table>
auto lowerBound(Table& table, int id) {
  return std::lower_bound(
      table.begin(), table.end(), id,
      [](const auto& entry, int key) { return entry.first < key; });
}

}  // namespace

NeighborService::NeighborService(sim::Simulator& sim, mac::Mac& mac, int self,
                                 std::function<geom::Point2()> myPosition,
                                 Params params, sim::Rng rng)
    : sim_(sim),
      mac_(mac),
      self_(self),
      myPosition_(std::move(myPosition)),
      params_(params),
      rng_(rng) {
  if (!myPosition_) {
    throw std::invalid_argument{"NeighborService: myPosition required"};
  }
  if (params_.helloInterval <= 0.0 || params_.expiry <= 0.0) {
    throw std::invalid_argument{"NeighborService: bad interval/expiry"};
  }
}

bool NeighborService::fresh(const NeighborRecord& r) const {
  return sim_.now() - r.heard <= params_.expiry;
}

const NeighborService::NeighborRecord* NeighborService::freshRecord(
    int id) const {
  const auto it = lowerBound(table_, id);
  if (it == table_.end() || it->first != id || !fresh(it->second)) {
    return nullptr;
  }
  return &it->second;
}

void NeighborService::start() {
  // Desynchronize: first beacon at a uniform offset inside one interval.
  sim_.schedule(rng_.uniform(0.0, params_.helloInterval), helloDesc(self_));
}

void NeighborService::sendHello() {
  // The payload block comes from the per-thread hello arena: `neighbors` is
  // the recycled block's own vector, so clear() + refill is the reused
  // scratch buffer — its capacity persists across beacons and the refill
  // never allocates once the neighborhood size has been seen.
  Payload payload = Payload::create<HelloPayload>();
  HelloPayload& hello = payload.mutableValue<HelloPayload>();
  hello.id = self_;
  hello.pos = myPosition_();
  hello.sentAt = sim_.now();
  hello.neighbors.clear();
  std::size_t bytes = params_.baseBytes;
  // A record stale now stays stale until its node is heard again, and a
  // re-heard node is a new contact either way, so dropping it loses nothing.
  std::erase_if(table_,
                [&](const auto& entry) { return !fresh(entry.second); });
  if (params_.includeNeighborList) {
    for (const auto& [id, rec] : table_) {
      hello.neighbors.push_back({id, rec.pos, rec.heard});
      bytes += params_.perNeighborBytes;
    }
  }
  Packet p;
  p.bytes = bytes;
  p.kind = kHelloKind;
  p.payload = std::move(payload);
  if (!mac_.send(std::move(p), kBroadcast)) ++helloSendFailures_;
  ++hellosSent_;

  // Jittered periodic re-beacon (+/-10%) to avoid phase locking.
  const double next =
      params_.helloInterval * rng_.uniform(0.9, 1.1);
  sim_.schedule(next, helloDesc(self_));
}

void NeighborService::saveState(ckpt::Encoder& e) const {
  const auto rngState = rng_.state();
  for (const std::uint64_t word : rngState) e.u64(word);
  ckpt::saveKeyed(
      e, table_, [](ckpt::Encoder& enc, const auto& item) {
        const auto& [id, rec] = item;
        enc.i32(id);
        ckpt::savePoint(enc, rec.pos);
        enc.f64(rec.heard);
        enc.size(rec.reported.size());
        for (const HelloPayload::Entry& entry : rec.reported) {
          enc.i32(entry.id);
          ckpt::savePoint(enc, entry.pos);
          enc.f64(entry.heardAt);
        }
      });
  e.u64(hellosSent_);
  e.u64(hellosReceived_);
  e.u64(helloSendFailures_);
}

void NeighborService::restoreState(ckpt::Decoder& d) {
  std::array<std::uint64_t, 4> rngState{};
  for (std::uint64_t& word : rngState) word = d.u64();
  rng_.setState(rngState);
  ckpt::loadKeyed(d, table_, [](ckpt::Decoder& dec) {
    const int id = dec.nodeId();
    NeighborRecord rec;
    rec.pos = ckpt::loadPoint(dec);
    rec.heard = dec.f64();
    const std::size_t n = dec.checkedSize(dec.u64(), 20);
    rec.reported.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      HelloPayload::Entry entry;
      entry.id = dec.nodeId();
      entry.pos = ckpt::loadPoint(dec);
      entry.heardAt = dec.f64();
      rec.reported.push_back(entry);
    }
    return std::pair<int, NeighborRecord>{id, std::move(rec)};
  });
  hellosSent_ = d.u64();
  hellosReceived_ = d.u64();
  helloSendFailures_ = d.u64();
}

bool NeighborService::handlePacket(const Packet& packet, int /*fromMac*/) {
  if (packet.kind != kHelloKind) return false;
  const auto* hello = packet.payload.get<HelloPayload>();
  if (hello == nullptr) return false;
  ++hellosReceived_;

  auto it = lowerBound(table_, hello->id);
  if (it == table_.end() || it->first != hello->id) {
    it = table_.insert(it, {hello->id, NeighborRecord{}});
  }
  NeighborRecord& rec = it->second;
  const bool wasFresh = fresh(rec);
  rec.pos = hello->pos;
  rec.heard = sim_.now();
  rec.reported = hello->neighbors;

  if (onLocationSample_) {
    onLocationSample_(hello->id, hello->pos, hello->sentAt);
    for (const auto& e : hello->neighbors) {
      if (e.id != self_) onLocationSample_(e.id, e.pos, e.heardAt);
    }
  }
  if (!wasFresh && onContact_) onContact_(hello->id);
  return true;
}

std::vector<int> NeighborService::currentNeighbors() const {
  std::vector<int> out;
  out.reserve(table_.size());
  for (const auto& [id, rec] : table_) {
    if (fresh(rec)) out.push_back(id);
  }
  return out;
}

bool NeighborService::isNeighbor(int id) const {
  return freshRecord(id) != nullptr;
}

std::optional<geom::Point2> NeighborService::neighborPosition(int id) const {
  const NeighborRecord* rec = freshRecord(id);
  if (rec == nullptr) return std::nullopt;
  return rec->pos;
}

std::vector<spanner::KnownNode> NeighborService::knowledge() const {
  // Called once per route check per node. Records that went stale since
  // the last beacon are still in the table, so size the output from the
  // fresh records alone: one entry each plus at most one per entry they
  // reported.
  std::size_t bound = 0;
  for (const auto& [id, rec] : table_) {
    if (fresh(rec)) bound += 1 + rec.reported.size();
  }
  std::vector<spanner::KnownNode> out;
  out.reserve(bound);
  KnowledgeScratch& scratch = knowledgeScratch();
  scratch.slotOf.clear();
  scratch.heard.clear();
  const auto add = [&](int id, geom::Point2 pos, bool oneHop,
                       sim::SimTime heardAt) {
    scratch.slotOf.insert(id, static_cast<int>(out.size()));
    scratch.heard.push_back(heardAt);
    out.push_back({id, pos, oneHop});
  };

  for (const auto& [id, rec] : table_) {
    if (fresh(rec)) add(id, rec.pos, /*oneHop=*/true, rec.heard);
  }
  for (const auto& [id, rec] : table_) {
    if (!fresh(rec)) continue;
    for (const auto& e : rec.reported) {
      if (e.id == self_) continue;
      const int at = scratch.slotOf.find(e.id);
      if (at < 0) {
        add(e.id, e.pos, /*oneHop=*/false, e.heardAt);
      } else if (const auto i = static_cast<std::size_t>(at);
                 !out[i].oneHop && e.heardAt > scratch.heard[i]) {
        out[i].pos = e.pos;  // fresher 2-hop observation
        scratch.heard[i] = e.heardAt;
      }
    }
  }
  return out;
}

}  // namespace glr::net
