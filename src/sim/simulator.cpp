#include "sim/simulator.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace glr::sim {

namespace {

std::uint64_t steadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Simulator::setHandler(std::uint16_t kind, void* ctx,
                           void (*fn)(void* ctx, const EventDesc& desc)) {
  if (kind == 0 || kind >= kMaxKinds || fn == nullptr) {
    throw std::logic_error{"Simulator::setHandler: bad kind " +
                           std::to_string(kind) + " or null handler"};
  }
  EventHandler& h = handlers_[kind];
  if (h.fn != nullptr && (h.ctx != ctx || h.fn != fn)) {
    throw std::logic_error{"Simulator::setHandler: kind " +
                           std::to_string(kind) + " already has a handler"};
  }
  h = EventHandler{ctx, fn};
}

void Simulator::throwUnhandled(const char* where, std::uint16_t kind) {
  throw std::invalid_argument{std::string{"Simulator::"} + where +
                              ": no handler registered for event kind " +
                              std::to_string(kind)};
}

void Simulator::heapPopTop() {
  const EventKey last = heapKeys_.back();
  const EventAux lastAux = heapAux_.back();
  heapKeys_.pop_back();
  heapAux_.pop_back();
  const std::size_t n = heapKeys_.size();
  if (n == 0) return;
  // Bottom-up deletion (Wegener): descend the min-child path all the way to
  // a leaf — the replacement comes from the back of the heap, so it nearly
  // always belongs at the bottom and comparing it against every level on the
  // way down is wasted work — then bubble it up from the leaf hole, which
  // almost always stops immediately. Min-child selection is a two-round
  // tournament of conditional moves: the outcomes are data-random, so
  // branching on them would mispredict half the time. Only the 16-byte key
  // array is touched per comparison; the next level's children are
  // prefetched as soon as their index is known (the heap outgrows L2 in
  // large scenarios, and the sift is otherwise a serial chain of dependent
  // loads).
  std::size_t i = 0;
  for (;;) {
    static_assert(kHeapArity == 4, "min-child tournament is unrolled for 4");
    const std::size_t firstChild = i * kHeapArity + 1;
    if (firstChild + kHeapArity <= n) {
      const EventKey* ch = &heapKeys_[firstChild];
      const std::size_t a = earlier(ch[1], ch[0]) ? firstChild + 1 : firstChild;
      const std::size_t b =
          earlier(ch[3], ch[2]) ? firstChild + 3 : firstChild + 2;
      const std::size_t best = earlier(heapKeys_[b], heapKeys_[a]) ? b : a;
#if defined(__GNUC__) || defined(__clang__)
      const std::size_t next = best * kHeapArity + 1;
      if (next < n) __builtin_prefetch(heapKeys_.data() + next);
#endif
      heapKeys_[i] = heapKeys_[best];
      heapAux_[i] = heapAux_[best];
      i = best;
    } else if (firstChild < n) {
      std::size_t best = firstChild;
      for (std::size_t c = firstChild + 1; c < n; ++c) {
        best = earlier(heapKeys_[c], heapKeys_[best]) ? c : best;
      }
      heapKeys_[i] = heapKeys_[best];
      heapAux_[i] = heapAux_[best];
      i = best;
    } else {
      break;
    }
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!earlier(last, heapKeys_[parent])) break;
    heapKeys_[i] = heapKeys_[parent];
    heapAux_[i] = heapAux_[parent];
    i = parent;
  }
  heapKeys_[i] = last;
  heapAux_[i] = lastAux;
}

void Simulator::siftDownHole(std::size_t i, EventKey key, EventAux aux) {
  const std::size_t n = heapKeys_.size();
  for (;;) {
    const std::size_t firstChild = i * kHeapArity + 1;
    if (firstChild >= n) break;
    const std::size_t lastChild = std::min(firstChild + kHeapArity, n);
    std::size_t best = firstChild;
    for (std::size_t c = firstChild + 1; c < lastChild; ++c) {
      best = earlier(heapKeys_[c], heapKeys_[best]) ? c : best;
    }
    if (!earlier(heapKeys_[best], key)) break;
    heapKeys_[i] = heapKeys_[best];
    heapAux_[i] = heapAux_[best];
    i = best;
  }
  heapKeys_[i] = key;
  heapAux_[i] = aux;
}

void Simulator::skipStale() {
  while (!heapKeys_.empty() && stale(heapAux_.front())) {
    heapPopTop();
    --staleCount_;
  }
}

void Simulator::compactHeap() {
  const std::size_t n = heapKeys_.size();
  std::size_t w = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (!stale(heapAux_[r])) {
      heapKeys_[w] = heapKeys_[r];
      heapAux_[w] = heapAux_[r];
      ++w;
    }
  }
  heapKeys_.resize(w);
  heapAux_.resize(w);
  staleCount_ = 0;
  if (w < 2) return;
  // Floyd heapify over the surviving records: O(n), and the filter pass
  // above kept them in heap-ish order so most holes stop immediately.
  for (std::size_t i = (w - 2) / kHeapArity + 1; i-- > 0;) {
    siftDownHole(i, heapKeys_[i], heapAux_[i]);
  }
}

bool Simulator::hasPending() {
  skipStale();
  return !heapKeys_.empty();
}

void Simulator::reserve(std::size_t events) {
  slab_.reserve(events);
  heapKeys_.reserve(events);
  heapAux_.reserve(events);
}

std::uint64_t Simulator::fireTop() {
  // One peek serves the stale check, the record fetch, and the clock bump:
  // the slot's cacheline is loaded exactly once per event.
  const EventAux aux = heapAux_.front();
  Slot& s = slab_[aux.slot];
  if (s.generation != aux.generation) {
    heapPopTop();
    --staleCount_;
    return 0;
  }
  now_ = bitsToTime(heapKeys_.front().timeBits);
  heapPopTop();
  // Copy the record out and free the slot *before* dispatching: the
  // handler may schedule new events (reusing this very slot) and late
  // cancels on it must already be no-ops. `s` stays valid — only the
  // handler can grow the slab, and it has not run yet.
  const EventDesc desc = s.desc;
  releaseSlot(aux.slot);
  // Counted before dispatching so a checkpoint written from inside a
  // handler includes the event in progress — the restored run will not
  // re-run it.
  ++executed_;
  const EventHandler& h = handlers_[desc.kind];
  h.fn(h.ctx, desc);
  return 1;
}

std::vector<Simulator::PendingEvent> Simulator::pendingEvents() {
  // Drain every record in fire order, shedding stale (cancelled) ones, then
  // re-insert the survivors. Re-insertion in ascending key order is cheap
  // (heap pushes never sift) and cannot change the fire sequence: pops always
  // take the exact (time, seq) minimum, whatever the internal layout.
  std::vector<std::pair<EventKey, EventAux>> records;
  records.reserve(queueSize());
  while (!heapKeys_.empty()) {
    const EventKey key = heapKeys_.front();
    const EventAux aux = heapAux_.front();
    heapPopTop();
    if (stale(aux)) {
      --staleCount_;
      continue;
    }
    records.emplace_back(key, aux);
  }
  staleCount_ = 0;
  std::vector<PendingEvent> out;
  out.reserve(records.size());
  for (const auto& [key, aux] : records) {
    heapPush(key, aux);
    out.push_back(PendingEvent{key, slab_[aux.slot].desc});
  }
  return out;
}

EventHandle Simulator::scheduleKeyed(EventKey key, const EventDesc& desc) {
  // A canonical bit pattern (no -0.0) of a time not before now: NaN fails
  // the comparison, and a negative time is earlier than any clock.
  const SimTime t = bitsToTime(key.timeBits);
  if (!(t >= now_) || timeToBits(t) != key.timeBits) {
    throw std::invalid_argument{
        "Simulator::scheduleKeyed: event time is in the past or not a "
        "canonical time"};
  }
  if (key.seq >= nextSeq_) {
    throw std::invalid_argument{
        "Simulator::scheduleKeyed: seq not covered by restored clock"};
  }
  if (!handles(desc.kind)) throwUnhandled("scheduleKeyed", desc.kind);
  return arm(key, desc);
}

void Simulator::clearPending() {
  while (!heapKeys_.empty()) {
    const EventAux aux = heapAux_.front();
    heapPopTop();
    if (!stale(aux)) releaseSlot(aux.slot);
  }
  staleCount_ = 0;
}

void Simulator::restoreClock(SimTime now, std::uint64_t nextSeq,
                             std::uint64_t executed) {
  if (queueSize() != 0) {
    throw std::logic_error{"Simulator::restoreClock: queue must be empty"};
  }
  now_ = now;
  nextSeq_ = nextSeq;
  executed_ = executed;
}

void Simulator::setWallDeadline(double seconds) {
  if (seconds <= 0.0) {
    wallDeadlineNs_ = 0;
    return;
  }
  wallDeadlineNs_ =
      steadyNowNs() + static_cast<std::uint64_t>(seconds * 1e9);
}

void Simulator::checkWallDeadline() {
  if (steadyNowNs() >= wallDeadlineNs_) {
    throw WallClockTimeout{"Simulator::run: wall-clock deadline exceeded"};
  }
}

std::uint64_t Simulator::run(SimTime until) {
  stopped_ = false;
  // Pending events all have time >= now_, so nothing can fire — and the
  // bit-pattern horizon compare below assumes a non-negative `until`, which
  // this guard also establishes (matching the legacy kernel, which only
  // shed cancelled heads in this case).
  if (until < now_) {
    skipStale();
    return 0;
  }
  std::uint64_t ran = 0;
  const std::uint64_t untilBits = timeToBits(until);
  while (!heapKeys_.empty() && !stopped_) {
    if (heapKeys_.front().timeBits > untilBits && !stale(heapAux_.front())) {
      break;
    }
    ran += fireTop();
    if (wallDeadlineNs_ != 0 && (++wallCheckTick_ & kWallCheckMask) == 0) {
      checkWallDeadline();
    }
  }
  // The old kernel skipped cancelled heads before observing stop(), so a
  // queue holding only dead records still counted as drained.
  if (stopped_) skipStale();
  if (heapKeys_.empty() && now_ < until && until < kForever) now_ = until;
  return ran;
}

std::uint64_t Simulator::step(std::uint64_t n) {
  stopped_ = false;
  std::uint64_t ran = 0;
  while (ran < n && !heapKeys_.empty() && !stopped_) {
    ran += fireTop();
    if (wallDeadlineNs_ != 0 && (++wallCheckTick_ & kWallCheckMask) == 0) {
      checkWallDeadline();
    }
  }
  return ran;
}

}  // namespace glr::sim
