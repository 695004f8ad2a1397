#pragma once
/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// A `Simulator` owns a time-ordered queue of events. An event is data: a
/// small POD record (`EventDesc`) whose `kind` selects a handler that the
/// owning component registered once, at construction, and whose other
/// fields carry everything that handler needs (event_kinds.hpp lists each
/// kind's fields). Ties are broken by insertion order, so runs are fully
/// deterministic. Scheduled events can be cancelled through the returned
/// `EventHandle` (used heavily by MAC timers).
///
/// The kernel is allocation-free on the hot path: records live in a
/// free-listed slab of one-cacheline slots, the priority queue is an
/// intrusive 4-ary heap of small `{time, seq, slot, generation}` records,
/// and cancellation is an O(1) generation bump with lazy heap removal. Once
/// the slab and heap vectors have grown to the scenario's working set,
/// scheduling, cancelling and firing events never touch the allocator.
/// Because a pending event is a record rather than a closure, checkpointing
/// the queue is a copy-out of records and restoring it a copy-in.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace glr::sim {

/// Simulation time in seconds.
using SimTime = double;

class Simulator;

/// What the queue orders: the IEEE-754 bit pattern of a non-negative time
/// (orders identically to the double) and the insertion sequence number that
/// breaks ties deterministically.
struct EventKey {
  std::uint64_t timeBits;
  std::uint64_t seq;
};

/// Queue payload: a {slot, generation} reference into the simulator's slab.
struct EventAux {
  std::uint32_t slot;
  std::uint32_t generation;
};

/// One event: the record a schedule site builds and its handler receives.
/// `kind` selects the handler (see event_kinds.hpp, which also says what
/// each field means for each kind); the kernel stores and returns the rest
/// untouched.
struct EventDesc {
  std::uint16_t kind = 0;
  std::uint8_t b0 = 0;
  std::uint8_t b1 = 0;
  std::int32_t i0 = 0;
  std::int32_t i1 = 0;
  std::uint64_t u0 = 0;
  std::uint64_t u1 = 0;
  double f0 = 0.0;
  double f1 = 0.0;
};

/// A registered event handler: `fn(ctx, desc)` runs when an event of its
/// kind fires. `ctx` is the owning component, which must outlive every
/// pending event of the kind (the same rule the `Simulator&` it holds
/// obeys).
struct EventHandler {
  void* ctx = nullptr;
  void (*fn)(void* ctx, const EventDesc& desc) = nullptr;
};

/// Thrown by run()/step() when a wall-clock deadline armed via
/// setWallDeadline() expires. The sweep watchdog catches this to count and
/// retry hung cells instead of letting them stall a whole experiment.
class WallClockTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cancellation token for a scheduled event: a trivially-copyable
/// `{slot, generation}` pair into the owning simulator's slab. Default-
/// constructed handles are inert; `cancel()` on an already-fired event is a
/// no-op, and a handle whose slot has been reused by a newer event is inert
/// too (the generation no longer matches). Handles must not outlive their
/// simulator — the same lifetime rule as the `Simulator&` every agent holds.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call repeatedly.
  void cancel();

  /// True if the event is still scheduled and will fire.
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot,
              std::uint32_t generation) noexcept
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Deterministic discrete-event scheduler. Neither copyable nor movable:
/// every EventHandle holds a pointer back to its simulator, so the object
/// must stay put for the handles' lifetime (agents hold `Simulator&`
/// references under the same rule).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Size of the handler table: kinds are 0 .. kMaxKinds - 1.
  static constexpr std::size_t kMaxKinds = 64;

  /// Registers the handler for `kind`, once per kind per simulator. Throws
  /// std::logic_error for kind 0 or out of range, or if another handler
  /// already owns the kind (registering the same handler again is a no-op).
  void setHandler(std::uint16_t kind, void* ctx,
                  void (*fn)(void* ctx, const EventDesc& desc));

  /// True if `kind` has a registered handler.
  [[nodiscard]] bool handles(std::uint16_t kind) const {
    return kind < kMaxKinds && handlers_[kind].fn != nullptr;
  }

  /// Current simulation time (seconds).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules the event `desc` at absolute time `t` (>= now); its kind must
  /// have a handler. Returns a handle that can cancel the event. Defined
  /// inline below: scheduling runs once per event on the hot path and must
  /// not cost a cross-TU call.
  EventHandle scheduleAt(SimTime t, const EventDesc& desc);

  /// Schedules the event `desc` `delay` seconds from now (delay >= 0).
  EventHandle schedule(SimTime delay, const EventDesc& desc) {
    return scheduleAt(now_ + delay, desc);
  }

  /// One live pending event, as the checkpoint layer sees it.
  struct PendingEvent {
    EventKey key;
    EventDesc desc;
  };

  /// Snapshot of every live (non-cancelled) pending event in exact fire
  /// order. Internally drains and re-inserts the queue records; the
  /// observable event sequence is unchanged — the heap pops the exact
  /// (time, seq) minimum regardless of internal layout, so re-insertion
  /// cannot reorder fires.
  [[nodiscard]] std::vector<PendingEvent> pendingEvents();

  /// Restore support: re-creates one pending event under an exact
  /// pre-assigned (timeBits, seq) key so tie-breaking after a restore is
  /// bit-identical to the snapshotted run. The time must be canonical and
  /// not before now(), the seq below nextSeq (set via restoreClock first),
  /// and the kind registered; std::invalid_argument otherwise.
  EventHandle scheduleKeyed(EventKey key, const EventDesc& desc);

  /// Restore support: discards every queued record (cancelled ones included)
  /// and releases their slots. The clock and counters are untouched.
  void clearPending();

  /// Restore support: overwrites clock, sequence counter and executed-event
  /// counter. Only legal while the queue is empty.
  void restoreClock(SimTime now, std::uint64_t nextSeq, std::uint64_t executed);

  /// Next insertion-order sequence number (checkpointed so restored runs
  /// break ties identically).
  [[nodiscard]] std::uint64_t nextSeq() const { return nextSeq_; }

  /// Canonical time <-> ordering-bit-pattern conversion. Public because
  /// event keys are persisted as bit patterns (checkpoint layer, tools).
  static std::uint64_t timeToBits(SimTime t) {
    // +0.0 canonicalizes -0.0 (whose bit pattern would misorder).
    return std::bit_cast<std::uint64_t>(t + 0.0);
  }

  static SimTime bitsToTime(std::uint64_t bits) {
    return std::bit_cast<SimTime>(bits);
  }

  /// Arms a wall-clock deadline: run()/step() throw WallClockTimeout once
  /// `seconds` of wall time elapse, checked every few thousand events so the
  /// hot loop cost is one counter increment. seconds <= 0 disarms.
  void setWallDeadline(double seconds);

  /// Runs events in time order until the queue is empty, `until` is reached,
  /// or `stop()` is called. Events scheduled exactly at `until` do fire.
  /// Returns the number of events executed by this call.
  std::uint64_t run(SimTime until = kForever);

  /// Executes at most `n` events (ignoring cancelled ones); used in tests.
  /// Like `run()`, returns early if an event calls `stop()`.
  std::uint64_t step(std::uint64_t n = 1);

  /// Requests `run()` (or `step()`) to return after the current event
  /// completes.
  void stop() { stopped_ = true; }

  /// Total events executed over the simulator's lifetime.
  [[nodiscard]] std::uint64_t eventsExecuted() const { return executed_; }

  /// Events currently queued (including cancelled-but-not-popped ones).
  [[nodiscard]] std::size_t queueSize() const { return heapKeys_.size(); }

  /// Whether there is at least one non-cancelled event pending.
  [[nodiscard]] bool hasPending();

  /// Pre-sizes the slab and heap for `events` concurrently-pending events so
  /// even the first scheduling burst never reallocates.
  void reserve(std::size_t events);

  static constexpr SimTime kForever = 1e300;

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kHeapArity = 4;

  /// Slab cell. An armed slot holds the event's record; a free slot links
  /// the free list. The generation counter is bumped whenever the slot's
  /// event fires or is cancelled, instantly invalidating stale handles and
  /// stale heap records. Cacheline-aligned: record + metadata fit one line,
  /// so arming/firing a slot touches a single line of the slab.
  struct alignas(64) Slot {
    EventDesc desc;
    std::uint32_t generation = 0;
    std::uint32_t nextFree = kNilSlot;
  };
  static_assert(sizeof(Slot) == 64, "a slot is one cache line");

  /// What the heap orders, split structure-of-arrays style: the sift loops
  /// touch only the 16-byte key array (4 children span at most two cache
  /// lines instead of three), while the {slot, generation} payload rides in
  /// a parallel array. Pops move 16-byte keys, never event records. Time is
  /// stored as its IEEE-754 bit pattern: sim times are non-negative, and
  /// non-negative doubles order identically to their bit patterns, so the
  /// comparator is pure integer work (no NaN/denormal edge cases in the hot
  /// loop) while breaking ties by insertion order exactly like the old
  /// (time, seq) comparator.
  static bool earlier(const EventKey& a, const EventKey& b) {
    // Distinct times dominate and the equality branch predicts ~always
    // taken; the data-random outcome below it compiles to setcc/cmov.
    if (a.timeBits != b.timeBits) return a.timeBits < b.timeBits;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool stale(const EventAux& a) const {
    return slab_[a.slot].generation != a.generation;
  }

  void heapPush(EventKey key, EventAux aux);
  void heapPopTop();

  /// Sinks the record in the hole at `i` to its place, assuming children of
  /// `i` may violate the heap property with respect to (key, aux).
  void siftDownHole(std::size_t i, EventKey key, EventAux aux);
  /// Discards records for cancelled/fired events at the head of the heap.
  void skipStale();
  /// Removes every stale record in one O(n) filter + Floyd heapify pass.
  /// Cancellation is lazy (records of cancelled events stay in the heap
  /// until popped), so a cancel-heavy phase — e.g. MAC ACK timers, which
  /// are cancelled on every successful delivery — would otherwise pay a
  /// full-depth sift per dead record and keep the heap artificially deep.
  /// The generation check makes dead records detectable in O(1), which is
  /// what makes this sweep possible at all.
  void compactHeap();

  std::uint32_t acquireSlot() {
    if (freeHead_ != kNilSlot) {
      const std::uint32_t slot = freeHead_;
      freeHead_ = slab_[slot].nextFree;
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    return slot;
  }

  /// Bumps the slot's generation and returns it to the free list.
  void releaseSlot(std::uint32_t slot) {
    Slot& s = slab_[slot];
    ++s.generation;  // stale handles and heap records become inert here
    s.nextFree = freeHead_;
    freeHead_ = slot;
  }

  /// Fires the head event (returns 1), or pops it without firing and
  /// returns 0 if its record is stale (cancelled event).
  std::uint64_t fireTop();

  bool cancelEvent(std::uint32_t slot, std::uint32_t generation) {
    if (!eventPending(slot, generation)) return false;
    // The heap record is left in place; pops discard it once its generation
    // no longer matches the slot's, and a compaction sweep reclaims them in
    // bulk when they pile up.
    releaseSlot(slot);
    ++staleCount_;
    if (staleCount_ > kCompactMinStale && staleCount_ * 2 > queueSize()) {
      compactHeap();
    }
    return true;
  }

  /// Compaction threshold: don't bother sweeping tiny heaps.
  static constexpr std::size_t kCompactMinStale = 64;
  [[nodiscard]] bool eventPending(std::uint32_t slot,
                                  std::uint32_t generation) const {
    return slot < slab_.size() && slab_[slot].generation == generation;
  }

  /// Throws std::invalid_argument naming an unregistered kind. Out of line:
  /// only reached on a defect.
  [[noreturn]] static void throwUnhandled(const char* where,
                                          std::uint16_t kind);

  /// Shared tail of scheduleAt and scheduleKeyed: stores `desc` in a fresh
  /// slot and queues it under `key`.
  EventHandle arm(EventKey key, const EventDesc& desc) {
    const std::uint32_t slot = acquireSlot();
    Slot& s = slab_[slot];
    s.desc = desc;
    heapPush(key, EventAux{slot, s.generation});
    return EventHandle{this, slot, s.generation};
  }

  /// Throws WallClockTimeout if the armed deadline has passed. Out of line:
  /// only reached every kWallCheckMask+1 events.
  void checkWallDeadline();

  static constexpr std::uint64_t kWallCheckMask = 0x1FFF;

  std::vector<Slot> slab_;
  std::uint32_t freeHead_ = kNilSlot;
  std::vector<EventKey> heapKeys_;
  std::vector<EventAux> heapAux_;
  /// Heap records whose event was cancelled (fired events pop immediately,
  /// cancelled ones linger); drives the compaction heuristic.
  std::size_t staleCount_ = 0;
  std::array<EventHandler, kMaxKinds> handlers_{};
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  /// Wall-clock deadline (steady-clock nanoseconds since epoch; 0 = none)
  /// and the event counter that rate-limits the clock reads.
  std::uint64_t wallDeadlineNs_ = 0;
  std::uint64_t wallCheckTick_ = 0;
};

inline void EventHandle::cancel() {
  if (sim_ != nullptr) sim_->cancelEvent(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->eventPending(slot_, generation_);
}

inline EventHandle Simulator::scheduleAt(SimTime t, const EventDesc& desc) {
  if (t < now_) {
    throw std::invalid_argument{"Simulator::scheduleAt: time is in the past"};
  }
  if (!handles(desc.kind)) throwUnhandled("scheduleAt", desc.kind);
  return arm(EventKey{timeToBits(t), nextSeq_++}, desc);
}

inline void Simulator::heapPush(EventKey key, EventAux aux) {
  // Hole insertion: shift parents down into the hole and place the record
  // once, instead of swap chains (one store per level, not three).
  std::size_t i = heapKeys_.size();
  heapKeys_.push_back(key);
  heapAux_.push_back(aux);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!earlier(key, heapKeys_[parent])) break;
    heapKeys_[i] = heapKeys_[parent];
    heapAux_[i] = heapAux_[parent];
    i = parent;
  }
  heapKeys_[i] = key;
  heapAux_[i] = aux;
}

}  // namespace glr::sim
