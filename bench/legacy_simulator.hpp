#pragma once
/// \file legacy_simulator.hpp
/// Frozen copy of the pre-slab event kernel (shared_ptr cancellation flags,
/// std::function callbacks, priority_queue of full Event structs). Kept
/// header-only under bench/ so `bench_sim_kernel` can measure the old and new
/// kernels side by side in one binary, and so tests/test_sim.cpp can use it
/// as the event-ordering oracle; nothing in src/ may include this.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace glr::bench::legacy {

using SimTime = double;

/// Cancellation token backed by a heap-allocated shared flag.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel() {
    if (auto p = alive_.lock()) *p = false;
  }

  [[nodiscard]] bool pending() const {
    auto p = alive_.lock();
    return p && *p;
  }

 private:
  friend class Simulator;
  explicit EventHandle(std::weak_ptr<bool> alive) : alive_(std::move(alive)) {}
  std::weak_ptr<bool> alive_;
};

/// The old deterministic scheduler, verbatim: three allocator round-trips per
/// event (shared flag, std::function closure, Event copy out of top()).
class Simulator {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  EventHandle scheduleAt(SimTime t, Callback fn) {
    if (t < now_) {
      throw std::invalid_argument{"Simulator::scheduleAt: time is in the past"};
    }
    if (!fn) {
      throw std::invalid_argument{"Simulator::scheduleAt: empty callback"};
    }
    Event ev;
    ev.time = t;
    ev.seq = nextSeq_++;
    ev.fn = std::move(fn);
    ev.alive = std::make_shared<bool>(true);
    EventHandle handle{std::weak_ptr<bool>{ev.alive}};
    queue_.push(std::move(ev));
    return handle;
  }

  EventHandle schedule(SimTime delay, Callback fn) {
    return scheduleAt(now_ + delay, std::move(fn));
  }

  std::uint64_t run(SimTime until = kForever) {
    stopped_ = false;
    std::uint64_t ran = 0;
    for (;;) {
      skipCancelled();
      if (queue_.empty() || stopped_) break;
      if (queue_.top().time > until) break;
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      *ev.alive = false;
      ev.fn();
      ++ran;
      ++executed_;
    }
    if (queue_.empty() && now_ < until && until < kForever) now_ = until;
    return ran;
  }

  std::uint64_t step(std::uint64_t n = 1) {
    std::uint64_t ran = 0;
    while (ran < n) {
      skipCancelled();
      if (queue_.empty()) break;
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.time;
      *ev.alive = false;
      ev.fn();
      ++ran;
      ++executed_;
    }
    return ran;
  }

  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t eventsExecuted() const { return executed_; }
  [[nodiscard]] std::size_t queueSize() const { return queue_.size(); }

  [[nodiscard]] bool hasPending() {
    skipCancelled();
    return !queue_.empty();
  }

  static constexpr SimTime kForever = 1e300;

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Callback fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void skipCancelled() {
    while (!queue_.empty() && !*queue_.top().alive) queue_.pop();
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace glr::bench::legacy
