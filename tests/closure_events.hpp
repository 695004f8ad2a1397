#pragma once
/// \file closure_events.hpp
/// Test adapter: schedules closures on the record-based event kernel.
///
/// The kernel fires POD records through per-kind handlers, so a closure
/// cannot be an event. Tests that want one lambda per event use this
/// adapter instead: it registers one kind (kClosureKind, outside the
/// library's kinds) whose records carry an index into a closure table in
/// u0. A fired closure frees its table slot; a cancelled one keeps it until
/// the adapter is destroyed, which only tests can afford. Not part of the
/// library.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace glr::test {

/// The kind this adapter registers: the handler table's last slot.
inline constexpr std::uint16_t kClosureKind = sim::Simulator::kMaxKinds - 1;

class Closures {
 public:
  explicit Closures(sim::Simulator& sim) : sim_(sim) {
    sim.setHandler(kClosureKind, this, &fire);
  }
  Closures(const Closures&) = delete;
  Closures& operator=(const Closures&) = delete;

  /// Runs `fn` at absolute time `t`, like Simulator::scheduleAt.
  sim::EventHandle scheduleAt(sim::SimTime t, std::function<void()> fn) {
    return sim_.scheduleAt(t, record(std::move(fn)));
  }

  /// Runs `fn` `delay` seconds from now, like Simulator::schedule.
  sim::EventHandle schedule(sim::SimTime delay, std::function<void()> fn) {
    return scheduleAt(sim_.now() + delay, std::move(fn));
  }

 private:
  sim::EventDesc record(std::function<void()> fn) {
    sim::EventDesc d;
    d.kind = kClosureKind;
    if (free_.empty()) {
      d.u0 = fns_.size();
      fns_.push_back(std::move(fn));
    } else {
      d.u0 = free_.back();
      free_.pop_back();
      fns_[d.u0] = std::move(fn);
    }
    return d;
  }

  static void fire(void* self, const sim::EventDesc& d) {
    auto& c = *static_cast<Closures*>(self);
    // Moved out first: the closure may schedule more closures, which can
    // reuse this slot or grow the table.
    std::function<void()> fn = std::move(c.fns_[d.u0]);
    c.free_.push_back(d.u0);
    fn();
  }

  sim::Simulator& sim_;
  std::vector<std::function<void()>> fns_;
  std::vector<std::uint64_t> free_;
};

}  // namespace glr::test
