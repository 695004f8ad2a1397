// Tests for the discrete-event kernel and the deterministic RNG.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "../bench/legacy_simulator.hpp"
#include "dtn/message.hpp"
#include "experiment/scenario.hpp"
#include "sim/inplace_function.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using glr::sim::EventHandle;
using glr::sim::InplaceFunction;
using glr::sim::Rng;
using glr::sim::Simulator;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(2.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  const auto ran = sim.run(2.0);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(fired, 2);
  // Event exactly at the horizon fires; the later one remains.
  EXPECT_TRUE(sim.hasPending());
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 5) sim.schedule(1.5, tick);
  };
  sim.schedule(0.0, tick);
  sim.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_DOUBLE_EQ(times[i], 1.5 * static_cast<double>(i));
  }
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule(1.0, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.hasPending());
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_THROW(sim.scheduleAt(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, EmptyCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(1.0, Simulator::Callback{}), std::invalid_argument);
}

TEST(Simulator, StepExecutesExactlyN) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [&] { ++fired; });
  EXPECT_EQ(sim.step(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.step(10), 3u);
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, AdvancesToHorizonWhenQueueEmpty) {
  Simulator sim;
  sim.run(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, RunWithHorizonInPastFiresNothing) {
  Simulator sim;
  int fired = 0;
  sim.schedule(5.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.schedule(1.0, [&] { ++fired; });  // pending at t = 6
  EXPECT_EQ(sim.run(2.0), 0u);  // horizon already behind now: no-op
  EXPECT_EQ(sim.run(-1.0), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepHonorsStop) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule(2.0, [&] { ++fired; });
  sim.schedule(3.0, [&] { ++fired; });
  // stop() from inside an event ends the step() batch early, exactly like
  // run(); the remaining events stay queued.
  EXPECT_EQ(sim.step(3), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.hasPending());
  // A fresh step() clears the latch (same contract as run()).
  EXPECT_EQ(sim.step(3), 2u);
  EXPECT_EQ(fired, 3);
}

// ---------------------------------------------------------------------------
// Generation-based EventHandle semantics: handles are cheap value tokens that
// must stay inert across cancellation, firing, and slab slot reuse.
// ---------------------------------------------------------------------------

TEST(EventHandle, IsTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<EventHandle>);
  SUCCEED();
}

TEST(EventHandle, DoubleCancelIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule(1.0, [&] { ++fired; });
  EventHandle copy = h;  // value token: copies target the same event
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(copy.pending());
  h.cancel();
  copy.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventHandle, CancelledHandleOutlivingReusedSlotIsInert) {
  Simulator sim;
  int oldFired = 0;
  int newFired = 0;
  EventHandle stale = sim.schedule(1.0, [&] { ++oldFired; });
  stale.cancel();  // frees the slot: the next schedule reuses it
  EventHandle fresh = sim.schedule(2.0, [&] { ++newFired; });
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  stale.cancel();  // must NOT kill the new occupant of the recycled slot
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(oldFired, 0);
  EXPECT_EQ(newFired, 1);
}

TEST(EventHandle, FiredHandleOutlivingReusedSlotIsInert) {
  Simulator sim;
  int firstFired = 0;
  EventHandle stale = sim.schedule(1.0, [&] { ++firstFired; });
  sim.run();
  EXPECT_EQ(firstFired, 1);

  int secondFired = 0;
  EventHandle fresh = sim.schedule(1.0, [&] { ++secondFired; });
  EXPECT_FALSE(stale.pending());
  stale.cancel();  // stale generation: the recycled slot must be untouched
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_EQ(secondFired, 1);
}

TEST(EventHandle, CancelFromInsideOwnCallbackIsNoop) {
  Simulator sim;
  int other = 0;
  EventHandle self;
  self = sim.schedule(1.0, [&] {
    // By firing time the slot is already released; a self-cancel must not
    // disturb whatever reuses it.
    self.cancel();
    sim.schedule(1.0, [&] { ++other; });
  });
  sim.run();
  EXPECT_EQ(other, 1);
}

TEST(EventHandle, CancellationStressChurn) {
  // Heavy schedule/cancel churn with slot reuse: every event either fires
  // exactly once or was cancelled, never both, across enough rounds that the
  // slab free list cycles thousands of times.
  Simulator sim;
  Rng rng{2024};
  constexpr int kEvents = 20000;
  std::vector<int> fired(kEvents, 0);
  std::vector<EventHandle> handles;
  std::vector<bool> cancelled(kEvents, false);
  handles.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(
        sim.schedule(rng.uniform(0.0, 50.0), [&fired, i] { ++fired[i]; }));
    // Cancel a random earlier (possibly already cancelled) event now and
    // then, and sometimes the one just scheduled.
    if (rng.bernoulli(0.4)) {
      const auto victim = static_cast<int>(rng.below(i + 1));
      handles[static_cast<std::size_t>(victim)].cancel();
      cancelled[static_cast<std::size_t>(victim)] = true;
    }
  }
  sim.run();
  int firedCount = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (cancelled[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(fired[static_cast<std::size_t>(i)], 0) << "event " << i;
    } else {
      EXPECT_EQ(fired[static_cast<std::size_t>(i)], 1) << "event " << i;
    }
    firedCount += fired[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(sim.eventsExecuted(), static_cast<std::uint64_t>(firedCount));
  EXPECT_EQ(sim.queueSize(), 0u);
}

/// Runs a randomized schedule/cancel/horizon script against one kernel and
/// returns the exact firing log, ending with the executed-event count.
template <class Sim>
std::vector<std::pair<double, int>> runScript(std::uint64_t seed) {
  Sim sim;
  Rng rng{seed};
  std::vector<std::pair<double, int>> fired;
  std::vector<decltype(sim.schedule(0.0, [] {}))> handles;
  int nextId = 0;
  for (int round = 0; round < 10; ++round) {
    const double base = 10.0 * round;
    for (int k = 0; k < 200; ++k) {
      // Coarse-grained times force plenty of exact ties; the occasional
      // far-future event stays queued across every horizon.
      double t = base + 0.25 * static_cast<double>(rng.below(60));
      if (rng.below(50) == 0) t += 1.0e4;
      const int id = nextId++;
      handles.push_back(sim.scheduleAt(
          t, [&fired, &sim, id] { fired.emplace_back(sim.now(), id); }));
      if (rng.below(4) == 0) {
        // Cancel a random earlier event; already-fired handles are inert.
        handles[rng.below(handles.size())].cancel();
      }
    }
    sim.run(base + 10.0);
  }
  sim.run();
  fired.emplace_back(static_cast<double>(sim.eventsExecuted()), -1);
  return fired;
}

TEST(Simulator, MatchesLegacyKernelOnRandomScheduleCancelInterleavings) {
  // The frozen pre-slab kernel (shared_ptr flags + priority_queue) is the
  // ordering oracle: same (time, seq) tie-break, same cancel semantics.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto slab = runScript<Simulator>(seed);
    const auto legacy = runScript<glr::bench::legacy::Simulator>(seed);
    ASSERT_EQ(slab.size(), legacy.size()) << "seed " << seed;
    for (std::size_t i = 0; i < slab.size(); ++i) {
      EXPECT_EQ(slab[i].first, legacy[i].first)
          << "seed " << seed << " i " << i;
      EXPECT_EQ(slab[i].second, legacy[i].second)
          << "seed " << seed << " i " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// InplaceFunction: the kernel's small-buffer callback type. Every callback
// the protocol stack schedules must fit the inline buffer (the no-allocation
// invariant); larger callables must still work via the heap fallback.
// ---------------------------------------------------------------------------

TEST(InplaceFunction, ProtocolStackCallbacksFitInline) {
  using Callback = Simulator::Callback;
  void* self = nullptr;
  // Capture shapes taken from the actual call sites.
  auto macTimer = [self] { (void)self; };              // mac.cpp backoff/ack
  bool broadcast = true;
  auto macTxEnd = [self, broadcast] { (void)self, (void)broadcast; };
  std::uint64_t txId = 0;
  auto channelEnd = [self, txId] { (void)self, (void)txId; };  // channel.cpp
  int dst = 0;
  std::uint64_t seq = 0;
  double ackDur = 0.0;
  auto macAck = [self, dst, seq, ackDur] {             // mac.cpp ACK reply
    (void)self, (void)dst, (void)seq, (void)ackDur;
  };
  glr::dtn::CopyKey key;
  int to = 0, attempt = 0;
  auto custodyAck = [self, key, to, attempt] {         // glr_agent.cpp
    (void)self, (void)key, (void)to, (void)attempt;
  };
  double sentAt = 0.0;
  auto cacheTimeout = [self, key, sentAt] {            // glr_agent.cpp
    (void)self, (void)key, (void)sentAt;
  };
  static_assert(Callback::kFitsInline<decltype(macTimer)>);
  static_assert(Callback::kFitsInline<decltype(macTxEnd)>);
  static_assert(Callback::kFitsInline<decltype(channelEnd)>);
  static_assert(Callback::kFitsInline<decltype(macAck)>);
  static_assert(Callback::kFitsInline<decltype(custodyAck)>);
  static_assert(Callback::kFitsInline<decltype(cacheTimeout)>);
  SUCCEED();
}

TEST(InplaceFunction, OversizedCallableFallsBackToHeapAndRuns) {
  using Callback = Simulator::Callback;
  std::array<std::uint64_t, 16> big{};  // 128 bytes: over the inline budget
  big[7] = 42;
  int out = 0;
  auto fat = [big, &out] { out = static_cast<int>(big[7]); };
  static_assert(!Callback::kFitsInline<decltype(fat)>);
  Simulator sim;
  sim.schedule(1.0, fat);
  sim.run();
  EXPECT_EQ(out, 42);
}

TEST(InplaceFunction, MoveTransfersOwnership) {
  InplaceFunction<int()> a = [] { return 7; };
  InplaceFunction<int()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b(), 7);
  a = std::move(b);
  EXPECT_EQ(a(), 7);
  a.reset();
  EXPECT_FALSE(static_cast<bool>(a));
}

// ---------------------------------------------------------------------------
// Kernel regression: a mid-size GLR scenario must produce exactly the
// ScenarioResult the pre-slab kernel (shared_ptr + std::function +
// priority_queue) produced. The golden numbers below were captured from that
// kernel at commit 2ba2f4a with this exact configuration; any divergence
// means the slab kernel changed event ordering or cancellation semantics.
// ---------------------------------------------------------------------------

TEST(KernelRegression, MidSizeGlrScenarioIsBitIdenticalToLegacyKernel) {
  glr::experiment::ScenarioConfig cfg;
  cfg.protocol = glr::experiment::Protocol::kGlr;
  cfg.simTime = 400.0;
  cfg.numMessages = 200;
  cfg.radius = 100.0;
  cfg.seed = 7;
  const auto r = glr::experiment::runScenario(cfg);

  EXPECT_EQ(r.created, 200u);
  EXPECT_EQ(r.delivered, 198u);
  EXPECT_EQ(r.deliveryRatio, 0.98999999999999999);
  EXPECT_EQ(r.avgLatency, 45.265223520228908);
  EXPECT_EQ(r.avgHops, 55.247474747474747);
  EXPECT_EQ(r.maxPeakStorage, 47.0);
  EXPECT_EQ(r.avgPeakStorage, 20.920000000000005);
  EXPECT_EQ(r.macDataTx, 130109u);
  EXPECT_EQ(r.macQueueDrops, 0u);
  EXPECT_EQ(r.macRetryDrops, 153u);
  EXPECT_EQ(r.collisions, 3044u);
  EXPECT_EQ(r.airTimeSeconds, 543.48595200198486);
  EXPECT_EQ(r.duplicateDeliveries, 0u);
  EXPECT_EQ(r.perturbations, 0u);
  EXPECT_EQ(r.glrDataSent, 50662u);
  EXPECT_EQ(r.glrDataReceived, 50526u);
  EXPECT_EQ(r.glrDuplicatesDropped, 9u);
  EXPECT_EQ(r.glrCustodyAcksSent, 50526u);
  EXPECT_EQ(r.glrCustodyAcksReceived, 50510u);
  EXPECT_EQ(r.glrCacheTimeouts, 15u);
  EXPECT_EQ(r.glrTxFailures, 137u);
  EXPECT_EQ(r.glrFaceTransitions, 5902u);
  EXPECT_EQ(r.eventsExecuted, 2385279u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng master{99};
  Rng f1 = master.fork(0);
  Rng f2 = master.fork(1);
  Rng f1again = Rng{99}.fork(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(f1(), f1again());
  }
  // Forks with different stream ids produce different streams.
  Rng g1 = Rng{99}.fork(0);
  Rng g2 = Rng{99}.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (g1() == g2()) ++same;
  }
  EXPECT_LT(same, 5);
  (void)f2;
}

TEST(Rng, Uniform01InRange) {
  Rng rng{7};
  double minv = 1.0, maxv = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    minv = std::min(minv, u);
    maxv = std::max(maxv, u);
  }
  EXPECT_LT(minv, 0.01);
  EXPECT_GT(maxv, 0.99);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.05);
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange) {
  Rng rng{13};
  std::vector<int> counts(7, 0);
  const int n = 700000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, n / 7.0 * 0.05);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng{17};
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    if (v == -3) sawLo = true;
    if (v == 3) sawHi = true;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{19};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng{21};
  EXPECT_THROW((void)rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)rng.exponential(-1.0), std::invalid_argument);
}

}  // namespace
