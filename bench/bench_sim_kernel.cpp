/// \file bench_sim_kernel.cpp
/// A/B microbenchmark of the event kernel: the allocation-free record kernel
/// (`glr::sim::Simulator`: POD event records in a slab, per-kind handlers, a
/// 4-ary heap) against the frozen pre-slab kernel
/// (`bench/legacy_simulator.hpp`: shared_ptr cancellation flags,
/// std::function closures, priority_queue of full events).
///
/// Three microbench shapes cover the kernel's hot paths, each driven by
/// identical RNG streams on both kernels so the event sequences match:
///   * schedule-drain  — bulk scheduling then a full drain (pure push/pop).
///   * timer-churn     — steady state at fixed queue depth: every fired
///                       event reschedules one successor (MAC beacons,
///                       periodic route checks).
///   * cancel-churn    — ack-timer pattern: every fired event schedules a
///                       successor plus a timeout that is cancelled before
///                       it can fire (MAC ACK timeouts, custody timers).
/// The legacy kernel runs closures; the record kernel runs the same payload
/// as records through a trivial registered handler, which is the path every
/// scenario event takes. Plus an end-to-end `runScenario` timing on the
/// mid-size GLR scenario the determinism regression test pins.
///
/// Usage: bench_sim_kernel [--quick] [--out FILE.json]
///   --quick  CI mode: small event counts, skips the end-to-end scenario.
///   --out    write machine-readable results (default BENCH_kernel.json;
///            see README "Simulation kernel & performance"), stamped with
///            the host (CPU, cores, compiler, build type, git sha).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/scenario.hpp"
#include "legacy_simulator.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timer payload mirroring the protocol stack's custody/cache timers
/// (`{key, deadline, hop}` state per event, as glr_agent.cpp's custody
/// records carry). With the context pointer it exceeds libstdc++
/// std::function's 16-byte small-object buffer, so the legacy kernel heap-
/// allocates (and copy-allocates again on pop) for every such timer. The
/// record kernel carries it in the record: u0 = key, f0 = deadline,
/// i0 = hop.
struct TimerPayload {
  long long key;
  double deadline;
  int hop;
};

/// Executed-event count plus an order-sensitive checksum over the fired
/// payload keys: if the two kernels ever fired events in different orders,
/// the checksums diverge even though the counts cannot.
struct KernelRun {
  std::uint64_t executed = 0;
  std::uint64_t checksum = 0;
};

/// Bulk schedule `n` events at uniform random times, then drain.
template <class Sim>
KernelRun scheduleDrain(std::uint64_t n) {
  Sim sim;
  glr::sim::Rng rng{42};
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1000.0),
                         static_cast<int>(i & 7)};
    sim.schedule(p.deadline, [p, &sink] {
      sink = sink * 31 + static_cast<std::uint64_t>(p.key);
    });
  }
  sim.run();
  return {sim.eventsExecuted(), sink};
}

template <class Sim>
struct ChurnCtx {
  Sim& sim;
  glr::sim::Rng& rng;
  std::uint64_t remaining;
  std::uint64_t sink = 0;
};

/// Steady-state churn at queue depth `depth`: each fired event schedules its
/// replacement (periodic beacons / route checks) until `n` events have run.
template <class Sim>
std::uint64_t churnChecksum(ChurnCtx<Sim>& c, const TimerPayload& p) {
  return c.sink * 31 + static_cast<std::uint64_t>(p.key);
}

template <class Sim>
KernelRun timerChurn(std::uint64_t n, std::uint64_t depth) {
  Sim sim;
  glr::sim::Rng rng{43};
  ChurnCtx<Sim> ctx{sim, rng, n};
  struct Tick {
    static void fire(ChurnCtx<Sim>& c, const TimerPayload& p) {
      c.sink = churnChecksum(c, p);
      if (c.remaining == 0) return;
      --c.remaining;
      const TimerPayload np{p.key + 1, c.rng.uniform(0.0, 1.0), p.hop + 1};
      c.sim.schedule(np.deadline, [&c, np] { fire(c, np); });
    }
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1.0), 0};
    sim.schedule(p.deadline, [&ctx, p] { Tick::fire(ctx, p); });
  }
  sim.run();
  return {sim.eventsExecuted(), ctx.sink};
}

/// Ack-timer pattern: each fired event schedules one successor plus a
/// near-future timeout it immediately cancels (one cancel per fired event,
/// exercising handle creation and the lazy removal of stale heap records as
/// simulation time passes them).
template <class Sim, class Handle>
KernelRun cancelChurn(std::uint64_t n, std::uint64_t depth) {
  Sim sim;
  glr::sim::Rng rng{44};
  ChurnCtx<Sim> ctx{sim, rng, n};
  struct Tick {
    static void fire(ChurnCtx<Sim>& c, const TimerPayload& p) {
      c.sink = churnChecksum(c, p);
      if (c.remaining == 0) return;
      --c.remaining;
      const TimerPayload tp{~p.key, 2.0 + c.rng.uniform(0.0, 1.0), p.hop};
      Handle timeout = c.sim.schedule(
          tp.deadline, [&c, tp] { c.sink = churnChecksum(c, tp); });
      const TimerPayload np{p.key + 1, c.rng.uniform(0.0, 1.0), p.hop + 1};
      c.sim.schedule(np.deadline, [&c, np] { fire(c, np); });
      timeout.cancel();  // a timeout that fires anyway poisons the checksum
    }
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1.0), 0};
    sim.schedule(p.deadline, [&ctx, p] { Tick::fire(ctx, p); });
  }
  sim.run();
  return {sim.eventsExecuted(), ctx.sink};
}

// ---- The same three shapes on the record kernel -------------------------

constexpr std::uint16_t kTick = 1;
constexpr std::uint16_t kTimeout = 2;

glr::sim::EventDesc tickRecord(const TimerPayload& p) {
  glr::sim::EventDesc d;
  d.kind = kTick;
  d.u0 = static_cast<std::uint64_t>(p.key);
  d.f0 = p.deadline;
  d.i0 = p.hop;
  return d;
}

/// Folds a fired record's key into the checksum (the legacy closures fold
/// their captured key the same way).
void foldKey(void* sink, const glr::sim::EventDesc& e) {
  auto& s = *static_cast<std::uint64_t*>(sink);
  s = s * 31 + e.u0;
}

KernelRun scheduleDrainRecords(std::uint64_t n) {
  glr::sim::Simulator sim;
  glr::sim::Rng rng{42};
  std::uint64_t sink = 0;
  sim.setHandler(kTick, &sink, &foldKey);
  for (std::uint64_t i = 0; i < n; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1000.0),
                         static_cast<int>(i & 7)};
    sim.schedule(p.deadline, tickRecord(p));
  }
  sim.run();
  return {sim.eventsExecuted(), sink};
}

using RecordCtx = ChurnCtx<glr::sim::Simulator>;

KernelRun timerChurnRecords(std::uint64_t n, std::uint64_t depth) {
  glr::sim::Simulator sim;
  glr::sim::Rng rng{43};
  RecordCtx ctx{sim, rng, n};
  sim.setHandler(kTick, &ctx, [](void* p, const glr::sim::EventDesc& e) {
    auto& c = *static_cast<RecordCtx*>(p);
    c.sink = c.sink * 31 + e.u0;
    if (c.remaining == 0) return;
    --c.remaining;
    glr::sim::EventDesc next = e;
    next.u0 = e.u0 + 1;
    next.f0 = c.rng.uniform(0.0, 1.0);
    next.i0 = e.i0 + 1;
    c.sim.schedule(next.f0, next);
  });
  for (std::uint64_t i = 0; i < depth; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1.0), 0};
    sim.schedule(p.deadline, tickRecord(p));
  }
  sim.run();
  return {sim.eventsExecuted(), ctx.sink};
}

KernelRun cancelChurnRecords(std::uint64_t n, std::uint64_t depth) {
  glr::sim::Simulator sim;
  glr::sim::Rng rng{44};
  RecordCtx ctx{sim, rng, n};
  sim.setHandler(kTick, &ctx, [](void* p, const glr::sim::EventDesc& e) {
    auto& c = *static_cast<RecordCtx*>(p);
    c.sink = c.sink * 31 + e.u0;
    if (c.remaining == 0) return;
    --c.remaining;
    glr::sim::EventDesc timeout = e;
    timeout.kind = kTimeout;
    timeout.u0 = ~e.u0;
    timeout.f0 = 2.0 + c.rng.uniform(0.0, 1.0);
    glr::sim::EventHandle h = c.sim.schedule(timeout.f0, timeout);
    glr::sim::EventDesc next = e;
    next.u0 = e.u0 + 1;
    next.f0 = c.rng.uniform(0.0, 1.0);
    next.i0 = e.i0 + 1;
    c.sim.schedule(next.f0, next);
    h.cancel();  // a timeout that fires anyway poisons the checksum
  });
  sim.setHandler(kTimeout, &ctx.sink, &foldKey);
  for (std::uint64_t i = 0; i < depth; ++i) {
    const TimerPayload p{static_cast<long long>(i), rng.uniform(0.0, 1.0), 0};
    sim.schedule(p.deadline, tickRecord(p));
  }
  sim.run();
  return {sim.eventsExecuted(), ctx.sink};
}

struct MicroResult {
  std::string name;
  std::uint64_t events = 0;
  double legacySeconds = 0;
  double slabSeconds = 0;
  KernelRun legacyRun;
  KernelRun slabRun;

  [[nodiscard]] double legacyMevps() const {
    return static_cast<double>(events) / legacySeconds / 1e6;
  }
  [[nodiscard]] double slabMevps() const {
    return static_cast<double>(events) / slabSeconds / 1e6;
  }
  [[nodiscard]] double speedup() const { return legacySeconds / slabSeconds; }
};

template <class Fn>
double timeBestOf(int reps, const Fn& fn, KernelRun* run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    *run = fn();
    best = std::min(best, secondsSince(t0));
  }
  return best;
}

MicroResult runMicro(const std::string& name, std::uint64_t events,
                     std::uint64_t depth, int reps) {
  using LegacySim = glr::bench::legacy::Simulator;
  using LegacyHandle = glr::bench::legacy::EventHandle;

  MicroResult m;
  m.name = name;
  m.events = events;
  if (name == "schedule-drain") {
    m.legacySeconds = timeBestOf(
        reps, [&] { return scheduleDrain<LegacySim>(events); }, &m.legacyRun);
    m.slabSeconds = timeBestOf(
        reps, [&] { return scheduleDrainRecords(events); }, &m.slabRun);
  } else if (name == "timer-churn") {
    m.legacySeconds = timeBestOf(
        reps, [&] { return timerChurn<LegacySim>(events, depth); },
        &m.legacyRun);
    m.slabSeconds = timeBestOf(
        reps, [&] { return timerChurnRecords(events, depth); }, &m.slabRun);
  } else {
    m.legacySeconds = timeBestOf(
        reps,
        [&] { return cancelChurn<LegacySim, LegacyHandle>(events, depth); },
        &m.legacyRun);
    m.slabSeconds = timeBestOf(
        reps, [&] { return cancelChurnRecords(events, depth); }, &m.slabRun);
  }
  std::printf("%-16s %9llu events  legacy %7.2f Mev/s  slab %7.2f Mev/s  "
              "speedup %.2fx\n",
              m.name.c_str(), static_cast<unsigned long long>(m.events),
              m.legacyMevps(), m.slabMevps(), m.speedup());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE.json]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Event-kernel A/B bench: legacy (shared_ptr + std::function + "
              "priority_queue) vs slab (%s mode)\n",
              quick ? "quick" : "full");

  const int reps = quick ? 1 : 3;
  std::vector<MicroResult> micros;
  if (quick) {
    micros.push_back(runMicro("schedule-drain", 100000, 0, reps));
    micros.push_back(runMicro("timer-churn", 100000, 1000, reps));
    micros.push_back(runMicro("cancel-churn", 100000, 1000, reps));
  } else {
    micros.push_back(runMicro("schedule-drain", 100000, 0, reps));
    micros.push_back(runMicro("schedule-drain", 1000000, 0, reps));
    micros.push_back(runMicro("schedule-drain", 10000000, 0, reps));
    micros.push_back(runMicro("timer-churn", 10000000, 1000, reps));
    micros.push_back(runMicro("cancel-churn", 10000000, 1000, reps));
  }

  // Cross-check: both kernels must have fired the same events in the same
  // order — the checksum folds each fired payload key in order, so a
  // tie-break or cancellation divergence flips it even when counts match.
  for (const auto& m : micros) {
    if (m.legacyRun.executed != m.slabRun.executed ||
        m.legacyRun.checksum != m.slabRun.checksum) {
      std::fprintf(
          stderr,
          "FATAL: kernel divergence in %s: executed %llu vs %llu, "
          "checksum %016llx vs %016llx\n",
          m.name.c_str(), static_cast<unsigned long long>(m.legacyRun.executed),
          static_cast<unsigned long long>(m.slabRun.executed),
          static_cast<unsigned long long>(m.legacyRun.checksum),
          static_cast<unsigned long long>(m.slabRun.checksum));
      return 1;
    }
  }

  // End-to-end: the determinism regression test's mid-size GLR scenario.
  glr::experiment::ScenarioResult e2e;
  if (!quick) {
    glr::experiment::ScenarioConfig cfg;
    cfg.protocol = glr::experiment::Protocol::kGlr;
    cfg.simTime = 400.0;
    cfg.numMessages = 200;
    cfg.radius = 100.0;
    cfg.seed = 7;
    double bestWall = 1e300;
    for (int r = 0; r < reps; ++r) {
      auto res = glr::experiment::runScenario(cfg);
      if (res.wallSeconds < bestWall) {
        bestWall = res.wallSeconds;
        e2e = res;
      }
    }
    std::printf("end-to-end GLR   %9llu events  wall %.3fs  %7.2f Mev/s\n",
                static_cast<unsigned long long>(e2e.eventsExecuted),
                e2e.wallSeconds,
                static_cast<double>(e2e.eventsExecuted) / e2e.wallSeconds /
                    1e6);
  }

  FILE* out = std::fopen(outPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"sim_kernel\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  glr::bench::writeHostStamp(out);
  std::fprintf(out,
               "  \"legacy\": \"shared_ptr+std::function+priority_queue\",\n");
  std::fprintf(out, "  \"slab\": \"slab+generation-handles+4ary-heap+"
                    "event-records\",\n");
  std::fprintf(out, "  \"micro\": [\n");
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const auto& m = micros[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"legacy_mev_per_s\": %.3f, \"slab_mev_per_s\": %.3f, "
                 "\"speedup\": %.3f}%s\n",
                 m.name.c_str(), static_cast<unsigned long long>(m.events),
                 m.legacyMevps(), m.slabMevps(), m.speedup(),
                 i + 1 < micros.size() ? "," : "");
  }
  std::fprintf(out, "  ]");
  if (!quick) {
    std::fprintf(out,
                 ",\n  \"end_to_end\": {\"scenario\": "
                 "\"glr-50n-400s-200msg-seed7\", \"events\": %llu, "
                 "\"wall_seconds\": %.3f, \"mev_per_s\": %.3f}",
                 static_cast<unsigned long long>(e2e.eventsExecuted),
                 e2e.wallSeconds,
                 static_cast<double>(e2e.eventsExecuted) / e2e.wallSeconds /
                     1e6);
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}
