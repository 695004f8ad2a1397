#pragma once
/// \file run_hook.hpp
/// CPU-time stamps of the last `Simulator::run` call, taken by a link-time
/// wrapper (run_hook.cpp; every benchmark binary links with
/// `--wrap=_ZN3glr3sim9Simulator3runEd`). They split a `runScenario` call
/// into set-up (entry to `Simulator::run`) and the simulation proper.
///
/// The stamps are the calling thread's CPU time, not wall time: time the
/// thread spends preempted or stolen by the hypervisor on a shared host is
/// not charged to the program.

#include <time.h>

#include <cstdint>

namespace perfbench {

struct RunClock {
  std::int64_t enterNs = 0;
  std::int64_t exitNs = 0;
  std::uint64_t calls = 0;
};

inline RunClock gRunClock;

/// CPU time consumed by the calling thread, in nanoseconds.
[[nodiscard]] inline std::int64_t cpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace perfbench
