// Link-time wrapper around glr::sim::Simulator::run(double), linked into
// every benchmark binary. Each wrapper below is declared with the wrapped
// member function's parameter types, `this` first, which is how the
// Itanium C++ ABI passes them, so the call reaches the real function
// unchanged.

#include <cstdint>

#include "run_hook.hpp"
#include "sim/simulator.hpp"
#include "span_tracker.hpp"

extern "C" std::uint64_t __real__ZN3glr3sim9Simulator3runEd(
    glr::sim::Simulator* self, double until);

extern "C" std::uint64_t __wrap__ZN3glr3sim9Simulator3runEd(
    glr::sim::Simulator* self, double until) {
  perfbench::RunClock& clock = perfbench::gRunClock;
  ++clock.calls;
  clock.enterNs = perfbench::cpuNs();
  std::uint64_t executed = 0;
  {
    perfbench::ScopedSpan span(perfbench::kRun);
    executed = __real__ZN3glr3sim9Simulator3runEd(self, until);
  }
  clock.exitNs = perfbench::cpuNs();
  return executed;
}
