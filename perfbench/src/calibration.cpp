#include "calibration.hpp"

#include <array>
#include <cstdint>

#include "run_hook.hpp"

namespace perfbench {
namespace {

// Keeps the kernel's results alive, so the compiler cannot drop the work.
volatile std::uint64_t gSink = 0;

std::array<std::uint32_t, 16384> gTable{};

// Eight independent multiply-add chains: as many instructions in flight
// as the core allows.
std::uint64_t multiplyChains() {
  constexpr std::uint64_t kMul = 6364136223846793005ull;
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (int i = 0; i < 4000000; ++i) {
    a = a * kMul + 1;
    b = b * kMul + 3;
    c = c * kMul + 5;
    d = d * kMul + 7;
    e ^= a >> 7;
    f ^= b >> 9;
    g += c >> 11;
    h += d >> 13;
  }
  return a + b + c + d + e + f + g + h;
}

// Branches on xorshift bits, which no predictor learns, with loads and
// stores into a 64 KB table.
std::uint64_t unpredictableBranches() {
  gTable.fill(0);
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 2500000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint32_t v = gTable[x & 16383];
    if ((x & 1) != 0) {
      acc += v;
    } else if ((x & 2) != 0) {
      acc ^= static_cast<std::uint64_t>(v) << 1;
    } else {
      acc -= v >> 1;
    }
    gTable[(x >> 20) & 16383] = static_cast<std::uint32_t>(acc);
  }
  return acc;
}

}  // namespace

double referenceKernelSeconds() {
  const std::int64_t start = cpuNs();
  gSink = multiplyChains() + unpredictableBranches();
  return static_cast<double>(cpuNs() - start) * 1e-9;
}

}  // namespace perfbench
