#pragma once
/// \file span_tracker.hpp
/// In-memory span accounting for the traced benchmark run.
///
/// Spans open and close around calls into each layer's public entry points
/// (see trace_wraps.cpp). Spans nest strictly on the one simulation thread,
/// so a fixed stack is enough: when a span closes, its duration is charged
/// to its parent as child-covered time, and its self time is its duration
/// minus the time its children covered. Nothing is written while the run
/// is in flight; the per-boundary totals are read out when it ends.
///
/// All times are integer nanoseconds, so the balance law — the self times
/// of every span inside the root sum exactly to the root's inclusive time —
/// holds with no rounding slack and any bookkeeping slip shows.

#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench {

/// Layer boundaries, named `<src module>.<Class>.<method>`. kRun is the
/// root span: `Simulator::run`, which every other boundary runs inside.
enum Boundary : int {
  kRun,
  kSpanner,
  kDelaunay,
  kTiledUpdate,
  kMacSend,
  kChannelTx,
  kMacRx,
  kNeighborRx,
  kBufferStore,
  kNumBoundaries,
};

inline constexpr std::array<const char*, kNumBoundaries> kBoundaryNames = {
    "sim.Simulator.run",
    "spanner.localSpannerNeighbors",
    "geometry.Delaunay.buildInto",
    "geometry.TiledSpatialGrid.update",
    "mac.Mac.send",
    "mac.Channel.startTransmission",
    "mac.Mac.onFrameReceived",
    "net.NeighborService.handlePacket",
    "dtn.MessageBuffer.addToStore",
};

struct BoundaryStats {
  std::uint64_t calls = 0;
  /// Allocations made while this boundary was the innermost open span.
  std::uint64_t allocs = 0;
  std::int64_t selfNs = 0;
  /// Duration of the outermost open instance only, so a boundary that
  /// re-enters itself is not counted twice.
  std::int64_t inclNs = 0;
};

class SpanTracker {
 public:
  void open(int id, std::int64_t nowNs);
  void close(std::int64_t nowNs);
  /// Charges one allocation to the innermost open span, if any. Never
  /// allocates.
  void countAlloc();

  [[nodiscard]] const BoundaryStats& stats(int id) const { return stats_[id]; }
  /// Sum of the self times of every span closed while the root was open,
  /// the root's own included.
  [[nodiscard]] std::int64_t selfUnderRootNs() const { return selfUnderRoot_; }
  [[nodiscard]] std::uint64_t allocsUnderRoot() const { return allocsUnderRoot_; }
  /// True when every span closed, none overflowed the stack, and the self
  /// times inside the root sum to the root's inclusive time.
  [[nodiscard]] bool balanced() const;

 private:
  struct Frame {
    int id = 0;
    std::int64_t startNs = 0;
    std::int64_t childNs = 0;
  };
  static constexpr int kMaxDepth = 256;

  std::array<Frame, kMaxDepth> stack_{};
  std::array<int, kNumBoundaries> openCount_{};
  std::array<BoundaryStats, kNumBoundaries> stats_{};
  int depth_ = 0;
  int overflow_ = 0;      // opens beyond kMaxDepth still waiting to close
  bool everOverflowed_ = false;
  bool unmatchedClose_ = false;
  std::int64_t selfUnderRoot_ = 0;
  std::uint64_t allocsUnderRoot_ = 0;
};

/// The tracker the span guards and the counting allocator report to. Null
/// except while a traced scenario runs.
inline SpanTracker* gTracker = nullptr;

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opens a span for the guard's lifetime, so it also closes when the
/// wrapped call throws. Does nothing while no tracker is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(int id) : tracker_(gTracker) {
    if (tracker_ != nullptr) tracker_->open(id, nowNs());
  }
  ~ScopedSpan() {
    if (tracker_ != nullptr) tracker_->close(nowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracker* tracker_;
};

}  // namespace perfbench
