#include "span_tracker.hpp"

namespace perfbench {

void SpanTracker::open(int id, std::int64_t nowNs) {
  ++stats_[id].calls;
  if (depth_ == kMaxDepth) {
    ++overflow_;
    everOverflowed_ = true;
    return;
  }
  stack_[depth_++] = Frame{id, nowNs, 0};
  ++openCount_[id];
}

void SpanTracker::close(std::int64_t nowNs) {
  if (overflow_ > 0) {
    --overflow_;
    return;
  }
  if (depth_ == 0) {
    unmatchedClose_ = true;
    return;
  }
  const bool underRoot = stack_[0].id == kRun;
  const Frame f = stack_[--depth_];
  const std::int64_t dur = nowNs - f.startNs;
  const std::int64_t self = dur - f.childNs;
  BoundaryStats& s = stats_[f.id];
  s.selfNs += self;
  if (--openCount_[f.id] == 0) s.inclNs += dur;
  if (underRoot) selfUnderRoot_ += self;
  if (depth_ > 0) stack_[depth_ - 1].childNs += dur;
}

void SpanTracker::countAlloc() {
  if (depth_ == 0) return;
  ++stats_[stack_[depth_ - 1].id].allocs;
  if (stack_[0].id == kRun) ++allocsUnderRoot_;
}

bool SpanTracker::balanced() const {
  return depth_ == 0 && !everOverflowed_ && !unmatchedClose_ &&
         selfUnderRoot_ == stats_[kRun].inclNs;
}

}  // namespace perfbench
