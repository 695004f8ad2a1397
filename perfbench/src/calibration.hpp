#pragma once
/// \file calibration.hpp
/// A fixed reference kernel that measures how fast the host runs right
/// now. On a shared host, other virtual machines on the same physical
/// cores slow the simulator by up to half for minutes at a time, and
/// thread CPU time does not see it. The kernel slows with the simulator:
/// independent multiply chains and unpredictable branches over a small
/// table, which compete for the same core resources. It uses none of the
/// program's code, so a change to the program cannot move it. run.py
/// scales the measured host times by its speed; see README.md.

namespace perfbench {

/// Thread CPU seconds of one run of the reference kernel, about 30 ms on
/// a 4-core Xeon. Allocates nothing.
[[nodiscard]] double referenceKernelSeconds();

}  // namespace perfbench
