// Tests of the benchmark's own machinery: span self-time arithmetic on
// synthetic nested spans, allocation attribution, the Simulator::run hook,
// and seed plumbing through the workloads.

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "run_hook.hpp"
#include "span_tracker.hpp"
#include "workloads.hpp"

namespace {

using perfbench::kDelaunay;
using perfbench::kMacRx;
using perfbench::kMacSend;
using perfbench::kRun;
using perfbench::kSpanner;
using perfbench::SpanTracker;

TEST(SpanTracker, SelfTimeIsDurationMinusChildren) {
  // run [0,100] { spanner [10,40] { delaunay [20,30] }  mac.send [50,70] }
  SpanTracker t;
  t.open(kRun, 0);
  t.open(kSpanner, 10);
  t.open(kDelaunay, 20);
  t.close(30);
  t.close(40);
  t.open(kMacSend, 50);
  t.close(70);
  t.close(100);

  EXPECT_EQ(t.stats(kRun).selfNs, 50);
  EXPECT_EQ(t.stats(kRun).inclNs, 100);
  EXPECT_EQ(t.stats(kSpanner).selfNs, 20);
  EXPECT_EQ(t.stats(kSpanner).inclNs, 30);
  EXPECT_EQ(t.stats(kDelaunay).selfNs, 10);
  EXPECT_EQ(t.stats(kDelaunay).inclNs, 10);
  EXPECT_EQ(t.stats(kMacSend).selfNs, 20);
  EXPECT_EQ(t.stats(kSpanner).calls, 1u);
  EXPECT_EQ(t.selfUnderRootNs(), 100);
  EXPECT_TRUE(t.balanced());
}

TEST(SpanTracker, ReentrantBoundaryCountsInclusiveTimeOnce) {
  // run [0,100] { mac.send [0,60] { rx [10,50] { mac.send [20,40] } } }
  SpanTracker t;
  t.open(kRun, 0);
  t.open(kMacSend, 0);
  t.open(kMacRx, 10);
  t.open(kMacSend, 20);
  t.close(40);
  t.close(50);
  t.close(60);
  t.close(100);

  EXPECT_EQ(t.stats(kMacSend).calls, 2u);
  EXPECT_EQ(t.stats(kMacSend).inclNs, 60);
  EXPECT_EQ(t.stats(kMacSend).selfNs, 20 + 20);
  EXPECT_EQ(t.stats(kMacRx).selfNs, 20);
  EXPECT_EQ(t.stats(kRun).selfNs, 40);
  EXPECT_TRUE(t.balanced());
}

TEST(SpanTracker, SpansOutsideTheRootStayOutOfTheBalance) {
  SpanTracker t;
  t.open(kMacSend, 0);  // set-up work before Simulator::run
  t.countAlloc();
  t.close(5);
  t.open(kRun, 10);
  t.countAlloc();
  t.open(kSpanner, 12);
  t.countAlloc();
  t.countAlloc();
  t.close(20);
  t.close(30);
  t.countAlloc();

  EXPECT_EQ(t.stats(kMacSend).selfNs, 5);
  EXPECT_EQ(t.selfUnderRootNs(), 20);
  EXPECT_EQ(t.stats(kRun).inclNs, 20);
  EXPECT_TRUE(t.balanced());
  EXPECT_EQ(t.stats(kMacSend).allocs, 1u);
  EXPECT_EQ(t.stats(kRun).allocs, 1u);
  EXPECT_EQ(t.stats(kSpanner).allocs, 2u);
  EXPECT_EQ(t.allocsUnderRoot(), 3u);
}

TEST(SpanTracker, UnclosedOrUnmatchedSpansAreUnbalanced) {
  SpanTracker open;
  open.open(kRun, 0);
  open.open(kSpanner, 1);
  open.close(2);
  EXPECT_FALSE(open.balanced());

  SpanTracker extraClose;
  extraClose.open(kRun, 0);
  extraClose.close(1);
  extraClose.close(2);
  EXPECT_FALSE(extraClose.balanced());
}

TEST(SpanTracker, DeepNestingPastTheStackIsCountedAndFlagged) {
  SpanTracker t;
  t.open(kRun, 0);
  for (int i = 0; i < 300; ++i) t.open(kMacSend, i);
  for (int i = 0; i < 300; ++i) t.close(400 + i);
  t.close(1000);
  EXPECT_EQ(t.stats(kMacSend).calls, 300u);
  EXPECT_FALSE(t.balanced());
}

TEST(SpanTracker, BoundaryNamesAreValidMetricNames) {
  const std::regex name{"[A-Za-z0-9_.-]+"};
  for (const char* b : perfbench::kBoundaryNames) {
    EXPECT_TRUE(std::regex_match(std::string{b} + ".self_s", name)) << b;
  }
}

TEST(Workloads, ReplicateSeedsFollowTheRunnerSchedule) {
  for (const perfbench::Workload& w : perfbench::workloads()) {
    EXPECT_EQ(perfbench::replicateConfig(w, 7, 0).seed, 7u) << w.name;
    EXPECT_EQ(perfbench::replicateConfig(w, 7, 3).seed,
              glr::experiment::seedForRun(7, 3))
        << w.name;
    EXPECT_GT(w.batch, 0);
    EXPECT_GT(w.tracedBatch, 0);
    EXPECT_LE(w.tracedBatch, w.batch);
  }
  EXPECT_EQ(perfbench::findWorkload("no-such-workload"), nullptr);
}

TEST(Workloads, SameSeedSameResultDifferentSeedDifferentEvents) {
  const perfbench::Workload* w =
      perfbench::findWorkload("epidemic-manhattan-churn");
  ASSERT_NE(w, nullptr);
  perfbench::gRunClock = {};
  const auto a = glr::experiment::runScenario(perfbench::replicateConfig(*w, 7, 0));
  EXPECT_EQ(perfbench::gRunClock.calls, 1u);
  EXPECT_LE(perfbench::gRunClock.enterNs, perfbench::gRunClock.exitNs);
  const auto b = glr::experiment::runScenario(perfbench::replicateConfig(*w, 7, 0));
  const auto c = glr::experiment::runScenario(perfbench::replicateConfig(*w, 8, 0));
  EXPECT_TRUE(glr::experiment::bitIdenticalIgnoringWall(a, b));
  EXPECT_NE(a.eventsExecuted, c.eventsExecuted);
  EXPECT_EQ(perfbench::checkResult(a), "");
}

TEST(Workloads, ConservationAndPercentileChecksCatchBadResults) {
  glr::experiment::ScenarioResult r;
  r.created = 150;
  r.delivered = 120;
  r.bufferedAtEnd = 30;
  EXPECT_EQ(perfbench::checkResult(r), "");
  r.bufferedAtEnd = 29;
  EXPECT_NE(perfbench::checkResult(r), "");
  r.bufferedAtEnd = 30;
  r.created = 99;
  r.delivered = 99;
  EXPECT_NE(perfbench::checkResult(r), "");
  EXPECT_NE(perfbench::checkGolden(r), "");
}

}  // namespace
