// Tests for the crash-safety layer: whole-scenario checkpoint/restore
// (checkpoint/scenario_checkpoint.*, checkpoint/file.*).
//
// The differentials are the contract: a run snapshotted at t and restored
// into a fresh process must finish bit-identically to the uninterrupted run
// — including with saturation traffic, fault injection, adversarial nodes,
// churn and GLR recovery all live. The error-path tests pin the reader's
// loud-refusal behavior: truncation, corruption, version skew and config
// mismatch must throw, never limp.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "checkpoint/file.hpp"
#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// Golden vs snapshot-and-restore differential. Runs `cfg` once writing a
/// mid-run snapshot, then restores that snapshot into a fresh scenario and
/// checks the continued run is bit-identical to the uninterrupted one.
void expectRestoreBitIdentical(ScenarioConfig cfg, const std::string& name) {
  const std::string path = tmpPath(name);
  cfg.checkpointPath = path;
  const ScenarioResult golden = runScenario(cfg);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  const ScenarioResult tail = runScenario(resumed);
  EXPECT_TRUE(bitIdenticalIgnoringWall(golden, tail))
      << name << ": restored run diverged from the uninterrupted golden "
      << "(delivered " << tail.delivered << " vs " << golden.delivered
      << ", events " << tail.eventsExecuted << " vs "
      << golden.eventsExecuted << ")";
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Restore differentials, one per protocol family. checkpointEvery is chosen
// so exactly one snapshot fires past mid-run: the restored run replays a
// long tail with every subsystem still active.
// ---------------------------------------------------------------------------

TEST(Checkpoint, GlrFullStackRestoreBitIdentical) {
  // Everything on at once: saturating ON/OFF traffic, burst loss +
  // corruption + stalls, blackhole/greyhole/selfish/flapping adversaries,
  // churn, TTLs, custody watermark + AIMD congestion control, and the GLR
  // recovery layer the faults keep busy.
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 40;
  cfg.trafficNodes = 36;
  cfg.simTime = 400.0;
  cfg.seed = 11;
  cfg.traffic.model = "onoff";
  cfg.traffic.rate = 12.0;
  cfg.queueLimit = 40;
  cfg.storageLimit = 60;
  cfg.custodyWatermark = 45;
  cfg.congestionControl = true;
  cfg.messageTtl = 120.0;
  cfg.churn.enabled = true;
  cfg.churn.params.fraction = 0.3;
  cfg.churn.params.upMean = 120.0;
  cfg.churn.params.downMean = 20.0;
  cfg.churn.params.start = 30.0;
  cfg.faults.enabled = true;
  cfg.faults.params.start = 40.0;
  cfg.faults.params.burstRate = 0.05;
  cfg.faults.params.burstMean = 3.0;
  cfg.faults.params.lossProb = 0.5;
  cfg.faults.params.corruptProb = 0.01;
  cfg.faults.params.stallRate = 0.02;
  cfg.faults.params.stallMean = 5.0;
  cfg.faults.params.adversary.blackholeFraction = 0.08;
  cfg.faults.params.adversary.greyholeFraction = 0.08;
  cfg.faults.params.adversary.greyholeDropProb = 0.6;
  cfg.faults.params.adversary.selfishFraction = 0.08;
  cfg.faults.params.adversary.flappingFraction = 0.08;
  cfg.glrRecovery = true;
  cfg.checkpointEvery = 250.0;  // one snapshot at t=250, 150 s tail
  expectRestoreBitIdentical(cfg, "ckpt_glr_fullstack.bin");
}

TEST(Checkpoint, GlrPaperWorkloadRestoreBitIdentical) {
  // The paper's fixed schedule: the snapshot carries every not-yet-fired
  // origination as a pending event (no traffic process to restore).
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.simTime = 400.0;
  cfg.numMessages = 200;
  cfg.seed = 7;
  cfg.checkpointEvery = 250.0;
  expectRestoreBitIdentical(cfg, "ckpt_glr_paper.bin");
}

TEST(Checkpoint, EpidemicRestoreBitIdentical) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kEpidemic;
  cfg.numNodes = 30;
  cfg.trafficNodes = 25;
  cfg.simTime = 300.0;
  cfg.seed = 5;
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = 6.0;
  cfg.storageLimit = 80;
  cfg.messageTtl = 90.0;
  cfg.faults.enabled = true;
  cfg.faults.params.start = 30.0;
  cfg.faults.params.burstRate = 0.05;
  cfg.faults.params.lossProb = 0.4;
  cfg.checkpointEvery = 180.0;  // one snapshot at t=180, 120 s tail
  expectRestoreBitIdentical(cfg, "ckpt_epidemic.bin");
}

TEST(Checkpoint, SprayAndWaitRestoreBitIdentical) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kSprayAndWait;
  cfg.numNodes = 30;
  cfg.trafficNodes = 25;
  cfg.simTime = 300.0;
  cfg.seed = 9;
  cfg.sprayBudget = 6;
  cfg.traffic.model = "hotspot";
  cfg.traffic.rate = 5.0;
  cfg.messageTtl = 80.0;
  cfg.checkpointEvery = 180.0;
  expectRestoreBitIdentical(cfg, "ckpt_spray.bin");
}

TEST(Checkpoint, DirectDeliveryRestoreBitIdentical) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDirectDelivery;
  cfg.numNodes = 25;
  cfg.trafficNodes = 20;
  cfg.simTime = 300.0;
  cfg.seed = 3;
  cfg.traffic.model = "flashcrowd";
  cfg.traffic.rate = 4.0;
  cfg.checkpointEvery = 180.0;
  expectRestoreBitIdentical(cfg, "ckpt_direct.bin");
}

// ---------------------------------------------------------------------------
// Error paths: the reader refuses loudly, never limps.
// ---------------------------------------------------------------------------

/// Small scenario that leaves a valid snapshot at `path`.
ScenarioConfig snapshotScenario(const std::string& path) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 20;
  cfg.trafficNodes = 16;
  cfg.simTime = 120.0;
  cfg.numMessages = 40;
  cfg.seed = 21;
  cfg.checkpointEvery = 80.0;
  cfg.checkpointPath = path;
  return cfg;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(Checkpoint, TruncatedFileRefused) {
  const std::string path = tmpPath("ckpt_truncated.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() / 2);
  spit(path, bytes);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  EXPECT_THROW((void)runScenario(resumed), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptByteRefused) {
  const std::string path = tmpPath("ckpt_corrupt.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 128u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit -> checksum fails
  spit(path, bytes);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  EXPECT_THROW((void)runScenario(resumed), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, VersionMismatchRefused) {
  const std::string path = tmpPath("ckpt_version.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  // Bump the version field (offset 4, u16 LE) and re-seal the checksum so
  // the version check itself — not the integrity check — is what fires.
  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[4] = static_cast<char>(glr::ckpt::kCheckpointVersion + 1);
  const std::uint64_t sum =
      glr::ckpt::fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  spit(path, bytes);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  try {
    runScenario(resumed);
    FAIL() << "version mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, DifferentConfigRefused) {
  const std::string path = tmpPath("ckpt_digest.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  ScenarioConfig other = cfg;
  other.checkpointPath.clear();
  other.restoreFrom = path;
  other.seed = cfg.seed + 1;  // any digested field: refuse
  try {
    runScenario(other);
    FAIL() << "config digest mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("different configuration"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RestoreWithTracingArmedRefused) {
  const std::string path = tmpPath("ckpt_traced.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  resumed.tracePath = tmpPath("ckpt_traced.trace");
  EXPECT_THROW((void)runScenario(resumed), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, CheckpointPathWithoutPeriodRefused) {
  ScenarioConfig cfg;
  cfg.checkpointPath = tmpPath("ckpt_noperiod.bin");
  cfg.checkpointEvery = 0.0;
  EXPECT_THROW((void)runScenario(cfg), std::invalid_argument);
}

TEST(Checkpoint, MissingFileRefused) {
  ScenarioConfig cfg;
  cfg.simTime = 60.0;
  cfg.numMessages = 10;
  cfg.checkpointEvery = 40.0;
  cfg.restoreFrom = tmpPath("ckpt_does_not_exist.bin");
  EXPECT_THROW((void)runScenario(cfg), std::runtime_error);
}

}  // namespace
