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

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "checkpoint/file.hpp"
#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "sim/event_kinds.hpp"
#include "sim/rng.hpp"

namespace {

using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + name;
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

// Little-endian field access into a GLRK file image (checkpoint/file.hpp).
template <class T>
T getLe(const std::vector<char>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[at + i]))
         << (8 * i);
  }
  T out;
  std::memcpy(&out, &v, sizeof(T));  // little-endian host, as in CI
  return out;
}

template <class T>
void putLe(std::vector<char>& b, std::size_t at, T value) {
  std::uint64_t v = 0;
  std::memcpy(&v, &value, sizeof(T));
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    b[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Recomputes the trailing FNV-1a checksum, so a deliberate edit reaches
/// the inner checks instead of being caught as corruption.
void reseal(std::vector<char>& bytes) {
  putLe<std::uint64_t>(bytes, bytes.size() - 8,
                       glr::ckpt::fnv1a64(bytes.data(), bytes.size() - 8));
}

// GLRK v1 layout: a 48-byte header (simNow at 16, section count at 40),
// then [u32 id][u64 length][payload] per section. The events section
// (id 1) is a u64 record count and 60-byte records:
// [u64 timeBits][u64 seq][u16 kind][u8 b0][u8 b1][i32 i0][i32 i1]
// [u64 u0][u64 u1][f64 f0][f64 f1].
constexpr std::size_t kSimNowAt = 16;
constexpr std::size_t kSectionCountAt = 40;
constexpr std::size_t kFirstSectionAt = 48;
constexpr std::size_t kRecordBytes = 60;

/// Offset of the events section's payload (its record count).
std::size_t eventsAt(const std::vector<char>& bytes) {
  std::size_t at = kFirstSectionAt;
  for (;;) {
    const auto id = getLe<std::uint32_t>(bytes, at);
    const auto len = getLe<std::uint64_t>(bytes, at + 4);
    if (id == 1) return at + 12;
    at += 12 + static_cast<std::size_t>(len);
  }
}

std::size_t recordAt(const std::vector<char>& bytes, std::size_t i) {
  return eventsAt(bytes) + 8 + i * kRecordBytes;
}

/// Kinds of every pending event in a snapshot file.
std::set<std::uint16_t> pendingKinds(const std::vector<char>& bytes) {
  std::set<std::uint16_t> kinds;
  const auto n = getLe<std::uint64_t>(bytes, eventsAt(bytes));
  for (std::size_t i = 0; i < n; ++i) {
    kinds.insert(getLe<std::uint16_t>(bytes, recordAt(bytes, i) + 16));
  }
  return kinds;
}

/// Writes `bytes` as a checkpoint and restores it into `cfg`; the restore
/// must refuse with a runtime_error naming `what`.
void expectRefused(const ScenarioConfig& cfg, const std::vector<char>& bytes,
                   const std::string& name, const std::string& what) {
  const std::string path = tmpPath(name);
  spit(path, bytes);
  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  try {
    (void)runScenario(resumed);
    ADD_FAILURE() << name << ": restore accepted the edited file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(what), std::string::npos)
        << name << ": " << e.what();
  }
  std::remove(path.c_str());
}

/// Golden vs snapshot-and-restore differential. Runs `cfg` once writing a
/// mid-run snapshot, then restores that snapshot into a fresh scenario and
/// checks the continued run is bit-identical to the uninterrupted one.
/// Runs `cfg` and returns the snapshot it leaves at cfg.checkpointPath
/// (the file is removed again).
std::vector<char> validSnapshot(const ScenarioConfig& cfg) {
  (void)runScenario(cfg);
  std::vector<char> bytes = slurp(cfg.checkpointPath);
  std::remove(cfg.checkpointPath.c_str());
  return bytes;
}

/// Returns the kinds of the events pending in the restored snapshot.
std::set<std::uint16_t> expectRestoreBitIdentical(ScenarioConfig cfg,
                                                  const std::string& name) {
  const std::string path = tmpPath(name);
  cfg.checkpointPath = path;
  const ScenarioResult golden = runScenario(cfg);
  const std::set<std::uint16_t> kinds = pendingKinds(slurp(path));

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
  return kinds;
}

// ---------------------------------------------------------------------------
// Restore differentials, one per protocol family. checkpointEvery is chosen
// so exactly one snapshot fires past mid-run: the restored run replays a
// long tail with every subsystem still active.
// ---------------------------------------------------------------------------

ScenarioConfig fullStackConfig() {
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
  return cfg;
}

TEST(Checkpoint, GlrFullStackRestoreBitIdentical) {
  (void)expectRestoreBitIdentical(fullStackConfig(), "ckpt_glr_fullstack.bin");
}

ScenarioConfig paperConfig() {
  // The paper's fixed schedule: the snapshot carries every not-yet-fired
  // origination as a pending event (no traffic process to restore).
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.simTime = 400.0;
  cfg.numMessages = 200;
  cfg.seed = 7;
  cfg.checkpointEvery = 250.0;
  return cfg;
}

TEST(Checkpoint, GlrPaperWorkloadRestoreBitIdentical) {
  (void)expectRestoreBitIdentical(paperConfig(), "ckpt_glr_paper.bin");
}

ScenarioConfig epidemicConfig() {
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
  return cfg;
}

TEST(Checkpoint, EpidemicRestoreBitIdentical) {
  (void)expectRestoreBitIdentical(epidemicConfig(), "ckpt_epidemic.bin");
}

ScenarioConfig sprayConfig() {
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
  return cfg;
}

TEST(Checkpoint, SprayAndWaitRestoreBitIdentical) {
  (void)expectRestoreBitIdentical(sprayConfig(), "ckpt_spray.bin");
}

ScenarioConfig directConfig() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDirectDelivery;
  cfg.numNodes = 25;
  cfg.trafficNodes = 20;
  cfg.simTime = 300.0;
  cfg.seed = 3;
  cfg.traffic.model = "flashcrowd";
  cfg.traffic.rate = 4.0;
  cfg.checkpointEvery = 180.0;
  return cfg;
}

TEST(Checkpoint, DirectDeliveryRestoreBitIdentical) {
  (void)expectRestoreBitIdentical(directConfig(), "ckpt_direct.bin");
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
  reseal(bytes);
  spit(path, bytes);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  try {
    (void)runScenario(resumed);
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
    (void)runScenario(other);
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

// ---------------------------------------------------------------------------
// Coverage: every event kind the library registers is restored by some
// snapshot of the differential configs above, or is named here with the
// reason it can never be pending at one.
// ---------------------------------------------------------------------------

TEST(Checkpoint, EveryRegisteredKindRestores) {
  std::set<std::uint16_t> restored;
  const auto snapshotAt = [&](ScenarioConfig cfg, double at) {
    cfg.checkpointEvery = at;
    cfg.simTime = std::floor(at) + 5.0;
    const auto kinds = expectRestoreBitIdentical(cfg, "ckpt_cover.bin");
    restored.insert(kinds.begin(), kinds.end());
  };
  // Several snapshot instants with a short tail each: a MAC or fault timer
  // that happens not to be pending at one instant is at another.
  for (ScenarioConfig (*make)() : {&fullStackConfig, &paperConfig,
                                    &epidemicConfig, &sprayConfig,
                                    &directConfig}) {
    for (const double at : {45.0, 97.0, 151.0}) snapshotAt(make(), at);
  }

  // Short-lived timers, caught on purpose. Stall ends: stalls that overlap
  // all the time. Custody-ack retries (pending 0.25 s after an ack finds the
  // interface queue full): a tiny queue under heavy load.
  ScenarioConfig stalls = fullStackConfig();
  stalls.faults.params.stallRate = 1.0;
  snapshotAt(stalls, 45.0);
  ScenarioConfig fullQueues = fullStackConfig();
  fullQueues.churn.enabled = false;
  fullQueues.faults.enabled = false;
  fullQueues.queueLimit = 2;
  fullQueues.traffic.rate = 40.0;
  snapshotAt(fullQueues, 41.0);
  // MAC ACK replies are pending only for the 10 us SIFS after a unicast
  // DATA frame ends: snapshot again 5 us after the end of a frame that an
  // earlier snapshot shows in flight (kMacTxEnd with b0 = expect an ACK).
  ScenarioConfig paper = paperConfig();
  paper.checkpointEvery = 97.0;
  paper.simTime = 102.0;
  paper.checkpointPath = tmpPath("ckpt_cover_sifs.bin");
  const std::vector<char> inFlight = validSnapshot(paper);
  const auto n = getLe<std::uint64_t>(inFlight, eventsAt(inFlight));
  for (std::size_t i = 0; i < n && restored.count(glr::sim::kMacAckReply) == 0;
       ++i) {
    const std::size_t rec = recordAt(inFlight, i);
    if (getLe<std::uint16_t>(inFlight, rec + 16) != glr::sim::kMacTxEnd ||
        inFlight[rec + 18] != 1) {
      continue;
    }
    snapshotAt(paper, getLe<double>(inFlight, rec) + 5e-6);
  }

  // runScenario snapshots only at t = k * checkpointEvery > 0, after every
  // agent's t = 0 start event has fired, so no snapshot holds one.
  const std::set<std::uint16_t> neverPending = {glr::sim::kAgentStart};
  for (std::uint16_t kind = 1; kind < glr::sim::kLibraryKindEnd; ++kind) {
    EXPECT_EQ(restored.count(kind), neverPending.count(kind) != 0 ? 0u : 1u)
        << "event kind " << kind;
  }
}

// ---------------------------------------------------------------------------
// Re-sealed edits: the checksum is recomputed, so the inner checks fire.
// ---------------------------------------------------------------------------

TEST(Checkpoint, HugeSectionCountRefused) {
  const ScenarioConfig cfg = snapshotScenario(tmpPath("ckpt_sections.bin"));
  std::vector<char> bytes = validSnapshot(cfg);
  putLe<std::uint32_t>(bytes, kSectionCountAt, 0xFFFFFFF0u);
  reseal(bytes);
  expectRefused(cfg, bytes, "ckpt_sections.bin", "section count");
}

TEST(Checkpoint, BadClockRefused) {
  const ScenarioConfig cfg = snapshotScenario(tmpPath("ckpt_clock.bin"));
  const std::vector<char> valid = validSnapshot(cfg);
  for (const double now : {std::nan(""), -1.0,
                           std::numeric_limits<double>::infinity()}) {
    std::vector<char> bytes = valid;
    putLe<double>(bytes, kSimNowAt, now);
    reseal(bytes);
    expectRefused(cfg, bytes, "ckpt_clock.bin", "clock");
  }
}

TEST(Checkpoint, DuplicateEventRecordRefused) {
  const ScenarioConfig cfg = snapshotScenario(tmpPath("ckpt_dup.bin"));
  std::vector<char> bytes = validSnapshot(cfg);
  ASSERT_GE(getLe<std::uint64_t>(bytes, eventsAt(bytes)), 2u);
  std::memcpy(&bytes[recordAt(bytes, 1)], &bytes[recordAt(bytes, 0)],
              kRecordBytes);
  reseal(bytes);
  expectRefused(cfg, bytes, "ckpt_dup.bin", "not after its predecessor");
}

TEST(Checkpoint, ReorderedEventRecordsRefused) {
  const ScenarioConfig cfg = snapshotScenario(tmpPath("ckpt_order.bin"));
  std::vector<char> bytes = validSnapshot(cfg);
  ASSERT_GE(getLe<std::uint64_t>(bytes, eventsAt(bytes)), 2u);
  std::vector<char> first(&bytes[recordAt(bytes, 0)],
                          &bytes[recordAt(bytes, 0)] + kRecordBytes);
  std::memcpy(&bytes[recordAt(bytes, 0)], &bytes[recordAt(bytes, 1)],
              kRecordBytes);
  std::memcpy(&bytes[recordAt(bytes, 1)], first.data(), kRecordBytes);
  reseal(bytes);
  expectRefused(cfg, bytes, "ckpt_order.bin", "not after its predecessor");
}

// ---------------------------------------------------------------------------
// Events-section mutation: seeded structure-aware edits of a valid snapshot,
// re-sealed so they reach the record checks. Every mutant must either be
// refused with a runtime_error or restore and run to the end (sanitizer
// builds turn any memory error on the way into a failure).
// GLR_CKPT_MUTANTS overrides the mutant count.
// ---------------------------------------------------------------------------

/// One random edit of the events section: a record's kind, node fields,
/// tree flag, u0, f0 or key bits, or the record count.
void mutateEvents(std::vector<char>& bytes, glr::sim::Rng& rng) {
  const std::size_t countAt = eventsAt(bytes);
  // Records present, from the section length (the count field itself may
  // already be an earlier edit's target).
  const std::uint64_t n =
      (getLe<std::uint64_t>(bytes, countAt - 8) - 8) / kRecordBytes;
  const std::size_t rec =
      recordAt(bytes, static_cast<std::size_t>(rng.below(n)));
  const auto anyInt = [&]() -> std::int32_t {
    const std::int32_t picks[] = {-1, 0, 19, 20, 21,
                                  std::numeric_limits<std::int32_t>::min(),
                                  std::numeric_limits<std::int32_t>::max()};
    return rng.below(2) == 0 ? picks[rng.below(7)]
                             : static_cast<std::int32_t>(rng.below(24));
  };
  switch (rng.below(9)) {
    case 0:  // kind: mostly library kinds, sometimes anything
      putLe<std::uint16_t>(bytes, rec + 16,
                           rng.below(8) == 0
                               ? static_cast<std::uint16_t>(rng.below(65536))
                               : static_cast<std::uint16_t>(rng.below(32)));
      break;
    case 1:
      putLe<std::int32_t>(bytes, rec + 20, anyInt());
      break;
    case 2:
      putLe<std::int32_t>(bytes, rec + 24, anyInt());
      break;
    case 3:
      bytes[rec + 18] = static_cast<char>(rng.below(256));
      break;
    case 4:
      putLe<std::uint64_t>(bytes, rec + 28, rng.below(4) == 0 ? ~0ULL
                                                              : rng.below(64));
      break;
    case 5:  // time bits: one flipped bit
      putLe<std::uint64_t>(bytes, rec,
                           getLe<std::uint64_t>(bytes, rec) ^
                               (1ULL << rng.below(64)));
      break;
    case 6:  // seq: one flipped bit
      putLe<std::uint64_t>(bytes, rec + 8,
                           getLe<std::uint64_t>(bytes, rec + 8) ^
                               (1ULL << rng.below(64)));
      break;
    case 7: {
      const double picks[] = {-1.0, 0.0, 1e-4, 1e300, std::nan(""),
                              std::numeric_limits<double>::infinity()};
      putLe<double>(bytes, rec + 44, picks[rng.below(6)]);
      break;
    }
    default:  // record count
      putLe<std::uint64_t>(bytes, countAt,
                           rng.below(2) == 0 ? n + 1 - 2 * rng.below(2)
                                             : rng());
      break;
  }
}

TEST(CheckpointMutation, EventsSectionMutantsFailLoudOrRunToTheEnd) {
  ScenarioConfig cfg = fullStackConfig();
  cfg.numNodes = 20;
  cfg.trafficNodes = 18;
  cfg.churn.params.start = 10.0;
  cfg.faults.params.start = 10.0;
  cfg.checkpointEvery = 60.0;
  cfg.simTime = 64.0;
  cfg.checkpointPath = tmpPath("ckpt_mutation_seed.bin");
  const std::vector<char> valid = validSnapshot(cfg);

  const char* env = std::getenv("GLR_CKPT_MUTANTS");
  const long mutants = env != nullptr ? std::atol(env) : 150;
  glr::sim::Rng rng{2026};
  const std::string path = tmpPath("ckpt_mutant.bin");
  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  long refused = 0;
  long ran = 0;
  for (long m = 0; m < mutants; ++m) {
    std::vector<char> bytes = valid;
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) mutateEvents(bytes, rng);
    reseal(bytes);
    spit(path, bytes);
    try {
      (void)runScenario(resumed);
      ++ran;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  std::remove(path.c_str());
  std::printf("%ld mutants: %ld refused, %ld ran to the end\n", mutants,
              refused, ran);
  EXPECT_EQ(refused + ran, mutants);
  // Both outcomes must actually occur, or the mutator is not reaching the
  // record checks (or never produces a restorable record).
  if (mutants >= 50) {
    EXPECT_GT(refused, 0);
    EXPECT_GT(ran, 0);
  }
}

}  // namespace
