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

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checkpoint/codec.hpp"
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

// GLRK v2 layout: a 48-byte header (simNow at 16, section count at 40),
// then [u32 id][u64 length][payload] per section. The events section
// (id 1) is a u64 record count and 60-byte records:
// [u64 timeBits][u64 seq][u16 kind][u8 b0][u8 b1][i32 i0][i32 i1]
// [u64 u0][u64 u1][f64 f0][f64 f1].
constexpr std::size_t kSimNowAt = 16;
constexpr std::size_t kSectionCountAt = 40;
constexpr std::size_t kFirstSectionAt = 48;
constexpr std::size_t kRecordBytes = 60;

/// Offset of section `id`'s payload; its length is the u64 just before.
std::size_t sectionAt(const std::vector<char>& bytes, std::uint32_t id) {
  std::size_t at = kFirstSectionAt;
  for (;;) {
    const auto len = getLe<std::uint64_t>(bytes, at + 4);
    if (getLe<std::uint32_t>(bytes, at) == id) return at + 12;
    at += 12 + static_cast<std::size_t>(len);
  }
}

/// Offset of the events section's payload (its record count).
std::size_t eventsAt(const std::vector<char>& bytes) {
  return sectionAt(bytes, 1);
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
// Restored state re-saves byte for byte: a run restored at t = 45 s writes,
// at t = 90 s, the same snapshot as the uninterrupted run. runScenario keeps
// only a run's latest snapshot, and the config digest pins the period and
// the horizon, so the t = 45 s snapshot is caught on its way: the writer
// assembles each snapshot in `path.tmp` and renames it over `path`, so a
// `path.tmp` symlink routes the first snapshot's bytes to the link's target
// (and that rename consumes the link).
// ---------------------------------------------------------------------------

void expectResavedSnapshotIdentical(ScenarioConfig cfg,
                                    const std::string& name) {
  namespace fs = std::filesystem;
  cfg.checkpointEvery = 45.0;
  cfg.simTime = 92.0;
  cfg.checkpointPath = tmpPath(name);
  const std::string first = tmpPath(name + ".t45");
  fs::remove(first);
  fs::remove(cfg.checkpointPath + ".tmp");
  fs::create_symlink(first, cfg.checkpointPath + ".tmp");
  const ScenarioResult golden = runScenario(cfg);
  const std::vector<char> uninterrupted = slurp(cfg.checkpointPath);
  ASSERT_EQ(getLe<double>(slurp(first), kSimNowAt), 45.0) << name;
  ASSERT_EQ(getLe<double>(uninterrupted, kSimNowAt), 90.0) << name;

  ScenarioConfig resumed = cfg;
  resumed.restoreFrom = first;
  resumed.checkpointPath = tmpPath(name + ".resumed");
  const ScenarioResult tail = runScenario(resumed);
  EXPECT_TRUE(bitIdenticalIgnoringWall(golden, tail)) << name;
  EXPECT_TRUE(slurp(resumed.checkpointPath) == uninterrupted)
      << name << ": the restored run's t = 90 s snapshot differs";
  for (const std::string& path :
       {cfg.checkpointPath, first, resumed.checkpointPath}) {
    fs::remove(path);
  }
}

TEST(Checkpoint, RestoredRunResavesIdenticalSnapshots) {
  expectResavedSnapshotIdentical(fullStackConfig(), "ckpt_resave_full.bin");
  expectResavedSnapshotIdentical(paperConfig(), "ckpt_resave_paper.bin");
  expectResavedSnapshotIdentical(epidemicConfig(), "ckpt_resave_epi.bin");
  expectResavedSnapshotIdentical(sprayConfig(), "ckpt_resave_spray.bin");
  expectResavedSnapshotIdentical(directConfig(), "ckpt_resave_direct.bin");
}

// ---------------------------------------------------------------------------
// Keyed-table codec: tables are written in ascending key order whatever the
// container's iteration order, and read back with plain inserts; a table
// whose keys are not strictly ascending is refused, naming the section.
// ---------------------------------------------------------------------------

TEST(CheckpointCodec, KeyedTablesRoundTripInKeyOrder) {
  std::unordered_map<int, double> map;
  for (int k = 40; k > 0; --k) map[k * 7 % 41] = k * 0.5;
  glr::ckpt::Encoder e;
  glr::ckpt::saveKeyed(e, map, [](glr::ckpt::Encoder& enc, const auto& kv) {
    enc.i32(kv.first);
    enc.f64(kv.second);
  });
  const std::vector<unsigned char> bytes = e.take();
  ASSERT_EQ(bytes.size(), 8u + 40u * 12u);
  for (std::size_t i = 1; i < 40; ++i) {
    std::int32_t prev = 0;
    std::int32_t key = 0;
    std::memcpy(&prev, &bytes[8 + (i - 1) * 12], 4);
    std::memcpy(&key, &bytes[8 + i * 12], 4);
    EXPECT_LT(prev, key);
  }

  std::map<int, double> back;
  glr::ckpt::Decoder d(bytes.data(), bytes.size(), "test section");
  glr::ckpt::loadKeyed(d, back, [](glr::ckpt::Decoder& dec) {
    const int k = dec.i32();
    return std::pair<int, double>{k, dec.f64()};
  });
  d.expectEnd();
  EXPECT_EQ(back, (std::map<int, double>(map.begin(), map.end())));
}

TEST(CheckpointCodec, KeyedTableOutOfOrderRefused) {
  const auto load = [](const std::vector<std::int32_t>& keys) {
    glr::ckpt::Encoder e;
    e.size(keys.size());
    for (const std::int32_t k : keys) e.i32(k);
    const std::vector<unsigned char> bytes = e.take();
    glr::ckpt::Decoder d(bytes.data(), bytes.size(), "file.bin agent section");
    std::unordered_set<std::int32_t> set;
    glr::ckpt::loadKeyed(d, set, [](glr::ckpt::Decoder& dec) {
      return dec.i32();
    });
    return set.size();
  };
  EXPECT_EQ(load({1, 4, 9}), 3u);
  for (const auto& keys : {std::vector<std::int32_t>{1, 9, 4},   // swapped
                           std::vector<std::int32_t>{1, 4, 4}}) {  // duplicate
    try {
      (void)load(keys);
      ADD_FAILURE() << "keys " << keys[1] << ", " << keys[2] << " accepted";
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string{err.what()}.find(
                    "file.bin agent section: keyed table entry 2 is not "
                    "after its predecessor in ascending key order"),
                std::string::npos)
          << err.what();
    }
  }
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

  // Set the version field (offset 4, u16 LE) and re-seal the checksum so
  // the version check itself — not the integrity check — is what fires.
  // Version 1 wrote keyed tables in hash-table order with bucket counts.
  const std::vector<char> valid = slurp(path);
  std::remove(path.c_str());
  ASSERT_GT(valid.size(), 16u);
  for (const int version : {1, glr::ckpt::kCheckpointVersion + 1}) {
    std::vector<char> bytes = valid;
    putLe<std::uint16_t>(bytes, 4, static_cast<std::uint16_t>(version));
    reseal(bytes);
    expectRefused(cfg, bytes, "ckpt_version.bin",
                  "unsupported version " + std::to_string(version));
  }
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

/// The snapshot every mutation test edits: the full stack, small and short.
ScenarioConfig mutationConfig() {
  ScenarioConfig cfg = fullStackConfig();
  cfg.numNodes = 20;
  cfg.trafficNodes = 18;
  cfg.churn.params.start = 10.0;
  cfg.faults.params.start = 10.0;
  cfg.checkpointEvery = 60.0;
  cfg.simTime = 64.0;
  cfg.checkpointPath = tmpPath("ckpt_mutation_seed.bin");
  return cfg;
}

/// Restores GLR_CKPT_MUTANTS (default 150) seeded mutants of `valid`, each
/// with 1-3 `mutate(bytes, rng)` edits and re-sealed. Every mutant must be
/// refused with a runtime_error or run to the end. Both must occur, and
/// some refusal must contain `reached`, the check the mutator aims at.
template <class Mutate>
void expectMutantsFailLoudOrRun(const ScenarioConfig& cfg,
                                const std::vector<char>& valid,
                                std::uint64_t seed, const std::string& reached,
                                Mutate&& mutate) {
  const char* env = std::getenv("GLR_CKPT_MUTANTS");
  const long mutants = env != nullptr ? std::atol(env) : 150;
  glr::sim::Rng rng{seed};
  const std::string path = tmpPath("ckpt_mutant.bin");
  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  long refused = 0;
  long ran = 0;
  long reachedCount = 0;
  for (long m = 0; m < mutants; ++m) {
    std::vector<char> bytes = valid;
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) mutate(bytes, rng);
    reseal(bytes);
    spit(path, bytes);
    try {
      (void)runScenario(resumed);
      ++ran;
    } catch (const std::runtime_error& err) {
      ++refused;
      if (std::string{err.what()}.find(reached) != std::string::npos) {
        ++reachedCount;
      }
    }
  }
  std::remove(path.c_str());
  std::printf("%ld mutants: %ld refused (%ld naming \"%s\"), %ld ran to "
              "the end\n",
              mutants, refused, reachedCount, reached.c_str(), ran);
  EXPECT_EQ(refused + ran, mutants);
  // Both outcomes must actually occur, or the mutator is not reaching the
  // checks (or never produces a restorable file).
  if (mutants >= 50) {
    EXPECT_GT(refused, 0);
    EXPECT_GT(ran, 0);
    EXPECT_GT(reachedCount, 0);
  }
}

TEST(CheckpointMutation, EventsSectionMutantsFailLoudOrRunToTheEnd) {
  const ScenarioConfig cfg = mutationConfig();
  expectMutantsFailLoudOrRun(cfg, validSnapshot(cfg), 2026, "events section",
                             mutateEvents);
}

// ---------------------------------------------------------------------------
// Keyed tables in the nodes section (id 3). A keyed table is a u64 count and
// its entries in strictly ascending key order; every key starts with an i32
// (a node id, or a message id's source). A node's block is its MAC state,
// then its agent: four RNG words, the neighbor service (four RNG words, the
// neighbor table, three hello counters), the message buffer, and the
// protocol's own fields. A MAC queue holds packets of any layout, so each
// agent is found by its neighbor table (after eight random-looking words,
// every field plausible for the scenario) and read field by field from
// there to the start of the next node's MAC state.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kNodesSection = 3;

/// Where one keyed table sits: its count field and where each entry starts.
struct KeyedTable {
  std::size_t countAt = 0;
  std::vector<std::size_t> entries;
  std::size_t end = 0;
};

/// Bounds-checked reader over a snapshot image: a short read or a failed
/// `require` clears `ok`, and later reads return zero.
struct Cursor {
  const std::vector<char>& bytes;
  std::size_t at;
  std::size_t end;
  bool ok = true;

  template <class T>
  T get() {
    if (!ok || end - at < sizeof(T)) {
      ok = false;
      return T{};
    }
    const T v = getLe<T>(bytes, at);
    at += sizeof(T);
    return v;
  }
  void skip(std::uint64_t n) {
    ok = ok && end - at >= n;
    if (ok) at += static_cast<std::size_t>(n);
  }
  void require(bool cond) { ok = ok && cond; }
};

/// Plausibility checks for fields of one scenario at one instant.
struct Plausible {
  const ScenarioConfig& cfg;
  double now;

  bool node(std::int64_t id) const { return id >= 0 && id < cfg.numNodes; }
  bool time(double t) const { return t >= 0.0 && t <= now; }
  bool pos(Cursor& c) const {
    const double x = c.get<double>();
    const double y = c.get<double>();
    return x >= 0.0 && x <= cfg.areaWidth && y >= 0.0 && y <= cfg.areaHeight;
  }
  bool finite(double v, double lo) const { return std::isfinite(v) && v >= lo; }
};

/// Reads a keyed table whose entries `entry(c)` parses, returning each key.
template <class Entry>
KeyedTable readTable(Cursor& c, std::uint64_t maxCount, Entry&& entry) {
  KeyedTable t;
  t.countAt = c.at;
  const auto n = c.get<std::uint64_t>();
  c.require(n <= maxCount);
  std::int64_t prev = -1;
  for (std::uint64_t i = 0; c.ok && i < n; ++i) {
    t.entries.push_back(c.at);
    const std::int64_t key = entry(c);
    c.require(key > prev);
    prev = key;
  }
  t.end = c.at;
  return t;
}

/// The keyed tables of every agent in a snapshot's nodes section, in file
/// order, and each agent's neighbor table on its own.
struct AgentTables {
  std::vector<KeyedTable> all;
  std::vector<KeyedTable> neighbor;
};

AgentTables findAgentTables(const std::vector<char>& bytes,
                            const ScenarioConfig& cfg) {
  const Plausible ok{cfg, getLe<double>(bytes, kSimNowAt)};
  const auto nodes = static_cast<std::uint64_t>(cfg.numNodes);
  constexpr std::uint64_t kMaxMessages = 1000000;
  const std::size_t begin = sectionAt(bytes, kNodesSection);
  const std::size_t end = begin + getLe<std::uint64_t>(bytes, begin - 8);

  const auto nodeKey = [&](Cursor& c) -> std::int64_t {
    const std::int32_t id = c.get<std::int32_t>();
    c.require(ok.node(id));
    return id;
  };
  const auto messageKey = [&](Cursor& c) -> std::int64_t {
    const std::int32_t src = c.get<std::int32_t>();
    const std::int32_t seq = c.get<std::int32_t>();
    c.require(ok.node(src) && seq >= 0);
    return (static_cast<std::int64_t>(src) << 32) | seq;
  };
  // A position and the time it was observed.
  const auto observation = [&](Cursor& c) {
    c.require(ok.pos(c) && ok.time(c.get<double>()));
  };
  const auto neighborEntry = [&](Cursor& c) {
    const std::int64_t id = nodeKey(c);
    observation(c);
    const auto reported = c.get<std::uint64_t>();
    c.require(reported <= nodes);
    for (std::uint64_t i = 0; c.ok && i < reported; ++i) {
      (void)nodeKey(c);
      observation(c);
    }
    return id;
  };
  const auto locationEntry = [&](Cursor& c) {
    const std::int64_t id = nodeKey(c);
    observation(c);
    return id;
  };
  const auto suspicionEntry = [&](Cursor& c) {
    const std::int64_t id = nodeKey(c);
    c.require(c.get<std::int32_t>() >= 0 && std::isfinite(c.get<double>()));
    return id;
  };
  const auto offerEntry = [&](Cursor& c) {  // watermark (any u64)
    const std::int64_t id = nodeKey(c);
    (void)c.get<std::uint64_t>();
    return id;
  };
  const auto offerTimeEntry = [&](Cursor& c) {
    const std::int64_t id = nodeKey(c);
    c.require(ok.time(c.get<double>()));
    return id;
  };
  const auto requestEntry = [&](Cursor& c) {
    const std::int64_t id = messageKey(c);
    c.require(ok.time(c.get<double>()));
    return id;
  };
  const auto budgetEntry = [&](Cursor& c) {
    const std::int64_t id = messageKey(c);
    const std::int32_t budget = c.get<std::int32_t>();
    c.require(budget >= 0 && budget <= cfg.sprayBudget);
    return id;
  };
  // RNG state: words with a plausible share of set bits.
  const auto randomWords = [](Cursor& c, int n) {
    bool random = true;
    for (int w = 0; w < n; ++w) {
      const int bits = std::popcount(c.get<std::uint64_t>());
      random = random && bits >= 12 && bits <= 52;
    }
    return random;
  };
  // Message buffer: capacity, the stored messages, the cached copies (a
  // message, next hop and send time), then four counters. A message is
  // 144 bytes (checkpoint/payload_codec.cpp).
  const auto skipBuffer = [](Cursor& c) {
    constexpr std::uint64_t kMessageBytes = 144;
    (void)c.get<std::uint64_t>();
    const auto stored = c.get<std::uint64_t>();
    c.require(stored <= kMaxMessages);
    c.skip(stored * kMessageBytes);
    const auto cached = c.get<std::uint64_t>();
    c.require(cached <= kMaxMessages);
    c.skip(cached * (kMessageBytes + 12));
    c.skip(4 * 8);
  };

  AgentTables found;
  for (std::size_t at = begin + 64; at + 8 <= end; ++at) {
    Cursor c{bytes, at - 64, end};
    c.require(randomWords(c, 8));
    std::vector<KeyedTable> tables{readTable(c, nodes, neighborEntry)};
    const auto sent = c.get<std::uint64_t>();
    (void)c.get<std::uint64_t>();
    const auto failed = c.get<std::uint64_t>();
    c.require(sent >= 1 && sent <= 100000 && failed <= sent);
    skipBuffer(c);
    switch (cfg.protocol) {
      case Protocol::kGlr:
        // Location table, delivered set, suspicion table, then 17 counters,
        // nextSeq, checkQueued, cwnd, ssthresh, srtt, rttvar, haveRtt.
        tables.push_back(readTable(c, nodes, locationEntry));
        tables.push_back(readTable(c, kMaxMessages, messageKey));
        tables.push_back(readTable(c, nodes, suspicionEntry));
        c.skip(17 * 8);
        c.require(c.get<std::int32_t>() >= 0 && c.get<std::uint8_t>() <= 1);
        c.require(ok.finite(c.get<double>(), 1e-9) &&
                  ok.finite(c.get<double>(), 1e-9) &&
                  ok.finite(c.get<double>(), 0.0) &&
                  ok.finite(c.get<double>(), 0.0));
        c.require(c.get<std::uint8_t>() <= 1);
        break;
      case Protocol::kEpidemic: {
        // Delivered set, the additions log (u64 sequence, message id), its
        // next sequence number, the offer watermarks, the offer times and
        // the request times, then seven counters and nextSeq.
        tables.push_back(readTable(c, kMaxMessages, messageKey));
        const auto additions = c.get<std::uint64_t>();
        c.require(additions <= kMaxMessages);
        c.skip(additions * 16);
        (void)c.get<std::uint64_t>();
        tables.push_back(readTable(c, nodes, offerEntry));
        tables.push_back(readTable(c, nodes, offerTimeEntry));
        tables.push_back(readTable(c, kMaxMessages, requestEntry));
        c.skip(7 * 8);
        c.require(c.get<std::int32_t>() >= 0);
        break;
      }
      case Protocol::kSprayAndWait:
        // Copy budgets, delivered set, three counters, nextSeq.
        tables.push_back(readTable(c, kMaxMessages, budgetEntry));
        tables.push_back(readTable(c, kMaxMessages, messageKey));
        c.skip(3 * 8);
        c.require(c.get<std::int32_t>() >= 0);
        break;
      case Protocol::kDirectDelivery:
        // Delivered set, two counters, nextSeq.
        tables.push_back(readTable(c, kMaxMessages, messageKey));
        c.skip(2 * 8);
        c.require(c.get<std::int32_t>() >= 0);
        break;
    }
    // Then the section ends, or the next node's MAC state begins: four RNG
    // words and the interface queue's length.
    const std::size_t agentEnd = c.at;
    if (c.ok && c.at != end) {
      c.require(randomWords(c, 4) && c.get<std::uint64_t>() <= cfg.queueLimit);
    }
    if (c.ok) {
      found.neighbor.push_back(tables.front());
      found.all.insert(found.all.end(), tables.begin(), tables.end());
      at = agentEnd + 64 - 1;  // the next agent starts after this one
    }
  }
  return found;
}

/// One random edit of a keyed table: its count, one entry's key, or the
/// order of two adjacent entries.
void mutateTable(std::vector<char>& bytes, const KeyedTable& t, int nodes,
                 glr::sim::Rng& rng) {
  const std::size_t n = t.entries.size();
  switch (rng.below(std::min<std::uint64_t>(n + 1, 3))) {
    case 0:  // count
      putLe<std::uint64_t>(bytes, t.countAt,
                           rng.below(2) == 0 ? n + 1 - 2 * rng.below(2)
                                             : rng());
      break;
    case 1: {  // key: a neighbor's, an edge of the id range, or anything
      const std::int32_t picks[] = {-1, 0, nodes - 1, nodes,
                                    std::numeric_limits<std::int32_t>::min(),
                                    std::numeric_limits<std::int32_t>::max()};
      putLe<std::int32_t>(bytes, t.entries[rng.below(n)],
                          rng.below(2) == 0
                              ? picks[rng.below(6)]
                              : static_cast<std::int32_t>(rng.below(
                                    static_cast<std::uint64_t>(nodes) + 4)));
      break;
    }
    default: {  // swap entries i and i + 1 (they may differ in length)
      const std::size_t i = rng.below(n - 1);
      const std::size_t last = i + 2 < n ? t.entries[i + 2] : t.end;
      std::rotate(bytes.begin() + static_cast<std::ptrdiff_t>(t.entries[i]),
                  bytes.begin() + static_cast<std::ptrdiff_t>(t.entries[i + 1]),
                  bytes.begin() + static_cast<std::ptrdiff_t>(last));
      break;
    }
  }
}

/// `cfg` shortened to one snapshot at t = 60 s and a 4 s tail.
ScenarioConfig shortMutationRun(ScenarioConfig cfg, const std::string& name) {
  cfg.checkpointEvery = 60.0;
  cfg.simTime = 64.0;
  cfg.checkpointPath = tmpPath(name);
  return cfg;
}

TEST(CheckpointMutation, KeyedTableMutantsFailLoudOrRunToTheEnd) {
  // One snapshot per agent type; each gets its own GLR_CKPT_MUTANTS.
  const std::uint64_t seeds[] = {2027, 2028, 2029, 2030};
  const ScenarioConfig configs[] = {
      mutationConfig(),
      shortMutationRun(epidemicConfig(), "ckpt_mutation_epi.bin"),
      shortMutationRun(sprayConfig(), "ckpt_mutation_spray.bin"),
      shortMutationRun(directConfig(), "ckpt_mutation_direct.bin")};
  for (std::size_t k = 0; k < std::size(configs); ++k) {
    const ScenarioConfig& cfg = configs[k];
    SCOPED_TRACE(glr::experiment::protocolName(cfg.protocol));
    const std::vector<char> valid = validSnapshot(cfg);
    const AgentTables found = findAgentTables(valid, cfg);
    ASSERT_EQ(found.neighbor.size(), static_cast<std::size_t>(cfg.numNodes));
    expectMutantsFailLoudOrRun(
        cfg, valid, seeds[k], "ascending key order",
        [&](std::vector<char>& bytes, glr::sim::Rng& rng) {
          mutateTable(bytes, found.all[rng.below(found.all.size())],
                      cfg.numNodes, rng);
        });
  }
}

/// A valid snapshot of mutationConfig() and its first neighbor table with
/// at least two entries.
std::pair<std::vector<char>, KeyedTable> snapshotWithNeighborPair(
    const ScenarioConfig& cfg) {
  std::vector<char> bytes = validSnapshot(cfg);
  const AgentTables found = findAgentTables(bytes, cfg);
  EXPECT_EQ(found.neighbor.size(), static_cast<std::size_t>(cfg.numNodes));
  const auto table = std::find_if(
      found.neighbor.begin(), found.neighbor.end(),
      [](const KeyedTable& t) { return t.entries.size() >= 2; });
  EXPECT_NE(table, found.neighbor.end());
  return {std::move(bytes), table != found.neighbor.end() ? *table
                                                          : KeyedTable{}};
}

TEST(Checkpoint, SwappedNeighborKeysRefused) {
  const ScenarioConfig cfg = mutationConfig();
  auto [bytes, table] = snapshotWithNeighborPair(cfg);
  ASSERT_GE(table.entries.size(), 2u);
  const auto first = getLe<std::int32_t>(bytes, table.entries[0]);
  const auto second = getLe<std::int32_t>(bytes, table.entries[1]);
  putLe<std::int32_t>(bytes, table.entries[0], second);
  putLe<std::int32_t>(bytes, table.entries[1], first);
  reseal(bytes);
  expectRefused(cfg, bytes, "ckpt_swapped_keys.bin",
                "nodes section: keyed table entry 1 is not after its "
                "predecessor in ascending key order");
}

TEST(Checkpoint, OutOfRangeNeighborIdRefused) {
  // Still ascending, but not a node: restoring it would let knowledge()
  // size its per-id index by the bogus id.
  const ScenarioConfig cfg = mutationConfig();
  auto [bytes, table] = snapshotWithNeighborPair(cfg);
  ASSERT_GE(table.entries.size(), 2u);
  putLe<std::int32_t>(bytes, table.entries.back(), cfg.numNodes);
  reseal(bytes);
  expectRefused(cfg, bytes, "ckpt_neighbor_id.bin",
                "nodes section: node id 20 is outside [0, 20)");
}

}  // namespace
