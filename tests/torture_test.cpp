// Crash-point torture over the durability layer, for both workloads of the
// one harness (faultinject/torture.h): every reachable WAL injection site is
// hit with every WAL fault kind, and the recovered state must equal the
// reference state machine's committed-prefix view (SQLite crash-test style),
// cross-shard atomicity included ("at all processors or at no processor").
//
//   WalTortureFixture        the serial workload: one MultiShotDb client
//                            over the threaded network
//   MultiShotTortureFixture  the pipelined MultiShotDb workload (3 shards x
//                            8 instances in flight), with and without group
//                            commit + decision batching
//
// Both fixtures run the same test bodies. The tier-1 run sweeps one seed;
// configuring with -DRCOMMIT_LONG_TESTS=ON adds seed-matrix sweeps over
// larger workloads (CI's TSan job). The pipelined corpus under
// tests/corpus_multishot/ replays here as well as, with the serial corpus, in
// faultkit_replay_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <variant>

#include "faultinject/torture.h"

namespace rcommit::faultinject {
namespace {

namespace fs = std::filesystem;

class TortureFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("rcommit_torture_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

class WalTortureFixture : public TortureFixture {};
class MultiShotTortureFixture : public TortureFixture {};

TortureOptions pipelined(PipelinedWorkload workload = {}) {
  TortureOptions options;
  options.workload = workload;
  return options;
}

constexpr PipelinedWorkload kGrouped{.group_commit = true, .decision_batch = 4};

void expect_clean_sweep(const TortureOptions& options, int threads) {
  const SweepResult result = run_wal_sweep(options, {.threads = threads});
  EXPECT_GT(result.sites, 0);
  EXPECT_EQ(result.crash_points, result.sites * 5);  // five WAL fault kinds
  for (const auto& failure : result.failures) {
    ADD_FAILURE() << "recovery not equivalent under plan:\n"
                  << failure.plan.serialize() << "result:\n"
                  << failure.result.serialize();
  }
}

/// Runs `plan` twice from separate scratch dirs under `dir` and requires
/// identical, clean results: a crash point is a pure function of
/// (options, plan).
CrashPointResult expect_reproducible(TortureOptions options, const FaultPlan& plan,
                                     const fs::path& dir) {
  options.scratch_dir = dir / "a";
  const CrashPointResult baseline = run_crash_point(options, plan);
  options.scratch_dir = dir / "b";
  EXPECT_EQ(baseline, run_crash_point(options, plan));
  EXPECT_TRUE(baseline.ok()) << baseline.serialize();
  return baseline;
}

void expect_stable_enumeration(const TortureOptions& options) {
  const auto first = enumerate_sites(options);
  const auto second = enumerate_sites(options);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].site, second[i].site);
    EXPECT_EQ(first[i].wal_name, second[i].wal_name);
    EXPECT_EQ(first[i].record_type, second[i].record_type);
    EXPECT_EQ(first[i].frame_size, second[i].frame_size);
  }
}

void expect_options_round_trip(const TortureOptions& options) {
  const auto back = TortureOptions::deserialize(options.serialize());
  EXPECT_EQ(back.serialize(), options.serialize());
  EXPECT_EQ(back.workload.index(), options.workload.index());
}

#ifdef RCOMMIT_LONG_TESTS
/// The long-test matrix: more seeds, bigger workloads, full fan-out.
void expect_clean_seed_matrix(TortureOptions options, const fs::path& dir) {
  for (const uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    options.seed = seed;
    options.fanout = 3;
    options.scratch_dir = dir / ("seed-" + std::to_string(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_clean_sweep(options, 4);
  }
}
#endif  // RCOMMIT_LONG_TESTS

// --- serial workload ---------------------------------------------------------

TEST_F(WalTortureFixture, ExhaustiveSweepRecoversEquivalently) {
  TortureOptions options;
  options.scratch_dir = dir_;
  expect_clean_sweep(options, 2);
}

TEST_F(WalTortureFixture, CrashPointIsReproducibleFromSeedAndSite) {
  // The acceptance bar: a crash point is a pure function of (seed, site).
  TortureOptions options;
  options.seed = 7;
  const FaultPlan plan = FaultPlan::wal_fault_at(5, FaultKind::kTornWrite, 99);
  expect_reproducible(options, plan, dir_);
  // A different seed runs a different workload, which must recover too.
  options.seed = 8;
  options.scratch_dir = dir_ / "c";
  EXPECT_TRUE(run_crash_point(options, plan).ok());
}

TEST_F(WalTortureFixture, EnumerationIsStable) {
  TortureOptions options;
  options.scratch_dir = dir_;
  expect_stable_enumeration(options);
}

TEST_F(WalTortureFixture, OptionsRoundTripThroughDisk) {
  TortureOptions options;
  options.seed = 99;
  options.fanout = 3;
  options.workload = SerialWorkload{.txns = 11, .txn_timeout = std::chrono::milliseconds(70)};
  expect_options_round_trip(options);
}

#ifdef RCOMMIT_LONG_TESTS
TEST_F(WalTortureFixture, SeedMatrixSweep) {
  TortureOptions options;
  options.workload = SerialWorkload{.txns = 6};
  expect_clean_seed_matrix(options, dir_);
}
#endif  // RCOMMIT_LONG_TESTS

// --- pipelined workload ------------------------------------------------------

TEST_F(MultiShotTortureFixture, CrashAtEveryAppendRecoversEquivalently) {
  TortureOptions options = pipelined();  // 3 shards x 3 batches x 8 in flight
  options.scratch_dir = dir_;
  expect_clean_sweep(options, 2);
}

TEST_F(MultiShotTortureFixture, CrashPointIsReproducibleFromSeedAndSite) {
  TortureOptions options = pipelined();
  options.seed = 7;
  // Site 30 lands mid-pipeline: several instances of the in-flight batch are
  // prepared but undecided when the crash fires.
  const auto baseline = expect_reproducible(
      options, FaultPlan::wal_fault_at(30, FaultKind::kCrashAfter, 0), dir_);
  EXPECT_TRUE(baseline.crashed);
  // A mid-pipeline crash leaves multiple in-doubt instances; batch recovery
  // resolved them all (in-doubt => resolved commit + abort counts are the
  // leftovers recovery had to decide, hot instance included).
  EXPECT_GT(baseline.report.resolved_commit + baseline.report.resolved_abort, 1);
}

TEST_F(MultiShotTortureFixture, EnumerationIsStable) {
  TortureOptions options = pipelined();
  options.scratch_dir = dir_;
  expect_stable_enumeration(options);
}

TEST_F(MultiShotTortureFixture, OptionsRoundTripThroughDisk) {
  TortureOptions options = pipelined({.batches = 5, .batch_size = 11});
  options.seed = 99;
  options.fanout = 3;
  expect_options_round_trip(options);
}

// --- group-commit + decision-batching site space -----------------------------

TEST_F(MultiShotTortureFixture, GroupCommitSweepRecoversEquivalently) {
  // Group mode moves every injection site to a group-flush boundary: a
  // crash-before verdict drops a whole buffered group (many records at once),
  // torn verdicts tear mid-group. The equivalence oracle is unchanged — the
  // recovered state must still match the committed-prefix reference.
  TortureOptions options = pipelined(kGrouped);
  options.scratch_dir = dir_;
  expect_clean_sweep(options, 2);
}

TEST_F(MultiShotTortureFixture, GroupCommitShrinksAndMovesSiteSpace) {
  TortureOptions plain = pipelined();
  plain.scratch_dir = dir_ / "plain";
  TortureOptions grouped = pipelined(kGrouped);
  grouped.scratch_dir = dir_ / "grouped";
  const auto plain_sites = enumerate_sites(plain);
  const auto grouped_sites = enumerate_sites(grouped);
  // Coalescing strictly shrinks the per-append site space down to the
  // boundary flushes; each grouped frame is bigger than any single append.
  ASSERT_GT(grouped_sites.size(), 0u);
  EXPECT_LT(grouped_sites.size(), plain_sites.size());
  size_t max_plain = 0;
  size_t max_grouped = 0;
  for (const auto& site : plain_sites) {
    max_plain = std::max(max_plain, static_cast<size_t>(site.frame_size));
  }
  for (const auto& site : grouped_sites) {
    max_grouped = std::max(max_grouped, static_cast<size_t>(site.frame_size));
  }
  EXPECT_GT(max_grouped, max_plain);
}

TEST_F(MultiShotTortureFixture, GroupBoundaryCrashIsReproducible) {
  TortureOptions options = pipelined(kGrouped);
  options.seed = 7;
  // Site 3 is a mid-pipeline group flush: crash-before loses the whole
  // buffered group — every staged append since the previous boundary.
  const auto baseline = expect_reproducible(
      options, FaultPlan::wal_fault_at(3, FaultKind::kCrashBefore, 0), dir_);
  EXPECT_TRUE(baseline.crashed);
}

TEST_F(MultiShotTortureFixture, GroupOptionsRoundTripAndDefaultsAreLegacy) {
  const TortureOptions options = pipelined({.group_commit = true, .decision_batch = 8});
  expect_options_round_trip(options);
  const auto back =
      std::get<PipelinedWorkload>(TortureOptions::deserialize(options.serialize()).workload);
  EXPECT_TRUE(back.group_commit);
  EXPECT_EQ(back.decision_batch, 8);
  // A config written before the knobs existed deserializes to them off —
  // which is how the committed corpus entries keep replaying identically.
  const auto old = std::get<PipelinedWorkload>(
      TortureOptions::deserialize("shard_count=3\nbatches=3\nbatch_size=8\n"
                                  "fanout=2\nkeys_per_shard=4\nseed=1\n"
                                  "k=25\nmax_events=200000\n")
          .workload);
  EXPECT_FALSE(old.group_commit);
  EXPECT_EQ(old.decision_batch, 1);
}

// --- pipelined artifacts -----------------------------------------------------

TEST_F(MultiShotTortureFixture, ArtifactRoundTripsAndIsDetected) {
  const fs::path artifact_dir = dir_ / "artifact";
  TortureOptions options = pipelined();
  options.seed = 21;
  const FaultPlan plan = FaultPlan::wal_fault_at(4, FaultKind::kPartialFlush);
  CrashPointResult expected;
  expected.crashed = true;
  expected.crash_site = 4;
  expected.sites_seen = 5;
  expected.digest = 0xdeadbeef;
  write_fault_artifact(artifact_dir, {options, plan, expected});
  const FaultArtifact back = load_fault_artifact(artifact_dir);
  // The loader detects the pipelined workload from config.txt alone.
  EXPECT_TRUE(std::holds_alternative<PipelinedWorkload>(back.options.workload));
  EXPECT_EQ(back.options.serialize(), options.serialize());
  EXPECT_EQ(back.plan, plan);
  EXPECT_EQ(back.expected, expected);
}

TEST_F(MultiShotTortureFixture, SerialArtifactIsNotDetectedAsMultishot) {
  const fs::path artifact_dir = dir_ / "serial-artifact";
  write_fault_artifact(artifact_dir, {TortureOptions{}, FaultPlan::none(), CrashPointResult{}});
  const FaultArtifact back = load_fault_artifact(artifact_dir);
  EXPECT_TRUE(std::holds_alternative<SerialWorkload>(back.options.workload));
}

TEST_F(MultiShotTortureFixture, CorpusEntriesReplayIdentically) {
  const fs::path corpus(RCOMMIT_MULTISHOT_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  int replayed = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_directory()) continue;
    SCOPED_TRACE(entry.path().filename().string());
    const FaultArtifact artifact = load_fault_artifact(entry.path());
    ASSERT_TRUE(std::holds_alternative<PipelinedWorkload>(artifact.options.workload));
    TortureOptions options = artifact.options;
    options.scratch_dir = dir_ / ("corpus-" + entry.path().filename().string());
    const CrashPointResult result = run_crash_point(options, artifact.plan);
    EXPECT_EQ(result, artifact.expected)
        << "expected:\n"
        << artifact.expected.serialize() << "got:\n"
        << result.serialize();
    ++replayed;
  }
  EXPECT_GE(replayed, 4) << "multishot corpus at " << corpus
                         << " must hold at least four committed entries "
                            "(two serial-era, two group-commit)";
}

#ifdef RCOMMIT_LONG_TESTS
TEST_F(MultiShotTortureFixture, SeedMatrixSweep) {
  // Deeper pipelines than the tier-1 sweep.
  expect_clean_seed_matrix(pipelined({.batches = 4, .batch_size = 10}), dir_);
}
TEST_F(MultiShotTortureFixture, GroupCommitSeedMatrixSweep) {
  // The grouped site space under the same seed matrix: fewer sites per run
  // (boundary flushes only), each crash dropping far more buffered state.
  expect_clean_seed_matrix(pipelined({.batches = 4,
                                      .batch_size = 10,
                                      .group_commit = true,
                                      .decision_batch = 5}),
                           dir_);
}
#endif  // RCOMMIT_LONG_TESTS

}  // namespace
}  // namespace rcommit::faultinject
