// Replays every committed crash-schedule artifact under tests/corpus_fault/
// (serial workload) and tests/corpus_multishot/ (pipelined workload) and
// requires the freshly computed CrashPointResult to match the stored report
// field for field — the executable proof that a sweep failure is
// reproducible from its artifact alone (and that shrunk schedules replay to
// the same RecoveryReport across code changes).
//
// Regenerate an entry with:
//   faultkit [--multishot] --replay --site=N --kind=K --arg=A --save=<dir>
#include <gtest/gtest.h>

#include <filesystem>

#include "faultinject/torture.h"

namespace rcommit::faultinject {
namespace {

namespace fs = std::filesystem;

TEST(FaultkitReplayTest, CorpusArtifactsReplayIdentically) {
  int replayed = 0;
  for (const fs::path& corpus :
       {fs::path(RCOMMIT_FAULT_CORPUS_DIR), fs::path(RCOMMIT_MULTISHOT_CORPUS_DIR)}) {
    ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
    for (const auto& entry : fs::directory_iterator(corpus)) {
      if (!entry.is_directory()) continue;
      SCOPED_TRACE(entry.path().string());
      const FaultArtifact artifact = load_fault_artifact(entry.path());
      TortureOptions options = artifact.options;
      options.scratch_dir = fs::temp_directory_path() /
                            ("rcommit_faultkit_replay_" +
                             std::to_string(::getpid()) + "_" +
                             entry.path().filename().string());
      const CrashPointResult result = run_crash_point(options, artifact.plan);
      EXPECT_EQ(result, artifact.expected)
          << "expected:\n"
          << artifact.expected.serialize() << "got:\n"
          << result.serialize();
      EXPECT_EQ(result.report, artifact.expected.report);
      std::error_code ec;
      fs::remove_all(options.scratch_dir, ec);
      ++replayed;
    }
  }
  // One serial entry, plus two serial-era and two group-commit pipelined ones.
  EXPECT_GE(replayed, 5) << "the committed corpora must hold at least five entries";
}

TEST(FaultkitReplayTest, ArtifactRoundTripsThroughDisk) {
  TortureOptions pipelined;
  pipelined.workload = PipelinedWorkload{.group_commit = true, .decision_batch = 4};
  for (TortureOptions options : {TortureOptions{}, pipelined}) {
    const bool is_pipelined = std::holds_alternative<PipelinedWorkload>(options.workload);
    SCOPED_TRACE(is_pipelined ? "pipelined" : "serial");
    const fs::path dir = fs::temp_directory_path() /
                         ("rcommit_fault_artifact_" + std::to_string(::getpid()) +
                          (is_pipelined ? "_pipelined" : "_serial"));
    options.seed = 21;
    FaultPlan plan = FaultPlan::wal_fault_at(4, FaultKind::kPartialFlush);
    plan.add({9, FaultKind::kDuplicate, 0});
    CrashPointResult expected;
    expected.crashed = true;
    expected.crash_site = 4;
    expected.sites_seen = 5;
    expected.digest = 0xdeadbeef;
    expected.errors = {"sample error"};
    write_fault_artifact(dir, {options, plan, expected});
    const FaultArtifact back = load_fault_artifact(dir);
    // The loader tells the workloads apart by config.txt's `batches=` line.
    EXPECT_EQ(back.options.workload.index(), options.workload.index());
    EXPECT_EQ(back.options.serialize(), options.serialize());
    EXPECT_EQ(back.plan, plan);
    EXPECT_EQ(back.expected, expected);
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

}  // namespace
}  // namespace rcommit::faultinject
