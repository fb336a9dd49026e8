// Tests for the in-doubt transaction recovery manager: outcome adoption,
// the unprepared-participant abort rule, and the rerun-the-protocol path.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "db/kv.h"
#include "db/recovery.h"
#include "db/wal.h"

namespace rcommit::db {
namespace {

namespace fs = std::filesystem;

class RecoveryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("rcommit_recovery_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] fs::path wal_path(int shard) const {
    return dir_ / ("shard-" + std::to_string(shard) + ".wal");
  }

  fs::path dir_;
};

TEST_F(RecoveryFixture, AdoptsRecordedCommit) {
  // Shard 0 committed txn 1; shard 1 crashed prepared. Recovery must commit
  // shard 1's copy.
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(1, {{"a", "A"}}));
    shard0.commit(1);
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(1, {{"b", "B"}}));
    // shard1 "crashes" here.
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  ASSERT_EQ(shard1.in_doubt().size(), 1u);

  RecoveryManager recovery({&shard0, &shard1}, {});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_commit, 1);
  EXPECT_EQ(report.resolved_abort, 0);
  EXPECT_EQ(report.reran_protocol, 0);
  EXPECT_EQ(shard1.get("b"), "B");
  EXPECT_TRUE(shard1.in_doubt().empty());
}

TEST_F(RecoveryFixture, AdoptsRecordedAbort) {
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(2, {{"a", "A"}}));
    shard0.abort(2);
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(2, {{"b", "B"}}));
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_abort, 1);
  EXPECT_EQ(shard1.get("b"), std::nullopt);
  EXPECT_TRUE(shard1.in_doubt().empty());
}

TEST_F(RecoveryFixture, UnpreparedParticipantForcesAbort) {
  // Shard 0 began but never prepared (crashed mid-prepare); shard 1 is
  // prepared. Shard 0 can never have voted commit, so abort is the only safe
  // outcome.
  {
    WriteAheadLog wal0(wal_path(0));
    wal0.append({WalRecordType::kBegin, 3, "", ""});
    wal0.append({WalRecordType::kWrite, 3, "a", "A"});
    // no kPrepared: crash mid-prepare
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(3, {{"b", "B"}}));
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_abort, 1);
  EXPECT_EQ(report.reran_protocol, 0);
  EXPECT_EQ(shard1.get("b"), std::nullopt);
}

TEST_F(RecoveryFixture, AllPreparedRerunsProtocolAndAgrees) {
  // Every shard prepared, nobody recorded an outcome: recovery reruns the
  // commit protocol with all-commit votes; all shards get the same outcome.
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(4, {{"a", "A"}}));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(4, {{"b", "B"}}));
    KvStore shard2(wal_path(2));
    ASSERT_TRUE(shard2.prepare(4, {{"c", "C"}}));
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  KvStore shard2(wal_path(2));
  RecoveryManager recovery({&shard0, &shard1, &shard2}, {.seed = 9});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 1);
  EXPECT_EQ(report.resolved_commit + report.resolved_abort, 1);
  // Whatever was decided, it is uniform: all three applied or none.
  const bool a = shard0.get("a").has_value();
  const bool b = shard1.get("b").has_value();
  const bool c = shard2.get("c").has_value();
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
  EXPECT_TRUE(shard0.in_doubt().empty());
  EXPECT_TRUE(shard1.in_doubt().empty());
  EXPECT_TRUE(shard2.in_doubt().empty());
}

TEST_F(RecoveryFixture, LonePreparedShardCommits) {
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(5, {{"solo", "X"}}));
  }
  KvStore shard0(wal_path(0));
  RecoveryManager recovery({&shard0}, {});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_commit, 1);
  EXPECT_EQ(shard0.get("solo"), "X");
}

TEST_F(RecoveryFixture, MultipleInDoubtTransactionsResolvedIndependently) {
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(10, {{"k10", "v"}}));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(10, {{"k10", "v"}}));
    shard1.commit(10);
    ASSERT_TRUE(shard1.prepare(11, {{"k11", "v"}}));
    ASSERT_TRUE(shard0.prepare(11, {{"k11", "v"}}));
    shard0.abort(11);
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_commit, 1);  // txn 10 adopts shard1's commit
  EXPECT_EQ(report.resolved_abort, 1);   // txn 11 adopts shard0's abort
  EXPECT_EQ(shard0.get("k10"), "v");
  EXPECT_EQ(shard1.get("k11"), std::nullopt);
}

TEST_F(RecoveryFixture, ResolveAllIsIdempotent) {
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(6, {{"x", "1"}}));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(6, {{"y", "1"}}));
    shard1.commit(6);
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {});
  (void)recovery.resolve_all();
  const auto second = recovery.resolve_all();
  EXPECT_EQ(second.resolved_commit + second.resolved_abort, 0);
}

/// Appends a well-framed record (valid CRC) with an arbitrary type byte —
/// the corruption WriteAheadLog::append can never produce itself.
void append_raw_record(const fs::path& path, uint8_t type, int64_t txn) {
  BufWriter body;
  body.u8(type);
  body.svarint(txn);
  body.str("k");
  body.str("v");
  BufWriter frame;
  frame.u32(static_cast<uint32_t>(body.size()));
  frame.u32(crc32c(std::span<const uint8_t>(body.data())));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(frame.data().data()),
            static_cast<std::streamsize>(frame.size()));
  out.write(reinterpret_cast<const char*>(body.data().data()),
            static_cast<std::streamsize>(body.size()));
}

TEST_F(RecoveryFixture, UnknownRecordTypeStopsReplayDespiteValidCrc) {
  // A record whose CRC is intact but whose type byte is outside WalRecordType
  // must be rejected, not silently skipped: replay stops there and trusts
  // nothing after — so the commit record behind it is NOT honoured and the
  // transaction surfaces as in doubt.
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(8, {{"a", "A"}}));
  }
  append_raw_record(wal_path(0), 9, 8);  // type 9: not a WalRecordType
  {
    WriteAheadLog wal0(wal_path(0));
    EXPECT_EQ(wal0.replay().size(), 3u);  // begin + write + prepared; type 9 gone
  }
  KvStore shard0(wal_path(0));
  EXPECT_EQ(shard0.in_doubt(), std::vector<TxnId>{8});
  EXPECT_EQ(shard0.get("a"), std::nullopt);
}

TEST_F(RecoveryFixture, CorruptTailIsTruncatedSoLaterAppendsSurvive) {
  // The torture suite's headline find: recovery appends its resolution to the
  // WAL, and if a torn/invalid tail were left in place those appends would be
  // unreachable on the next open. Opening the log must truncate the tail.
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(9, {{"a", "A"}}));
  }
  append_raw_record(wal_path(0), 200, 9);  // invalid type: distrusted tail
  {
    KvStore shard0(wal_path(0));  // open truncates the bad tail
    ASSERT_EQ(shard0.in_doubt(), std::vector<TxnId>{9});
    shard0.commit(9);  // appended after the (now removed) corruption
  }
  KvStore shard0(wal_path(0));
  EXPECT_TRUE(shard0.in_doubt().empty());
  EXPECT_EQ(shard0.get("a"), "A");
}

TEST_F(RecoveryFixture, MissingIntendedParticipantForcesAbort) {
  // Shard 0's PREPARED record names {0, 1} as the participant set, but shard 1
  // has no WAL trace at all — the crash struck between the two prepares.
  // Without the recorded list this is indistinguishable from a lone-shard
  // transaction (which commits); with it, recovery must abort.
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(20, {{"a", "A"}}, {0, 1}));
    KvStore shard1(wal_path(1));  // creates an empty WAL, nothing recorded
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_abort, 1);
  EXPECT_EQ(report.resolved_commit, 0);
  EXPECT_EQ(report.reran_protocol, 0);
  EXPECT_EQ(shard0.get("a"), std::nullopt);
  EXPECT_TRUE(shard0.in_doubt().empty());
}

TEST_F(RecoveryFixture, FullParticipantListPreparedStillCommits) {
  // Same recorded list, but both participants did prepare: rule 3 applies and
  // the rerun commits (all votes are 1).
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(21, {{"a", "A"}}, {0, 1}));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(21, {{"b", "B"}}, {0, 1}));
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {.seed = 17});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 1);
  EXPECT_EQ(report.resolved_commit, 1);
  EXPECT_EQ(shard0.get("a"), "A");
  EXPECT_EQ(shard1.get("b"), "B");
}

TEST_F(RecoveryFixture, ShardIdMappingResolvesParticipantLists) {
  // RPC-style deployment: the shards vector holds nodes {5, 6}. Node 5's
  // PREPARED record names {5, 6}; node 6 never prepared. The mapping must
  // translate ids to vector positions so rule 2 still fires.
  {
    KvStore shard5(wal_path(5));
    ASSERT_TRUE(shard5.prepare(30, {{"a", "A"}}, {5, 6}));
    KvStore shard6(wal_path(6));
  }
  KvStore shard5(wal_path(5));
  KvStore shard6(wal_path(6));
  RecoveryManager recovery({&shard5, &shard6}, {.shard_ids = {5, 6}});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_abort, 1);
  EXPECT_EQ(shard5.get("a"), std::nullopt);
}

// --- sealed decision batches -------------------------------------------------------

TEST_F(RecoveryFixture, SealedBatchRerunsProtocolOnceForAllMembers) {
  // Two rule-3 transactions sealed into one decision batch: recovery must run
  // ONE protocol rerun (seeded by the batch id) and give both members its
  // decision — mirroring the single live round the seal records.
  {
    KvStore shard0(wal_path(0));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard0.prepare(40, {{"a", "A"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(40, {{"c", "C"}}, {0, 1}));
    ASSERT_TRUE(shard0.prepare(41, {{"b", "B"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(41, {{"d", "D"}}, {0, 1}));
    shard0.seal_batch(40, {40, 41});
    shard1.seal_batch(40, {40, 41});
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {.seed = 11});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 1);  // one round for two members
  EXPECT_EQ(report.resolved_commit, 2);  // on-time all-yes rerun commits
  EXPECT_EQ(shard0.get("a"), "A");
  EXPECT_EQ(shard1.get("d"), "D");
  EXPECT_TRUE(shard0.in_doubt().empty());
  EXPECT_TRUE(shard1.in_doubt().empty());
}

TEST_F(RecoveryFixture, SealedBatchWithRecordedOutcomeMixesRules) {
  // Member 51 already has a recorded commit (rule 1); member 50 is rule 3.
  // The recorded outcome stands on its own — only 50 joins the batch rerun.
  {
    KvStore shard0(wal_path(0));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard0.prepare(50, {{"a", "A"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(50, {{"b", "B"}}, {0, 1}));
    ASSERT_TRUE(shard0.prepare(51, {{"c", "C"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(51, {{"d", "D"}}, {0, 1}));
    shard0.seal_batch(50, {50, 51});
    shard1.seal_batch(50, {50, 51});
    shard0.commit(51);  // outcome reached shard 0 before the crash
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {.seed = 11});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 1);
  EXPECT_EQ(report.resolved_commit, 2);  // 50 via rerun, 51 via adoption
  EXPECT_EQ(shard1.get("d"), "D");
  EXPECT_TRUE(shard0.in_doubt().empty());
  EXPECT_TRUE(shard1.in_doubt().empty());
}

TEST_F(RecoveryFixture, SealedBatchMemberFailingRuleTwoAbortsAlone) {
  // Member 60 names shard 1 as a participant but shard 1 never prepared it:
  // rule 2 aborts 60 without a rerun. Member 61 is rule 3 and still gets the
  // batch's single rerun.
  {
    KvStore shard0(wal_path(0));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard0.prepare(60, {{"a", "A"}}, {0, 1}));
    // shard 1 crashed before preparing 60 — no trace at all.
    ASSERT_TRUE(shard0.prepare(61, {{"b", "B"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(61, {{"c", "C"}}, {0, 1}));
    shard0.seal_batch(60, {60, 61});
    shard1.seal_batch(60, {60, 61});
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {.seed = 11});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 1);  // only 61 needed the round
  EXPECT_EQ(report.resolved_abort, 1);   // 60, by rule 2
  EXPECT_EQ(report.resolved_commit, 1);  // 61, by the rerun
  EXPECT_EQ(shard0.get("a"), std::nullopt);
  EXPECT_EQ(shard1.get("c"), "C");
}

TEST_F(RecoveryFixture, UnsealedRuleThreeTransactionsStillRerunPerTxn) {
  // Without seals the PR 9 behaviour is untouched: each rule-3 transaction
  // reruns its own round.
  {
    KvStore shard0(wal_path(0));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard0.prepare(70, {{"a", "A"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(70, {{"b", "B"}}, {0, 1}));
    ASSERT_TRUE(shard0.prepare(71, {{"c", "C"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(71, {{"d", "D"}}, {0, 1}));
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {.seed = 11});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 2);
  EXPECT_EQ(report.resolved_commit, 2);
}

TEST_F(RecoveryFixture, SealOnSubsetOfShardsStillBatches) {
  // A torn group can leave the seal on only one shard's WAL. The survey
  // merges seals across shards, so one surviving copy is enough to batch.
  {
    KvStore shard0(wal_path(0));
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard0.prepare(80, {{"a", "A"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(80, {{"b", "B"}}, {0, 1}));
    ASSERT_TRUE(shard0.prepare(81, {{"c", "C"}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(81, {{"d", "D"}}, {0, 1}));
    shard0.seal_batch(80, {80, 81});  // shard 1's copy was torn away
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  RecoveryManager recovery({&shard0, &shard1}, {.seed = 11});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.reran_protocol, 1);
  EXPECT_EQ(report.resolved_commit, 2);
}

TEST_F(RecoveryFixture, SurveyReportsPerShardStatus) {
  {
    KvStore shard0(wal_path(0));
    ASSERT_TRUE(shard0.prepare(7, {{"a", "A"}}));
    shard0.commit(7);
    KvStore shard1(wal_path(1));
    ASSERT_TRUE(shard1.prepare(7, {{"b", "B"}}));
    WriteAheadLog wal2(wal_path(2));
    wal2.append({WalRecordType::kBegin, 7, "", ""});
  }
  KvStore shard0(wal_path(0));
  KvStore shard1(wal_path(1));
  KvStore shard2(wal_path(2));
  RecoveryManager recovery({&shard0, &shard1, &shard2}, {});
  const BatchSurvey survey = recovery.survey_all();
  EXPECT_EQ(survey.status(0, 7), ShardTxnStatus::kCommitted);
  EXPECT_EQ(survey.status(1, 7), ShardTxnStatus::kPrepared);
  EXPECT_EQ(survey.status(2, 7), ShardTxnStatus::kStagedOnly);
}

// --- grouped outcome records --------------------------------------------------------

/// Leaves in doubt on shards 0 and 1 one sealed rule-3 batch (10, 11), one
/// unsealed rule-3 instance (12), one rule-1 instance (13, committed on shard
/// 0 only) and one rule-2 instance (14, shard 1 never prepared). Shard 2 holds
/// only committed state, so recovery never touches it.
void write_mixed_in_doubt(const fs::path& dir) {
  KvStore shard0(dir / "shard-0.wal");
  KvStore shard1(dir / "shard-1.wal");
  KvStore shard2(dir / "shard-2.wal");
  ASSERT_TRUE(shard2.prepare(1, {{"z", "Z"}}));
  shard2.commit(1);
  for (const TxnId txn : {10, 11, 12, 13}) {
    const std::string tag = std::to_string(txn);
    ASSERT_TRUE(shard0.prepare(txn, {{"a" + tag, "A" + tag}}, {0, 1}));
    ASSERT_TRUE(shard1.prepare(txn, {{"b" + tag, "B" + tag}}, {0, 1}));
  }
  ASSERT_TRUE(shard0.prepare(14, {{"a14", "A14"}}, {0, 1}));
  shard0.seal_batch(10, {10, 11});
  shard1.seal_batch(10, {10, 11});
  shard0.commit(13);
}

std::vector<std::unique_ptr<KvStore>> open_shards(const fs::path& dir) {
  std::vector<std::unique_ptr<KvStore>> stores;
  for (int shard = 0; shard < 3; ++shard) {
    stores.push_back(
        std::make_unique<KvStore>(dir / ("shard-" + std::to_string(shard) + ".wal")));
  }
  return stores;
}

std::vector<KvStore*> pointers(const std::vector<std::unique_ptr<KvStore>>& stores) {
  std::vector<KvStore*> out;
  for (const auto& store : stores) out.push_back(store.get());
  return out;
}

TEST_F(RecoveryFixture, GroupedOutcomesFlushOncePerTouchedShardAndAreDurable) {
  write_mixed_in_doubt(dir_);
  const auto stores = open_shards(dir_);
  std::vector<int64_t> flushes_before;
  for (const auto& store : stores) flushes_before.push_back(store->wal_stats().flushes);

  RecoveryManager recovery(pointers(stores), {.seed = 5});
  const auto report = recovery.resolve_all();
  EXPECT_EQ(report.resolved_commit, 4);  // 10, 11, 12 rerun; 13 adopted
  EXPECT_EQ(report.resolved_abort, 1);   // 14
  EXPECT_EQ(report.reran_protocol, 2);   // batch 10, then 12
  // Every outcome on a shard rides one group flush; shard 2 had none.
  const std::vector<int64_t> expected_flushes = {1, 1, 0};
  for (size_t i = 0; i < stores.size(); ++i) {
    EXPECT_EQ(stores[i]->wal_stats().flushes - flushes_before[i], expected_flushes[i])
        << "shard " << i;
    EXPECT_FALSE(stores[i]->wal_group_open()) << "shard " << i;  // left as found
  }

  // The outcomes are on disk: fresh stores opened from the files agree.
  const auto reopened = open_shards(dir_);
  for (size_t i = 0; i < stores.size(); ++i) {
    EXPECT_TRUE(reopened[i]->in_doubt().empty()) << "shard " << i;
    EXPECT_EQ(reopened[i]->snapshot(), stores[i]->snapshot()) << "shard " << i;
  }
  EXPECT_EQ(reopened[1]->get("b12"), "B12");
  EXPECT_EQ(reopened[0]->get("a14"), std::nullopt);
}

TEST_F(RecoveryFixture, OwnersOpenGroupStaysOpenWithOutcomesFlushed) {
  write_mixed_in_doubt(dir_);
  const auto stores = open_shards(dir_);
  stores[0]->wal_begin_group();
  const int64_t flushes_before = stores[0]->wal_stats().flushes;

  RecoveryManager recovery(pointers(stores), {.seed = 5});
  (void)recovery.resolve_all();
  EXPECT_TRUE(stores[0]->wal_group_open());
  EXPECT_FALSE(stores[1]->wal_group_open());
  EXPECT_EQ(stores[0]->wal_stats().flushes - flushes_before, 1);
  {
    KvStore reopened(wal_path(0));
    EXPECT_TRUE(reopened.in_doubt().empty());
    EXPECT_EQ(reopened.snapshot(), stores[0]->snapshot());
  }
  stores[0]->wal_end_group();
}

/// Crashes at the first physical write to one WAL, with a scripted kind.
class CrashAtPathHook : public WalFaultHook {
 public:
  CrashAtPathHook(fs::path target, WalAppendFault::Kind kind)
      : target_(std::move(target)), kind_(kind) {}

  WalAppendFault on_append(const fs::path& wal_path,
                           std::span<const uint8_t> frame) override {
    WalAppendFault fault;
    if (wal_path != target_ || fired_) return fault;
    fired_ = true;
    fault.kind = kind_;
    fault.keep_bytes = frame.size() / 2;
    fault.site = 0;
    return fault;
  }

 private:
  fs::path target_;
  WalAppendFault::Kind kind_;
  bool fired_ = false;
};

TEST_F(RecoveryFixture, CrashInRecoveryGroupedFlushIsHarmless) {
  // Buffered outcomes lost to a crash are never observed, and the rerun is
  // deterministic: resolving again from disk — after shard 0's group landed
  // and shard 1's did not — must reach the uncrashed resolve's outcomes.
  const fs::path reference_dir = dir_ / "reference";
  fs::create_directories(reference_dir);
  write_mixed_in_doubt(reference_dir);
  std::vector<std::map<std::string, std::string>> expected;
  {
    const auto stores = open_shards(reference_dir);
    RecoveryManager recovery(pointers(stores), {.seed = 5});
    (void)recovery.resolve_all();
    for (const auto& store : stores) expected.push_back(store->snapshot());
  }

  write_mixed_in_doubt(dir_);
  for (const auto kind : {WalAppendFault::Kind::kCrashBefore, WalAppendFault::Kind::kTorn}) {
    const auto stores = open_shards(dir_);
    CrashAtPathHook hook(wal_path(1), kind);
    for (const auto& store : stores) store->set_fault_hook(&hook);
    RecoveryManager recovery(pointers(stores), {.seed = 5});
    EXPECT_THROW((void)recovery.resolve_all(), CrashInjected);
  }
  {
    const auto stores = open_shards(dir_);
    EXPECT_TRUE(stores[0]->in_doubt().empty());  // its group landed first
    // Shard 1's first group was lost whole; the torn one kept the first half
    // of its four equal-sized outcome frames.
    EXPECT_EQ(stores[1]->in_doubt(), (std::vector<TxnId>{12, 13}));
    RecoveryManager recovery(pointers(stores), {.seed = 5});
    (void)recovery.resolve_all();
  }
  const auto recovered = open_shards(dir_);
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_TRUE(recovered[i]->in_doubt().empty()) << "shard " << i;
    EXPECT_EQ(recovered[i]->snapshot(), expected[i]) << "shard " << i;
  }
}

TEST_F(RecoveryFixture, SurveyAllReplaysReadOnly) {
  // survey_all reads through each store's own log instead of opening a
  // second WriteAheadLog, whose open would truncate a distrusted tail.
  write_mixed_in_doubt(dir_);
  const auto stores = open_shards(dir_);
  {
    std::ofstream out(wal_path(0), std::ios::binary | std::ios::app);
    out.write("\x05\x00", 2);  // a torn header, appended behind the store's back
  }
  const auto size = fs::file_size(wal_path(0));
  RecoveryManager recovery(pointers(stores), {});
  const BatchSurvey survey = recovery.survey_all();
  EXPECT_EQ(fs::file_size(wal_path(0)), size);
  EXPECT_EQ(survey.status(0, 13), ShardTxnStatus::kCommitted);
  EXPECT_EQ(survey.status(1, 13), ShardTxnStatus::kPrepared);
  EXPECT_EQ(survey.batches.at(10), (std::vector<TxnId>{10, 11}));
}

}  // namespace
}  // namespace rcommit::db
