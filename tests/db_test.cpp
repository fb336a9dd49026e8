// Tests for the database substrate: WAL framing, scanning and recovery,
// locks, the KV two-phase lifecycle, crash recovery with in-doubt
// transactions, reopen checked against a reference replay, and end-to-end
// distributed transactions over the threaded commit protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string_view>

#include "common/check.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/kv.h"
#include "db/multishot.h"
#include "db/recovery.h"
#include "db/wal.h"
#include "faultinject/injector.h"

namespace rcommit::db {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("rcommit_db_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// --- WAL -------------------------------------------------------------------------

TEST(Wal, AppendReplayRoundTrip) {
  TempDir dir;
  const auto wal_path = dir.path() / "test.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "alpha", "1"});
    wal.append({WalRecordType::kPrepared, 1, "", ""});
    wal.append({WalRecordType::kCommit, 1, "", ""});
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[1].key, "alpha");
  EXPECT_EQ(records[1].value, "1");
  EXPECT_EQ(records[3].type, WalRecordType::kCommit);
}

TEST(Wal, ReplayEmptyLog) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "empty.wal");
  EXPECT_TRUE(wal.replay().empty());
}

TEST(Wal, TornFinalRecordIsDropped) {
  TempDir dir;
  const auto wal_path = dir.path() / "torn.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "k", "v"});
  }
  // Tear off the last 3 bytes, as a crash mid-append would.
  const auto size = fs::file_size(wal_path);
  fs::resize_file(wal_path, size - 3);
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
}

TEST(Wal, CorruptRecordStopsReplay) {
  TempDir dir;
  const auto wal_path = dir.path() / "corrupt.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "key", "value"});
    wal.append({WalRecordType::kCommit, 1, "", ""});
  }
  // Flip one byte inside the second record's body.
  std::fstream file(wal_path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(20);
  char byte;
  file.seekg(20);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(20);
  file.write(&byte, 1);
  file.close();

  WriteAheadLog wal(wal_path);
  // Replay keeps everything before the corruption; the exact count depends
  // on which frame byte 20 lands in, but it must be less than 3 and the
  // surviving prefix must be intact.
  const auto records = wal.replay();
  EXPECT_LT(records.size(), 3u);
  if (!records.empty()) {
    EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  }
}

TEST(Wal, OpenScanMatchesReplayAfterTruncation) {
  // The open's single scan is what KvStore rebuilds from: its image's views
  // must equal a later replay() on a clean end, a torn final frame and a
  // CRC-corrupt middle frame, and the store must reflect exactly them.
  const std::vector<WalRecord> log = {
      {WalRecordType::kBegin, 1, "", ""},    {WalRecordType::kWrite, 1, "k1", "v1"},
      {WalRecordType::kPrepared, 1, "", ""}, {WalRecordType::kBegin, 2, "", ""},
      {WalRecordType::kWrite, 2, "k2", "v2"}, {WalRecordType::kPrepared, 2, "", ""},
      {WalRecordType::kCommit, 1, "", ""},
  };
  enum class Damage { kNone, kTornFinalFrame, kCorruptMiddleFrame };
  for (const Damage damage :
       {Damage::kNone, Damage::kTornFinalFrame, Damage::kCorruptMiddleFrame}) {
    TempDir dir;
    const auto wal_path = dir.path() / "scan.wal";
    std::vector<uintmax_t> frame_end;  // file size after each frame
    {
      WriteAheadLog wal(wal_path);
      for (const auto& record : log) {
        wal.append(record);
        frame_end.push_back(fs::file_size(wal_path));
      }
    }
    size_t intact = log.size();
    if (damage == Damage::kTornFinalFrame) {
      fs::resize_file(wal_path, frame_end.back() - 3);
      intact = log.size() - 1;
    } else if (damage == Damage::kCorruptMiddleFrame) {
      // Flip a body byte of frame 4 (txn 2's write): frames 0-3 survive.
      std::fstream file(wal_path, std::ios::binary | std::ios::in | std::ios::out);
      const auto offset = static_cast<std::streamoff>(frame_end[3] + 8 + 1);
      char byte = 0;
      file.seekg(offset);
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x40);
      file.seekp(offset);
      file.write(&byte, 1);
      intact = 4;
    }

    std::vector<WalRecord> opened;
    {
      WalImage image;
      WriteAheadLog wal(wal_path, image);
      for (const WalRecordView& view : image.records) {
        opened.push_back({view.type, view.txn_id, std::string(view.key),
                          std::string(view.value)});
      }
      EXPECT_EQ(opened, wal.replay());
      EXPECT_EQ(image.valid_end, frame_end[intact - 1]);
      EXPECT_EQ(image.write_count, intact >= 5 ? 2u : 1u);
    }
    EXPECT_EQ(opened, std::vector<WalRecord>(log.begin(), log.begin() +
                                                           static_cast<ptrdiff_t>(intact)));
    EXPECT_EQ(fs::file_size(wal_path), frame_end[intact - 1]);  // tail truncated

    KvStore store(wal_path);
    switch (damage) {
      case Damage::kNone:
        EXPECT_EQ(store.get("k1"), "v1");
        EXPECT_EQ(store.in_doubt(), std::vector<TxnId>{2});
        break;
      case Damage::kTornFinalFrame:
        EXPECT_EQ(store.get("k1"), std::nullopt);
        EXPECT_EQ(store.in_doubt(), (std::vector<TxnId>{1, 2}));
        break;
      case Damage::kCorruptMiddleFrame:
        EXPECT_EQ(store.in_doubt(), std::vector<TxnId>{1});  // txn 2 never prepared
        break;
    }
    EXPECT_TRUE(store.is_in_doubt(store.in_doubt().front()));
    EXPECT_FALSE(store.is_in_doubt(3));
  }
}

// --- WAL group commit ------------------------------------------------------------

/// Records every on_append consult and executes a scripted disposition for
/// the Nth physical write (kClean for all others).
class CountingHook : public WalFaultHook {
 public:
  WalAppendFault on_append(const std::filesystem::path&,
                           std::span<const uint8_t> frame) override {
    frame_sizes.push_back(frame.size());
    WalAppendFault fault;
    if (static_cast<int64_t>(frame_sizes.size()) - 1 == fault_at) {
      fault = scripted;
      fault.site = fault_at;
    }
    return fault;
  }

  std::vector<size_t> frame_sizes;
  int64_t fault_at = -1;  ///< 0-based physical-write index to fire at
  WalAppendFault scripted;
};

TEST(WalGroup, CoalescesAppendsIntoOneFlush) {
  TempDir dir;
  const auto wal_path = dir.path() / "group.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.append({WalRecordType::kWrite, 1, "k", "v"});
    wal.append({WalRecordType::kPrepared, 1, "", ""});
    EXPECT_EQ(wal.stats().flushes, 0);  // still buffered
    wal.commit_group();
    EXPECT_EQ(wal.stats().records_appended, 3);
    EXPECT_EQ(wal.stats().flushes, 1);
    EXPECT_DOUBLE_EQ(wal.stats().records_per_flush(), 3.0);
    wal.end_group();
    EXPECT_EQ(wal.stats().flushes, 1);  // empty pending: end_group is a no-op
  }
  WriteAheadLog wal(wal_path);
  ASSERT_EQ(wal.replay().size(), 3u);
}

TEST(WalGroup, AutoFlushBoundaryIsDeterministic) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "auto.wal");
  WalGroupLimits limits;
  limits.max_records = 2;
  wal.begin_group(limits);
  for (int i = 0; i < 5; ++i) {
    wal.append({WalRecordType::kWrite, 1, "k" + std::to_string(i), "v"});
  }
  EXPECT_EQ(wal.stats().flushes, 2);  // auto-flushed after records 2 and 4
  wal.end_group();
  EXPECT_EQ(wal.stats().flushes, 3);  // the trailing single record
  ASSERT_EQ(wal.replay().size(), 5u);
}

TEST(WalGroup, HookConsultedOncePerGroupWithWholeGroupFrame) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "hook.wal");
  CountingHook hook;
  wal.set_fault_hook(&hook);
  wal.append({WalRecordType::kBegin, 1, "", ""});  // ungrouped: one consult
  ASSERT_EQ(hook.frame_sizes.size(), 1u);
  const size_t single = hook.frame_sizes[0];

  wal.begin_group();
  wal.append({WalRecordType::kBegin, 2, "", ""});
  wal.append({WalRecordType::kBegin, 3, "", ""});
  ASSERT_EQ(hook.frame_sizes.size(), 1u);  // nothing consulted while buffered
  wal.commit_group();
  ASSERT_EQ(hook.frame_sizes.size(), 2u);
  // The hook saw the concatenation of both frames, not two separate frames.
  EXPECT_EQ(hook.frame_sizes[1], 2 * single);
}

TEST(WalGroup, CrashBeforeLosesWholeBufferedGroup) {
  TempDir dir;
  const auto wal_path = dir.path() / "crash.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 1, "", ""});
    wal.commit_group();  // group 1 reaches the file

    CountingHook hook;
    hook.fault_at = 0;  // first physical write this hook sees
    hook.scripted.kind = WalAppendFault::Kind::kCrashBefore;
    wal.set_fault_hook(&hook);
    wal.append({WalRecordType::kWrite, 2, "k", "v"});
    wal.append({WalRecordType::kPrepared, 2, "", ""});
    EXPECT_THROW(wal.commit_group(), CrashInjected);
    // The crashed group's bytes are gone: a later flush must not resurrect
    // them (that would model a dead process writing).
    wal.set_fault_hook(nullptr);
    wal.commit_group();
    EXPECT_EQ(wal.stats().flushes, 1);  // only group 1 ever hit the file
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].txn_id, 1);
}

TEST(WalGroup, TornGroupTailIsTruncatedOnReopen) {
  TempDir dir;
  const auto wal_path = dir.path() / "torn_group.wal";
  size_t single_frame = 0;
  {
    WriteAheadLog wal(wal_path);
    CountingHook probe;
    wal.set_fault_hook(&probe);
    wal.append({WalRecordType::kBegin, 1, "", ""});
    single_frame = probe.frame_sizes[0];

    CountingHook hook;
    hook.fault_at = 0;
    hook.scripted.kind = WalAppendFault::Kind::kTorn;
    // Keep the first frame of the group plus half of the second: replay must
    // recover exactly one record and the ctor must truncate the ragged tail.
    hook.scripted.keep_bytes = single_frame + single_frame / 2;
    wal.set_fault_hook(&hook);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 2, "", ""});
    wal.append({WalRecordType::kBegin, 3, "", ""});
    EXPECT_THROW(wal.commit_group(), CrashInjected);
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 2u);  // txn 1, then the intact prefix of the group
  EXPECT_EQ(records[1].txn_id, 2);
  // The ctor truncated the torn half-frame, so appends land on a clean tail.
  wal.append({WalRecordType::kBegin, 4, "", ""});
  ASSERT_EQ(wal.replay().size(), 3u);
  EXPECT_EQ(wal.replay()[2].txn_id, 4);
}

TEST(WalGroup, DestructionDropsPendingGroupUnflushed) {
  TempDir dir;
  const auto wal_path = dir.path() / "drop.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.begin_group();
    wal.append({WalRecordType::kBegin, 1, "", ""});
    // No commit_group: the owner "crashed" with the group buffered.
  }
  WriteAheadLog wal(wal_path);
  EXPECT_TRUE(wal.replay().empty());
}

TEST(WalGroup, TxnListRoundTrip) {
  const std::vector<int64_t> ids = {7, 40000000001, 3};
  EXPECT_EQ(decode_txn_list(encode_txn_list(ids)), ids);
  EXPECT_TRUE(decode_txn_list("").empty());
  EXPECT_EQ(encode_txn_list({}), "");
}

TEST(WalGroup, BatchSealRecordRoundTrips) {
  TempDir dir;
  const auto wal_path = dir.path() / "seal.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBatchSeal, 42, "", encode_txn_list({42, 43})});
  }
  WriteAheadLog wal(wal_path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kBatchSeal);
  EXPECT_EQ(records[0].txn_id, 42);
  EXPECT_EQ(decode_txn_list(records[0].value), (std::vector<int64_t>{42, 43}));
}

// --- WAL golden bytes ---------------------------------------------------------
//
// The frame layout is the recovery contract: logs written by one build must
// replay under every later one. These bytes were captured from the
// BufWriter-based encoder before appends were framed in place; any change to
// framing, varints, zigzag or the CRC shows up here as a byte diff.

/// Records every frame span the WAL hands its fault hook, verbatim.
class RecordingHook final : public WalFaultHook {
 public:
  WalAppendFault on_append(const fs::path& /*wal_path*/,
                           std::span<const uint8_t> frame) override {
    spans.emplace_back(frame.begin(), frame.end());
    return {};
  }
  std::vector<std::vector<uint8_t>> spans;
};

/// Every WalRecordType, a negative txn id (zigzag), a 2^48 + 1 txn id
/// (multi-byte varint), empty key and value, and a 200-byte value whose
/// length needs a two-byte varint.
std::vector<WalRecord> golden_script() {
  std::string big;
  for (int i = 0; i < 200; ++i) big += static_cast<char>('a' + i % 26);
  const int64_t wide = (int64_t{1} << 48) + 1;
  return {
      {WalRecordType::kBegin, 1, "", ""},
      {WalRecordType::kWrite, 1, "key:7", "txn-1"},
      {WalRecordType::kWrite, 1, "", ""},
      {WalRecordType::kWrite, 1, "big", big},
      {WalRecordType::kPrepared, 1, "", "0,2,5"},
      {WalRecordType::kCommit, 1, "", ""},
      {WalRecordType::kBegin, -3, "", ""},
      {WalRecordType::kWrite, -3, "k", "v"},
      {WalRecordType::kPrepared, -3, "", ""},
      {WalRecordType::kAbort, -3, "", ""},
      {WalRecordType::kSnapshot, 0, "snap", "shot"},
      {WalRecordType::kBatchSeal, wide, "",
       std::to_string(wide) + "," + std::to_string(wide + 1)},
  };
}

std::vector<uint8_t> golden_bytes() {
  const std::string hex =
    "0400000072b34dda010200000e000000206d4e700202056b65793a370574786e2d310400"
    "00004b3a6fb802020000d00000009a73f569020203626967c8016162636465666768696a"
    "6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e6f7071727374"
    "75767778797a6162636465666768696a6b6c6d6e6f707172737475767778797a61626364"
    "65666768696a6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e"
    "6f707172737475767778797a6162636465666768696a6b6c6d6e6f707172737475767778"
    "797a6162636465666768696a6b6c6d6e6f707172737475767778797a6162636465666768"
    "696a6b6c6d6e6f70717209000000e898b0d403020005302c322c350400000039282a7c04"
    "020000040000001bd7bdae0105000006000000040972390205016b0176040000009af4da"
    "110305000004000000e8e69fd5050500000c00000083da02a2060004736e61700473686f"
    "742a000000e85ce65e078280808080808001001f3238313437343937363731303635372c"
    "323831343734393736373130363538";
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::vector<uint8_t> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Writes the golden script (grouped when `limits` is set), then checks the
/// file against the golden bytes and each hook span against its slice of
/// them; `span_sizes` pins where the flushes fell.
void expect_golden(const fs::path& path, const std::optional<WalGroupLimits>& limits,
                   const std::vector<size_t>& span_sizes) {
  RecordingHook hook;
  {
    WriteAheadLog wal(path);
    wal.set_fault_hook(&hook);
    if (limits.has_value()) wal.begin_group(*limits);
    for (const auto& record : golden_script()) wal.append(record);
    if (limits.has_value()) wal.end_group();
  }
  const std::vector<uint8_t> golden = golden_bytes();
  ASSERT_EQ(golden.size(), 411u);
  EXPECT_EQ(file_bytes(path), golden);
  ASSERT_EQ(hook.spans.size(), span_sizes.size());
  size_t offset = 0;
  for (size_t i = 0; i < hook.spans.size(); ++i) {
    ASSERT_EQ(hook.spans[i].size(), span_sizes[i]) << "span " << i;
    ASSERT_LE(offset + span_sizes[i], golden.size());
    EXPECT_TRUE(std::equal(hook.spans[i].begin(), hook.spans[i].end(),
                           golden.begin() + static_cast<ptrdiff_t>(offset)))
        << "span " << i;
    offset += span_sizes[i];
  }
  EXPECT_EQ(offset, golden.size());
  WriteAheadLog reopened(path);
  EXPECT_EQ(reopened.replay(), golden_script());
}

TEST(WalGolden, SerialFramesMatchCapturedBytes) {
  TempDir dir;
  expect_golden(dir.path() / "serial.wal", std::nullopt,
                {12, 22, 12, 216, 17, 12, 12, 14, 12, 12, 20, 50});
}

TEST(WalGolden, GroupFramesMatchCapturedBytesAcrossAutoFlush) {
  TempDir dir;
  WalGroupLimits limits;
  limits.max_records = 5;  // auto-flushes after records 5 and 10
  expect_golden(dir.path() / "group.wal", limits, {279, 62, 70});
}

TEST(WalGolden, StringViewAppendMatchesRecordAppend) {
  TempDir dir;
  {
    WriteAheadLog wal(dir.path() / "views.wal");
    for (const auto& record : golden_script()) {
      wal.append(record.type, record.txn_id, record.key, record.value);
    }
  }
  EXPECT_EQ(file_bytes(dir.path() / "views.wal"), golden_bytes());
}

// --- id lists ---------------------------------------------------------------------

TEST(IdLists, ParticipantListParsesAndRejects) {
  EXPECT_TRUE(decode_participant_list("").empty());
  EXPECT_EQ(decode_participant_list("0,2,5"), (std::vector<int32_t>{0, 2, 5}));
  EXPECT_EQ(decode_participant_list("2147483647"), (std::vector<int32_t>{2147483647}));
  EXPECT_THROW((void)decode_participant_list("1,,2"), CheckFailure);
  EXPECT_THROW((void)decode_participant_list("-1"), CheckFailure);
  EXPECT_THROW((void)decode_participant_list("2147483648"), CheckFailure);
  EXPECT_THROW((void)decode_participant_list("1,"), CheckFailure);
  EXPECT_THROW((void)decode_participant_list(",1"), CheckFailure);
  EXPECT_THROW((void)decode_participant_list("+1"), CheckFailure);
  EXPECT_THROW((void)decode_participant_list("1a"), CheckFailure);
  EXPECT_THROW((void)decode_participant_list(" 1"), CheckFailure);
}

TEST(IdLists, TxnListParsesAndRejects) {
  EXPECT_TRUE(decode_txn_list("").empty());
  EXPECT_EQ(decode_txn_list("0,2,5"), (std::vector<int64_t>{0, 2, 5}));
  // 2^31 is out of range for a participant id but a valid instance id.
  EXPECT_EQ(decode_txn_list("2147483648"), (std::vector<int64_t>{2147483648}));
  EXPECT_EQ(decode_txn_list("9223372036854775807"),
            (std::vector<int64_t>{9223372036854775807}));
  EXPECT_THROW((void)decode_txn_list("1,,2"), CheckFailure);
  EXPECT_THROW((void)decode_txn_list("-1"), CheckFailure);
  EXPECT_THROW((void)decode_txn_list("9223372036854775808"), CheckFailure);
}

TEST(IdLists, EncodeRoundTrips) {
  const std::vector<int32_t> shards = {0, 7, 2147483647};
  EXPECT_EQ(encode_participant_list(shards), "0,7,2147483647");
  EXPECT_EQ(decode_participant_list(encode_participant_list(shards)), shards);
  EXPECT_EQ(encode_participant_list({}), "");
}

// --- locks -----------------------------------------------------------------------
//
// Locks live in KvStore's key table: prepare takes them, commit and abort
// release them (strict two-phase locking, no-wait).

TEST(Locks, ExclusiveAcquisition) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
  EXPECT_FALSE(store.prepare(2, {{"a", "2"}}));
  EXPECT_EQ(store.locks().holder("a"), 1);
  EXPECT_EQ(store.locks().locked_count(), 1u);
}

TEST(Locks, ReentrantForSameTxn) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    // The second write of "a" re-acquires a lock its transaction holds.
    ASSERT_TRUE(store.prepare(1, {{"a", "1"}, {"b", "1"}, {"a", "2"}}));
    EXPECT_EQ(store.locks().holder("a"), 1);
  }
  // Reopen re-takes the in-doubt transaction's locks the same way, without
  // mistaking the repeated key for a conflicting in-doubt transaction.
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.locks().holder("a"), 1);
  EXPECT_EQ(recovered.locks().locked_count(), 2u);
  recovered.commit(1);
  EXPECT_EQ(recovered.get("a"), "2");
}

TEST(Locks, CommitAndAbortReleaseEveryKey) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"a", "1"}, {"b", "1"}}));
  ASSERT_TRUE(store.prepare(2, {{"c", "2"}}));
  ASSERT_TRUE(store.prepare(3, {{"d", "3"}}));
  store.commit(1);
  EXPECT_EQ(store.locks().holder("a"), std::nullopt);
  EXPECT_EQ(store.locks().holder("b"), std::nullopt);
  EXPECT_EQ(store.locks().holder("c"), 2);
  store.abort(3);
  EXPECT_EQ(store.locks().holder("d"), std::nullopt);
  EXPECT_EQ(store.locks().locked_count(), 1u);
  EXPECT_TRUE(store.prepare(4, {{"a", "4"}, {"d", "4"}}));
}

TEST(Locks, AbortOfUnknownTxnIsNoop) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  KvStore store(wal_path);
  ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
  const auto wal_size = fs::file_size(wal_path);
  store.abort(99);
  EXPECT_EQ(store.locks().locked_count(), 1u);
  EXPECT_EQ(store.locks().holder("a"), 1);
  EXPECT_EQ(fs::file_size(wal_path), wal_size);  // no kAbort record
}

TEST(Locks, TryLockAllProjectsKeysFromWrites) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  // prepare locks the key of each write, not the write itself.
  ASSERT_TRUE(store.prepare(5, {{"x", "1"}, {"y", "2"}, {"x", "3"}}));
  EXPECT_EQ(store.locks().holder("x"), 5);
  EXPECT_EQ(store.locks().holder("y"), 5);
  EXPECT_EQ(store.locks().locked_count(), 2u);
  store.commit(5);
  EXPECT_EQ(store.locks().locked_count(), 0u);
}

TEST(Locks, DuplicateKeyInOneWriteSetIsHeldOnce) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(
      1, {{"a", "1"}, {"b", "2"}, {"a", "3"}, {"b", "4"}, {"a", "5"}}));
  EXPECT_EQ(store.locks().locked_count(), 2u);
  EXPECT_EQ(store.locks().holder("a"), 1);
  EXPECT_EQ(store.locks().holder("b"), 1);
  store.commit(1);
  EXPECT_EQ(store.locks().locked_count(), 0u);
  EXPECT_EQ(store.locks().holder("a"), std::nullopt);
  EXPECT_EQ(store.get("a"), "5");  // the last write wins
  EXPECT_EQ(store.get("b"), "4");
  EXPECT_EQ(store.size(), 2u);
  // Aborting a repeated never-committed key releases it once.
  ASSERT_TRUE(store.prepare(2, {{"c", "1"}, {"c", "2"}}));
  EXPECT_EQ(store.locks().locked_count(), 1u);
  store.abort(2);
  EXPECT_EQ(store.locks().locked_count(), 0u);
  EXPECT_EQ(store.get("c"), std::nullopt);
  EXPECT_EQ(store.size(), 2u);
}

TEST(Locks, MidSetConflictReleasesEveryKeyTheCallTook) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(2, {{"c", "2"}}));
  const std::vector<KvWrite> writes = {{"a", "1"}, {"b", "1"}, {"c", "1"}, {"d", "1"}};
  EXPECT_FALSE(store.prepare(1, writes));
  // "a" and "b" were taken before the conflict and are released; "d" was
  // never reached; "c" stays with its holder.
  EXPECT_EQ(store.locks().holder("a"), std::nullopt);
  EXPECT_EQ(store.locks().holder("b"), std::nullopt);
  EXPECT_EQ(store.locks().holder("d"), std::nullopt);
  EXPECT_EQ(store.locks().holder("c"), 2);
  EXPECT_EQ(store.locks().locked_count(), 1u);
  EXPECT_EQ(store.in_doubt(), std::vector<TxnId>{2});  // nothing staged for 1
  store.abort(1);  // nothing left for txn 1
  EXPECT_EQ(store.locks().locked_count(), 1u);
  store.abort(2);
  EXPECT_EQ(store.locks().locked_count(), 0u);
  // The released keys are free for the loser's retry.
  ASSERT_TRUE(store.prepare(1, writes));
  EXPECT_EQ(store.locks().locked_count(), 4u);
  store.commit(1);
  EXPECT_EQ(store.locks().locked_count(), 0u);
  EXPECT_EQ(store.size(), 4u);
}

/// `size()`, `get()` of every key and `locked_count()`, to compare a store
/// before and after a prepare that must leave no trace.
struct Visible {
  size_t size;
  std::vector<std::optional<std::string>> values;
  size_t locked;
  bool operator==(const Visible&) const = default;
};
Visible visible(const KvStore& store, const std::vector<std::string>& keys) {
  Visible out{store.size(), {}, store.locks().locked_count()};
  for (const auto& key : keys) out.values.push_back(store.get(key));
  return out;
}

TEST(Locks, RefusedPrepareLeavesNeverCommittedKeysAsTheyWere) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"old", "1"}}));
  store.commit(1);
  ASSERT_TRUE(store.prepare(2, {{"held", "2"}}));
  const std::vector<std::string> keys = {"old", "held", "new1", "new2"};
  const Visible before = visible(store, keys);
  EXPECT_FALSE(store.prepare(3, {{"new1", "3"}, {"old", "3"}, {"new2", "3"}, {"held", "3"}}));
  EXPECT_EQ(visible(store, keys), before);
  EXPECT_EQ(store.locks().holder("new1"), std::nullopt);
  // The refused keys can be prepared and committed again.
  ASSERT_TRUE(store.prepare(4, {{"new1", "4"}, {"new2", "4"}}));
  store.commit(4);
  EXPECT_EQ(store.get("new1"), "4");
  EXPECT_EQ(store.get("new2"), "4");
  EXPECT_EQ(store.size(), 3u);
}

TEST(Locks, AbortedPrepareLeavesNeverCommittedKeysAsTheyWere) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"old", "1"}}));
  store.commit(1);
  const std::vector<std::string> keys = {"old", "new1", "new2"};
  const Visible before = visible(store, keys);
  ASSERT_TRUE(store.prepare(2, {{"new1", "2"}, {"old", "2"}, {"new2", "2"}}));
  store.abort(2);
  EXPECT_EQ(visible(store, keys), before);
  EXPECT_EQ(store.get("old"), "1");
  // The aborted keys can be prepared and committed again.
  ASSERT_TRUE(store.prepare(3, {{"new1", "3"}, {"new2", "3"}}));
  store.commit(3);
  EXPECT_EQ(store.get("new1"), "3");
  EXPECT_EQ(store.size(), 3u);
}

TEST(Locks, InDoubtKeysStayLockedAfterReopenUntilResolved) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(1, {{"x", "0"}}));
    store.commit(1);
    ASSERT_TRUE(store.prepare(2, {{"x", "2"}, {"y", "2"}}));
    ASSERT_TRUE(store.prepare(3, {{"z", "3"}}));
  }
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.in_doubt(), (std::vector<TxnId>{2, 3}));
  EXPECT_EQ(recovered.locks().locked_count(), 3u);
  EXPECT_EQ(recovered.locks().holder("x"), 2);
  EXPECT_EQ(recovered.locks().holder("y"), 2);
  EXPECT_EQ(recovered.locks().holder("z"), 3);
  EXPECT_FALSE(recovered.prepare(4, {{"y", "4"}}));
  EXPECT_FALSE(recovered.prepare(5, {{"z", "5"}}));
  EXPECT_EQ(recovered.size(), 1u);
  recovered.commit(2);
  EXPECT_EQ(recovered.locks().holder("x"), std::nullopt);
  EXPECT_EQ(recovered.get("y"), "2");
  EXPECT_EQ(recovered.locks().holder("z"), 3);
  recovered.abort(3);
  EXPECT_EQ(recovered.locks().locked_count(), 0u);
  EXPECT_EQ(recovered.get("z"), std::nullopt);
  EXPECT_EQ(recovered.size(), 2u);
  ASSERT_TRUE(recovered.prepare(6, {{"y", "6"}, {"z", "6"}}));
  recovered.commit(6);
  EXPECT_EQ(recovered.get("z"), "6");
}

// --- KV store ---------------------------------------------------------------------

TEST(Kv, PrepareCommitInstallsWrites) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"x", "10"}, {"y", "20"}}));
  EXPECT_EQ(store.get("x"), std::nullopt);  // staged, not visible
  store.commit(1);
  EXPECT_EQ(store.get("x"), "10");
  EXPECT_EQ(store.get("y"), "20");
}

TEST(Kv, AbortDiscardsWrites) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"x", "10"}}));
  store.abort(1);
  EXPECT_EQ(store.get("x"), std::nullopt);
  // Locks released: another transaction can take the key.
  ASSERT_TRUE(store.prepare(2, {{"x", "11"}}));
  store.commit(2);
  EXPECT_EQ(store.get("x"), "11");
}

TEST(Kv, ConflictingPrepareVotesAbort) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  ASSERT_TRUE(store.prepare(1, {{"x", "1"}}));
  EXPECT_FALSE(store.prepare(2, {{"x", "2"}}));  // lock conflict -> vote abort
  // The failed prepare must not retain partial locks.
  EXPECT_FALSE(store.prepare(3, {{"y", "3"}, {"x", "3"}}));
  ASSERT_TRUE(store.prepare(4, {{"y", "4"}}));
  store.commit(1);
  store.commit(4);
  EXPECT_EQ(store.get("x"), "1");
  EXPECT_EQ(store.get("y"), "4");
}

TEST(Kv, CommitOfUnpreparedThrows) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  EXPECT_THROW(store.commit(42), CheckFailure);
}

TEST(Kv, RecoveryReappliesCommitted) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
    store.commit(1);
    ASSERT_TRUE(store.prepare(2, {{"b", "2"}}));
    store.abort(2);
  }
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_EQ(recovered.get("b"), std::nullopt);
  EXPECT_TRUE(recovered.in_doubt().empty());
}

TEST(Kv, RecoverySurfacesInDoubtTransactions) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(7, {{"k", "v"}}));
    // Crash here: prepared, no outcome.
  }
  KvStore recovered(wal_path);
  const auto doubts = recovered.in_doubt();
  ASSERT_EQ(doubts.size(), 1u);
  EXPECT_EQ(doubts[0], 7);
  EXPECT_EQ(recovered.get("k"), std::nullopt);
  // The in-doubt transaction still holds its locks.
  EXPECT_FALSE(recovered.prepare(8, {{"k", "other"}}));
  // Resolving it releases them.
  recovered.commit(7);
  EXPECT_EQ(recovered.get("k"), "v");
  EXPECT_TRUE(recovered.prepare(9, {{"k", "post"}}));
}

TEST(Kv, UnpreparedLeftoversDroppedOnRecovery) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    // Simulate a crash between Begin/Write and Prepared by writing the WAL
    // records directly.
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, 5, "", ""});
    wal.append({WalRecordType::kWrite, 5, "z", "99"});
  }
  KvStore recovered(wal_path);
  EXPECT_TRUE(recovered.in_doubt().empty());
  EXPECT_EQ(recovered.get("z"), std::nullopt);
  EXPECT_TRUE(recovered.prepare(6, {{"z", "1"}}));  // keys unlocked
}

TEST(Kv, ReopenReportsHighestSequencePerOrigin) {
  // Committed, aborted, in-doubt and unprepared ids all count: each is an id
  // recovery may read, so an engine must allocate past all of them.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    WriteAheadLog wal(wal_path);
    wal.append({WalRecordType::kBegin, make_txn_id(1, 9), "", ""});
  }
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(make_txn_id(0, 3), {{"a", "1"}}));
    store.commit(make_txn_id(0, 3));
    ASSERT_TRUE(store.prepare(make_txn_id(0, 2), {{"b", "1"}}));
    store.abort(make_txn_id(0, 2));
    ASSERT_TRUE(store.prepare(make_txn_id(2, 7), {{"c", "1"}}));
  }
  KvStore reopened(wal_path);
  EXPECT_EQ(reopened.opened_sequence(0), 3);
  EXPECT_EQ(reopened.opened_sequence(1), 9);
  EXPECT_EQ(reopened.opened_sequence(2), 7);
  EXPECT_EQ(reopened.opened_sequence(3), 0);
}

TEST(Kv, GroupModeCoalescesTxnAppendsAndRecovers) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    store.wal_begin_group();
    ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
    store.commit(1);
    ASSERT_TRUE(store.prepare(2, {{"b", "2"}}));
    store.commit(2);
    EXPECT_EQ(store.wal_stats().flushes, 0);  // all buffered
    store.wal_commit_group();
    EXPECT_EQ(store.wal_stats().flushes, 1);
    EXPECT_GT(store.wal_stats().records_per_flush(), 5.0);
  }
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_EQ(recovered.get("b"), "2");
  EXPECT_TRUE(recovered.in_doubt().empty());
}

TEST(Kv, BatchSealIsInvisibleToRecovery) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
    store.seal_batch(1, {1, 2});
    store.commit(1);
  }
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_TRUE(recovered.in_doubt().empty());
}

TEST(Kv, CheckpointFlushesAndReopensGroup) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  KvStore store(wal_path);
  store.wal_begin_group();
  ASSERT_TRUE(store.prepare(1, {{"a", "1"}}));
  store.commit(1);
  store.checkpoint();  // must flush the pending group, not drop it
  EXPECT_TRUE(store.wal_group_open());  // and group mode survives
  ASSERT_TRUE(store.prepare(2, {{"b", "2"}}));
  store.commit(2);
  store.wal_commit_group();
  KvStore recovered(wal_path);
  EXPECT_EQ(recovered.get("a"), "1");
  EXPECT_EQ(recovered.get("b"), "2");
}

// --- checkpoint / compaction -------------------------------------------------------

TEST(Kv, CheckpointShrinksLogAndPreservesState) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  KvStore store(wal_path);
  // Churn: many transactions against few keys.
  for (TxnId txn = 1; txn <= 50; ++txn) {
    ASSERT_TRUE(store.prepare(txn, {{"a", std::to_string(txn)},
                                    {"b", std::to_string(txn * 2)}}));
    store.commit(txn);
  }
  const auto before = fs::file_size(wal_path);
  store.checkpoint();
  const auto after = fs::file_size(wal_path);
  EXPECT_LT(after, before / 4) << "snapshot should collapse 50 txns to 2 keys";
  EXPECT_EQ(store.get("a"), "50");
  EXPECT_EQ(store.get("b"), "100");
  // The store keeps working post-checkpoint.
  ASSERT_TRUE(store.prepare(51, {{"c", "new"}}));
  store.commit(51);
  EXPECT_EQ(store.get("c"), "new");
}

TEST(Kv, RecoveryAfterCheckpointRestoresEverything) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  {
    KvStore store(wal_path);
    for (TxnId txn = 1; txn <= 10; ++txn) {
      ASSERT_TRUE(store.prepare(txn, {{"k" + std::to_string(txn), "v"}}));
      store.commit(txn);
    }
    ASSERT_TRUE(store.prepare(99, {{"pending", "?"}}));  // stays in doubt
    store.checkpoint();
  }
  KvStore recovered(wal_path);
  for (TxnId txn = 1; txn <= 10; ++txn) {
    EXPECT_EQ(recovered.get("k" + std::to_string(txn)), "v");
  }
  // The in-doubt transaction survived the compaction, locks included.
  ASSERT_EQ(recovered.in_doubt(), std::vector<TxnId>{99});
  EXPECT_FALSE(recovered.prepare(100, {{"pending", "other"}}));
  recovered.commit(99);
  EXPECT_EQ(recovered.get("pending"), "?");
}

TEST(Kv, CheckpointOnEmptyStoreIsHarmless) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  store.checkpoint();
  EXPECT_EQ(store.size(), 0u);
  ASSERT_TRUE(store.prepare(1, {{"x", "1"}}));
  store.commit(1);
  EXPECT_EQ(store.get("x"), "1");
}

TEST(Kv, RepeatedCheckpointsAreIdempotent) {
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  KvStore store(wal_path);
  ASSERT_TRUE(store.prepare(1, {{"x", "1"}}));
  store.commit(1);
  store.checkpoint();
  const auto size_once = fs::file_size(wal_path);
  store.checkpoint();
  EXPECT_EQ(fs::file_size(wal_path), size_once);
  EXPECT_EQ(store.get("x"), "1");
}

TEST(Kv, CheckpointBytesMatchCapturedGolden) {
  // Captured from the encoder of the ordered-map store: committed keys
  // inserted out of key order (one overwritten, one past the small-string
  // buffer, one aborted), an in-doubt transaction whose write set repeats a
  // key, and a seal, which the checkpoint drops. The snapshot records must
  // come out in key order from a hash-indexed key table; this pins them
  // byte for byte.
  TempDir dir;
  const auto wal_path = dir.path() / "kv.wal";
  std::map<std::string, std::string> expected;
  {
    KvStore store(wal_path);
    ASSERT_TRUE(store.prepare(3, {{"m", "13"}}));
    store.commit(3);
    ASSERT_TRUE(store.prepare(1, {{"z", "26"}, {"b", "2"}}));
    store.commit(1);
    ASSERT_TRUE(store.prepare(2, {{"a", "1"}}));
    store.commit(2);
    ASSERT_TRUE(store.prepare(4, {{"key:long-enough-for-heap", "4"}}));
    store.commit(4);
    ASSERT_TRUE(store.prepare(5, {{"b", "overwritten"}}));
    store.commit(5);
    ASSERT_TRUE(store.prepare(6, {{"gone", "6"}}));
    store.abort(6);
    ASSERT_TRUE(store.prepare(7, {{"q", "first"}, {"c", "x"}, {"q", "second"}}, {0, 2}));
    store.seal_batch(9, {5, 7});
    store.checkpoint();
    expected = store.snapshot();
  }
  const std::string hex =
    "06000000f0fa5cb106000161013110000000f67174b6060001620b6f7665727772697474"
    "656e1d0000003097ce6e0600186b65793a6c6f6e672d656e6f7567682d666f722d686561"
    "70013407000000fd4859e50600016d023133070000008ffd2b140600017a023236040000"
    "00ad29c27c010e00000a000000903fb193020e01710566697273740600000083330f2002"
    "0e016301780b0000002a486c01020e0171067365636f6e640700000019e74d84030e0003"
    "302c32";
  std::vector<uint8_t> golden;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    golden.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  ASSERT_EQ(golden.size(), 183u);
  EXPECT_EQ(file_bytes(wal_path), golden);
  EXPECT_EQ(expected, (std::map<std::string, std::string>{
                          {"a", "1"}, {"b", "overwritten"}, {"key:long-enough-for-heap", "4"},
                          {"m", "13"}, {"z", "26"}}));
  KvStore reopened(wal_path);
  EXPECT_EQ(reopened.snapshot(), expected);
  EXPECT_EQ(reopened.in_doubt(), std::vector<TxnId>{7});
  EXPECT_EQ(reopened.locks().holder("q"), 7);
  reopened.commit(7);
  EXPECT_EQ(reopened.get("q"), "second");
  EXPECT_EQ(reopened.get("c"), "x");
}

// --- WAL scanner ------------------------------------------------------------------
//
// Frames are built by hand here, so a test can put a CRC-valid but
// malformed body anywhere in a log.

/// A record body as the log encodes it: type, zigzag txn id, key, value.
std::vector<uint8_t> record_body(uint8_t type, int64_t txn, std::string_view key,
                                 std::string_view value) {
  BufWriter w;
  w.u8(type);
  w.svarint(txn);
  w.str(key);
  w.str(value);
  return w.take();
}

std::vector<uint8_t> record_body(const WalRecord& record) {
  return record_body(static_cast<uint8_t>(record.type), record.txn_id, record.key,
                     record.value);
}

/// Appends [length][crc32c][body] to `out`.
void put_frame(std::vector<uint8_t>& out, const std::vector<uint8_t>& body) {
  BufWriter header;
  header.u32(static_cast<uint32_t>(body.size()));
  header.u32(crc32c(body));
  out.insert(out.end(), header.data().begin(), header.data().end());
  out.insert(out.end(), body.begin(), body.end());
}

void write_bytes(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// CRC-valid bodies the scanner must reject, each with its name.
std::vector<std::pair<std::string, std::vector<uint8_t>>> malformed_bodies() {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> out;
  out.emplace_back("empty body", std::vector<uint8_t>{});
  out.emplace_back("type 0", record_body(0, 1, "k", "v"));
  out.emplace_back("type 8", record_body(8, 1, "k", "v"));
  out.emplace_back("type 255", record_body(255, 1, "k", "v"));
  std::vector<uint8_t> trailing = record_body(2, 1, "k", "v");
  trailing.push_back(0);
  out.emplace_back("trailing byte", trailing);
  // A txn varint of eleven bytes: ten continuation bytes, then a last one.
  std::vector<uint8_t> overlong = {2};
  overlong.insert(overlong.end(), 10, 0x80);
  overlong.insert(overlong.end(), {0x00, 0x01, 'k', 0x01, 'v'});
  out.emplace_back("overlong varint", overlong);
  // A key length one past the body's end.
  out.emplace_back("key length overrun", std::vector<uint8_t>{2, 2, 0x05, 'a', 'b', 'c', 'd'});
  out.emplace_back("value length overrun",
                   std::vector<uint8_t>{2, 2, 0x01, 'k', 0x7f, 'v'});
  // A varint cut off by the body's end.
  out.emplace_back("truncated varint", std::vector<uint8_t>{2, 0x80});
  return out;
}

TEST(WalScan, MalformedBodyEndsTheTrustedPrefix) {
  const std::vector<WalRecord> before = {{WalRecordType::kBegin, 1, "", ""},
                                         {WalRecordType::kWrite, 1, "k", "v"}};
  const WalRecord after = {WalRecordType::kCommit, 1, "", ""};
  for (const auto& [name, body] : malformed_bodies()) {
    SCOPED_TRACE(name);
    TempDir dir;
    const auto path = dir.path() / "malformed.wal";
    std::vector<uint8_t> bytes;
    for (const auto& record : before) put_frame(bytes, record_body(record));
    const size_t prefix = bytes.size();
    put_frame(bytes, body);
    put_frame(bytes, record_body(after));
    write_bytes(path, bytes);

    WalImage image;
    {
      WriteAheadLog wal(path, image);
      EXPECT_EQ(wal.replay(), before);
      const WalImage again = wal.read();
      EXPECT_EQ(again.valid_end, prefix);
      EXPECT_EQ(again.records.size(), before.size());
    }
    EXPECT_EQ(image.valid_end, prefix);
    EXPECT_EQ(image.size, bytes.size());
    ASSERT_EQ(image.records.size(), before.size());
    EXPECT_EQ(image.records[1].key, "k");
    EXPECT_EQ(image.records[1].value, "v");
    EXPECT_EQ(image.write_count, 1u);
    EXPECT_EQ(fs::file_size(path), prefix);  // the open truncated the rest
  }
}

TEST(WalScan, VarintsRunToTenBytes) {
  // BufReader's rule, kept by the scanner: ten bytes are legal, the tenth
  // byte's bits past 64 are dropped, and an eleventh byte is malformed.
  TempDir dir;
  const auto path = dir.path() / "varint.wal";
  std::vector<uint8_t> ten = {1};
  ten.insert(ten.end(), 9, 0xff);
  ten.insert(ten.end(), {0x7f, 0x00, 0x00});
  std::vector<uint8_t> bytes;
  put_frame(bytes, ten);
  put_frame(bytes, record_body(1, -1, "", ""));
  write_bytes(path, bytes);
  WriteAheadLog wal(path);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn_id, std::numeric_limits<int64_t>::min());  // zigzag of ~0
  EXPECT_EQ(records[1].txn_id, -1);
  EXPECT_EQ(fs::file_size(path), bytes.size());
}

TEST(WalScan, ViewsSurviveMovingTheImage) {
  TempDir dir;
  const auto path = dir.path() / "move.wal";
  const std::string value(100, 'x');
  {
    WriteAheadLog wal(path);
    wal.append(WalRecordType::kSnapshot, 0, "a-key-past-the-small-buffer", value);
  }
  WalImage image;
  { WriteAheadLog wal(path, image); }
  const WalImage moved = std::move(image);
  ASSERT_EQ(moved.records.size(), 1u);
  EXPECT_EQ(moved.records[0].key, "a-key-past-the-small-buffer");
  EXPECT_EQ(moved.records[0].value, value);
  EXPECT_EQ(moved.write_count, 1u);
}

TEST(WalScan, MissingAndEmptyLogsScanEmpty) {
  TempDir dir;
  for (const bool create : {false, true}) {
    const auto path = dir.path() / (create ? "empty.wal" : "missing.wal");
    if (create) write_bytes(path, {});
    WalImage image;
    WriteAheadLog wal(path, image);
    EXPECT_TRUE(image.records.empty());
    EXPECT_EQ(image.size, 0u);
    EXPECT_EQ(image.valid_end, 0u);
    EXPECT_TRUE(wal.read().records.empty());
    EXPECT_TRUE(fs::exists(path));  // the open creates the log
  }
}

// --- reopen differential ------------------------------------------------------------
//
// KvStore's reopen replays views of the log through a flat transaction index.
// The reference below is the reopen it replaced, kept verbatim in substance:
// a BufReader decode of every frame into WalRecords, then a replay through a
// std::map of pending transactions. Both must rebuild the same store from
// the same bytes.

namespace reference {

WalRecord decode_record(std::span<const uint8_t> body) {
  BufReader r(body);
  WalRecord record;
  const uint8_t raw_type = r.u8();
  if (raw_type < static_cast<uint8_t>(WalRecordType::kBegin) ||
      raw_type > static_cast<uint8_t>(WalRecordType::kBatchSeal)) {
    throw CodecError("unknown WAL record type " + std::to_string(raw_type));
  }
  record.type = static_cast<WalRecordType>(raw_type);
  record.txn_id = r.svarint();
  record.key = r.str();
  record.value = r.str();
  if (!r.exhausted()) throw CodecError("trailing bytes in WAL record");
  return record;
}

struct Scan {
  std::vector<WalRecord> records;
  size_t valid_end = 0;
};

Scan scan(const std::vector<uint8_t>& bytes) {
  Scan out;
  size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    BufReader header(std::span<const uint8_t>(bytes.data() + pos, 8));
    const uint32_t length = header.u32();
    const uint32_t crc = header.u32();
    if (pos + 8 + length > bytes.size()) break;
    const std::span<const uint8_t> body(bytes.data() + pos + 8, length);
    if (crc32c(body) != crc) break;
    try {
      out.records.push_back(decode_record(body));
    } catch (const CodecError&) {
      break;
    }
    pos += 8 + length;
    out.valid_end = pos;
  }
  return out;
}

/// What a reopened store holds. `in_doubt` keeps each transaction's staged
/// writes in order (repeated keys included) and its participant list —
/// exactly what checkpoint() writes back.
struct Store {
  std::map<std::string, std::string> committed;
  struct Staged {
    std::vector<KvWrite> writes;
    std::vector<int32_t> participants;
  };
  std::map<TxnId, Staged> in_doubt;
  std::map<std::string, TxnId> locks;
  bool conflict = false;  ///< two in-doubt transactions share a key
};

Store replay(std::vector<WalRecord> records) {
  struct Pending {
    std::vector<KvWrite> writes;
    std::vector<int32_t> participants;
    bool prepared = false;
  };
  Store store;
  std::map<TxnId, Pending> pending;
  for (auto& record : records) {
    switch (record.type) {
      case WalRecordType::kBegin:
        pending[record.txn_id];
        break;
      case WalRecordType::kWrite:
        pending[record.txn_id].writes.push_back(
            {std::move(record.key), std::move(record.value)});
        break;
      case WalRecordType::kPrepared: {
        Pending& entry = pending[record.txn_id];
        entry.prepared = true;
        entry.participants = decode_participant_list(record.value);
        break;
      }
      case WalRecordType::kCommit: {
        auto it = pending.find(record.txn_id);
        if (it != pending.end()) {
          for (auto& write : it->second.writes) {
            store.committed[std::move(write.key)] = std::move(write.value);
          }
          pending.erase(it);
        }
        break;
      }
      case WalRecordType::kAbort:
        pending.erase(record.txn_id);
        break;
      case WalRecordType::kSnapshot:
        store.committed[std::move(record.key)] = std::move(record.value);
        break;
      case WalRecordType::kBatchSeal:
        break;
    }
  }
  for (auto& [txn, leftover] : pending) {
    if (!leftover.prepared) continue;
    for (const auto& write : leftover.writes) {
      const auto [it, inserted] = store.locks.try_emplace(write.key, txn);
      if (!inserted && it->second != txn) store.conflict = true;
    }
    store.in_doubt[txn] = {std::move(leftover.writes), std::move(leftover.participants)};
  }
  return store;
}

/// The bytes checkpoint() writes for `store`: kSnapshot records in key
/// order, then each in-doubt transaction's BEGIN, WRITEs and PREPARED.
std::vector<uint8_t> checkpoint_bytes(const Store& store) {
  std::vector<uint8_t> bytes;
  for (const auto& [key, value] : store.committed) {
    put_frame(bytes, record_body({WalRecordType::kSnapshot, 0, key, value}));
  }
  for (const auto& [txn, staged] : store.in_doubt) {
    put_frame(bytes, record_body({WalRecordType::kBegin, txn, "", ""}));
    for (const auto& write : staged.writes) {
      put_frame(bytes, record_body({WalRecordType::kWrite, txn, write.key, write.value}));
    }
    put_frame(bytes, record_body({WalRecordType::kPrepared, txn, "",
                                  encode_participant_list(staged.participants)}));
  }
  return bytes;
}

}  // namespace reference

/// Writes `bytes` as a log, reopens it as a KvStore and checks the store
/// against the reference replay of the same bytes: committed state, in-doubt
/// set, locks, the truncated size, and the checkpoint's bytes (which carry
/// every in-doubt write and participant list).
void expect_reopen_matches_reference(const std::vector<uint8_t>& bytes) {
  TempDir dir;
  const auto path = dir.path() / "diff.wal";
  write_bytes(path, bytes);
  const reference::Scan scan = reference::scan(bytes);
  const reference::Store expected = reference::replay(scan.records);
  if (expected.conflict) {
    EXPECT_THROW(KvStore store(path), CheckFailure);
    return;
  }
  KvStore store(path);
  EXPECT_EQ(fs::file_size(path), scan.valid_end);
  EXPECT_EQ(store.snapshot(), expected.committed);
  EXPECT_EQ(store.size(), expected.committed.size());
  std::vector<TxnId> in_doubt;
  for (const auto& entry : expected.in_doubt) in_doubt.push_back(entry.first);
  EXPECT_EQ(store.in_doubt(), in_doubt);
  EXPECT_EQ(store.locks().locked_count(), expected.locks.size());
  for (const auto& [key, txn] : expected.locks) {
    EXPECT_EQ(store.locks().holder(key), txn) << key;
  }
  store.checkpoint();
  EXPECT_EQ(file_bytes(path), reference::checkpoint_bytes(expected));
}

/// A log builder: records as the WAL encodes them, plus raw frames.
class Script {
 public:
  Script& add(WalRecordType type, TxnId txn, std::string key = "",
              std::string value = "") {
    put_frame(bytes_, record_body({type, txn, std::move(key), std::move(value)}));
    ends_.push_back(bytes_.size());
    return *this;
  }
  Script& raw(const std::vector<uint8_t>& body) {
    put_frame(bytes_, body);
    ends_.push_back(bytes_.size());
    return *this;
  }
  /// Repeats frames [first, first + count), as a kDuplicate group would.
  Script& duplicate(size_t first, size_t count) {
    const size_t begin = first == 0 ? 0 : ends_[first - 1];
    const std::vector<uint8_t> group(bytes_.begin() + static_cast<ptrdiff_t>(begin),
                                     bytes_.begin() + static_cast<ptrdiff_t>(
                                                          ends_[first + count - 1]));
    for (size_t i = first; i < first + count; ++i) {
      ends_.push_back(bytes_.size() + ends_[i] - begin);
    }
    bytes_.insert(bytes_.end(), group.begin(), group.end());
    return *this;
  }
  [[nodiscard]] size_t frames() const { return ends_.size(); }
  [[nodiscard]] size_t frame_end(size_t i) const { return ends_[i]; }
  [[nodiscard]] const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  std::vector<size_t> ends_;
};

const std::string kLongKey = "key:long-enough-to-live-on-the-heap";

TEST(KvReopenDiff, InterleavedTransactionsAndDuplicatedGroups) {
  Script s;
  s.add(WalRecordType::kBegin, 1).add(WalRecordType::kBegin, 2)
      .add(WalRecordType::kWrite, 1, "a", "1").add(WalRecordType::kWrite, 2, "b", "2")
      .add(WalRecordType::kWrite, 1, kLongKey, "1").add(WalRecordType::kPrepared, 2, "", "0,1")
      .add(WalRecordType::kPrepared, 1, "", "1,0").add(WalRecordType::kCommit, 2)
      .duplicate(0, 8)  // the whole run again: replay is idempotent
      .add(WalRecordType::kBegin, 3).add(WalRecordType::kWrite, 3, "c", "3")
      .add(WalRecordType::kPrepared, 3, "", "0")
      .duplicate(8, 3);  // txn 3's group twice: its write set repeats "c"
  expect_reopen_matches_reference(s.bytes());
  s.add(WalRecordType::kCommit, 1).add(WalRecordType::kAbort, 3);
  expect_reopen_matches_reference(s.bytes());
}

TEST(KvReopenDiff, BeginAfterCommitStartsAFreshTransaction) {
  Script s;
  s.add(WalRecordType::kBegin, 5).add(WalRecordType::kWrite, 5, "x", "old")
      .add(WalRecordType::kPrepared, 5).add(WalRecordType::kCommit, 5)
      .add(WalRecordType::kBegin, 5).add(WalRecordType::kWrite, 5, "y", "new")
      .add(WalRecordType::kPrepared, 5, "", "2");
  expect_reopen_matches_reference(s.bytes());  // 5 in doubt over "y" only
  s.add(WalRecordType::kCommit, 5).add(WalRecordType::kCommit, 5)  // a repeated outcome
      .add(WalRecordType::kWrite, 5, "z", "orphan");  // a write with no begin
  expect_reopen_matches_reference(s.bytes());
}

TEST(KvReopenDiff, RepeatedKeysSnapshotsAndSeals) {
  Script s;
  s.add(WalRecordType::kSnapshot, 0, "a", "snap").add(WalRecordType::kSnapshot, 0, kLongKey, "s")
      .add(WalRecordType::kBegin, 7).add(WalRecordType::kWrite, 7, "a", "first")
      .add(WalRecordType::kWrite, 7, "b", "b").add(WalRecordType::kWrite, 7, "a", "second")
      .add(WalRecordType::kPrepared, 7, "", "0,2").add(WalRecordType::kBatchSeal, 7, "", "7,8")
      .add(WalRecordType::kCommit, 7).add(WalRecordType::kSnapshot, 0, "b", "later snapshot")
      .add(WalRecordType::kBegin, 8).add(WalRecordType::kWrite, 8, kLongKey, "x")
      .add(WalRecordType::kWrite, 8, kLongKey, "y").add(WalRecordType::kPrepared, 8, "", "2,0");
  expect_reopen_matches_reference(s.bytes());
}

TEST(KvReopenDiff, UnpreparedLeftoversAndConflicts) {
  Script s;
  s.add(WalRecordType::kBegin, 1).add(WalRecordType::kWrite, 1, "k", "1")  // never prepared
      .add(WalRecordType::kWrite, 2, "k", "2").add(WalRecordType::kPrepared, 2)
      .add(WalRecordType::kBegin, 3).add(WalRecordType::kAbort, 3)
      .add(WalRecordType::kPrepared, 4);  // prepared with no writes
  expect_reopen_matches_reference(s.bytes());
  // Two in-doubt transactions over one key: both refuse to open.
  s.add(WalRecordType::kWrite, 5, "k", "5").add(WalRecordType::kPrepared, 5);
  expect_reopen_matches_reference(s.bytes());
}

TEST(KvReopenDiff, DamagedTails) {
  Script s;
  s.add(WalRecordType::kBegin, 1).add(WalRecordType::kWrite, 1, "a", "1")
      .add(WalRecordType::kPrepared, 1, "", "0").add(WalRecordType::kBegin, 2)
      .add(WalRecordType::kWrite, 2, kLongKey, "2").add(WalRecordType::kPrepared, 2)
      .add(WalRecordType::kCommit, 1).add(WalRecordType::kCommit, 2);
  const std::vector<uint8_t>& whole = s.bytes();
  // A torn tail at every byte of the last two frames.
  for (size_t cut = s.frame_end(5); cut < whole.size(); ++cut) {
    SCOPED_TRACE(cut);
    expect_reopen_matches_reference({whole.begin(), whole.begin() + static_cast<ptrdiff_t>(cut)});
  }
  // A corrupt CRC in the middle: one flipped body byte in each frame.
  for (size_t frame = 0; frame < s.frames(); ++frame) {
    SCOPED_TRACE(frame);
    std::vector<uint8_t> bytes = whole;
    bytes[(frame == 0 ? 0 : s.frame_end(frame - 1)) + 8] ^= 0x40;
    expect_reopen_matches_reference(bytes);
  }
  // A CRC-valid malformed frame in the middle, with intact frames after it.
  for (const auto& [name, body] : malformed_bodies()) {
    SCOPED_TRACE(name);
    Script damaged;
    damaged.add(WalRecordType::kBegin, 1).add(WalRecordType::kWrite, 1, "a", "1")
        .add(WalRecordType::kPrepared, 1).raw(body).add(WalRecordType::kCommit, 1);
    expect_reopen_matches_reference(damaged.bytes());
  }
}

TEST(KvReopenDiff, RandomScriptsMatchTheReference) {
  // Few ids and keys, so transactions interleave, repeat keys, conflict,
  // and reuse ids after their outcome; some ids are negative or wide.
  const std::vector<TxnId> ids = {1, 2, 3, 4, -3, (int64_t{1} << 48) + 1};
  const std::vector<std::string> keys = {"a", "b", "c", kLongKey, "key:another-heap-sized-key"};
  const std::vector<std::string> lists = {"", "0", "0,1", "2,0,1"};
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    RandomTape rng(seed);
    const auto pick = [&rng](const auto& pool) {
      return pool[rng.next_below(pool.size())];
    };
    Script s;
    const int records = 5 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < records; ++i) {
      const TxnId txn = pick(ids);
      switch (rng.next_below(10)) {
        case 0: s.add(WalRecordType::kBegin, txn); break;
        case 1: case 2: case 3:
          s.add(WalRecordType::kWrite, txn, pick(keys), "v" + std::to_string(i));
          break;
        case 4: s.add(WalRecordType::kPrepared, txn, "", pick(lists)); break;
        case 5: case 6: s.add(WalRecordType::kCommit, txn); break;
        case 7: s.add(WalRecordType::kAbort, txn); break;
        case 8: s.add(WalRecordType::kSnapshot, 0, pick(keys), "s" + std::to_string(i)); break;
        default: s.add(WalRecordType::kBatchSeal, txn, "", "1,2"); break;
      }
      if (rng.next_below(8) == 0) {
        const size_t count = 1 + rng.next_below(std::min<size_t>(s.frames(), 4));
        s.duplicate(s.frames() - count, count);
      }
    }
    std::vector<uint8_t> bytes = s.bytes();
    switch (rng.next_below(4)) {
      case 0: break;
      case 1:  // torn tail
        bytes.erase(bytes.end() - 1 - static_cast<ptrdiff_t>(rng.next_below(6)), bytes.end());
        break;
      case 2: bytes[rng.next_below(bytes.size())] ^= 0x10; break;          // corruption
      default: {                                                           // malformed frame
        const auto malformed = malformed_bodies();
        Script tail;
        tail.raw(pick(malformed).second).add(WalRecordType::kCommit, pick(ids));
        bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());
        break;
      }
    }
    expect_reopen_matches_reference(bytes);
  }
}

// --- distributed transactions -----------------------------------------------------
//
// One MultiShotDb client with decision_batch 1: each execute() prepares,
// decides over a fresh threaded network, and applies before the next starts.

MultiShotDb::Options one_client(const fs::path& dir, int32_t shard_count) {
  MultiShotDb::Options options;
  options.shard_count = shard_count;
  options.data_dir = dir;
  options.decision_transport = DecisionTransport::kThreadedNetwork;
  return options;
}

TEST(DistributedDb, MultiShardCommit) {
  TempDir dir;
  MultiShotDb::Options options = one_client(dir.path(), 3);
  options.seed = 21;
  options.network = {.min_delay = std::chrono::microseconds(20),
                     .max_delay = std::chrono::microseconds(200)};
  MultiShotDb database(options);

  const auto outcome = database.execute(0, {
      {0, {{"acct:alice", "50"}}},
      {1, {{"acct:bob", "150"}}},
      {2, {{"ledger:tx1", "alice->bob:50"}}},
  });
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "acct:alice"), "50");
  EXPECT_EQ(database.get(1, "acct:bob"), "150");
  EXPECT_EQ(database.get(2, "ledger:tx1"), "alice->bob:50");
}

TEST(DistributedDb, LockConflictAbortsEverywhere) {
  TempDir dir;
  MultiShotDb::Options options = one_client(dir.path(), 2);
  options.seed = 22;
  MultiShotDb database(options);

  // A stuck transaction holds a lock on shard 1 (prepare without outcome).
  ASSERT_TRUE(database.shard(1).prepare(999, {{"hot", "held"}}));

  // Shard 0 prepares first; shard 1's later no-vote must abort it too.
  const auto outcome = database.execute(0, {
      {0, {{"cold", "1"}}},
      {1, {{"hot", "2"}}},  // conflicts -> shard 1 votes abort
  });
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kAbort);
  EXPECT_EQ(database.get(0, "cold"), std::nullopt);
  EXPECT_EQ(database.get(1, "hot"), std::nullopt);
}

TEST(DistributedDb, SingleShardFastPath) {
  TempDir dir;
  MultiShotDb database(one_client(dir.path(), 2));
  const auto outcome = database.execute(0, {{0, {{"solo", "1"}}}});
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "solo"), "1");
}

TEST(DistributedDb, SameShardMultiAccountTransaction) {
  // Two writes on one shard travel as a single participant entry (the
  // single-shard fast path); regression for the silently-dropped duplicate
  // map key that once broke conservation in the bank example.
  TempDir dir;
  MultiShotDb database(one_client(dir.path(), 2));
  std::map<int32_t, std::vector<KvWrite>> writes;
  writes[0].push_back({"alice", "900"});
  writes[0].push_back({"bob", "1100"});
  const auto outcome = database.execute(0, writes);
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "alice"), "900");
  EXPECT_EQ(database.get(0, "bob"), "1100");
}

TEST(DistributedDb, MixedSameAndCrossShardWrites) {
  TempDir dir;
  MultiShotDb::Options options = one_client(dir.path(), 2);
  options.seed = 77;
  MultiShotDb database(options);
  std::map<int32_t, std::vector<KvWrite>> writes;
  writes[0].push_back({"a", "1"});
  writes[0].push_back({"b", "2"});
  writes[1].push_back({"c", "3"});
  const auto outcome = database.execute(0, writes);
  ASSERT_TRUE(outcome.decided);
  EXPECT_EQ(outcome.decision, Decision::kCommit);
  EXPECT_EQ(database.get(0, "a"), "1");
  EXPECT_EQ(database.get(0, "b"), "2");
  EXPECT_EQ(database.get(1, "c"), "3");
}

TEST(DistributedDb, SequentialTransactionsReuseKeys) {
  TempDir dir;
  MultiShotDb::Options options = one_client(dir.path(), 2);
  options.seed = 23;
  MultiShotDb database(options);
  for (int round = 0; round < 3; ++round) {
    const auto outcome = database.execute(0, {
        {0, {{"counter", std::to_string(round)}}},
        {1, {{"mirror", std::to_string(round)}}},
    });
    ASSERT_TRUE(outcome.decided) << "round " << round;
    ASSERT_EQ(outcome.decision, Decision::kCommit) << "round " << round;
  }
  EXPECT_EQ(database.get(0, "counter"), "2");
  EXPECT_EQ(database.get(1, "mirror"), "2");
}

TEST(DistributedDb, SurvivesRestartAcrossTransactions) {
  TempDir dir;
  {
    MultiShotDb database(one_client(dir.path(), 2));
    ASSERT_EQ(database
                  .execute(0, {{0, {{"persist", "yes"}}}, {1, {{"persist", "also"}}}})
                  .decision,
              Decision::kCommit);
  }
  // "Restart": a new engine over the same directory recovers state.
  MultiShotDb database(one_client(dir.path(), 2));
  EXPECT_EQ(database.get(0, "persist"), "yes");
  EXPECT_EQ(database.get(1, "persist"), "also");
}

TEST(DistributedDb, RestartNeverReissuesALoggedTxnId) {
  // Epoch 1 commits one transaction on shards {0, 1}. A restarted engine
  // that handed out its id again would log a second transaction under it;
  // recovery's rule 1 would then adopt epoch 1's COMMIT for a transaction
  // whose shard 2 never prepared — installing it on shard 1 only.
  TempDir dir;
  {
    MultiShotDb database(one_client(dir.path(), 3));
    ASSERT_EQ(database.execute(0, {{0, {{"w", "old"}}}, {1, {{"x", "old"}}}}).decision,
              Decision::kCommit);
  }
  // Epoch 2 crashes before shard 2's PREPARED: sites 0-2 are shard 1's
  // BEGIN, WRITE and PREPARED, 3-4 shard 2's BEGIN and WRITE.
  faultinject::FaultInjector injector(
      faultinject::FaultPlan::wal_fault_at(5, faultinject::FaultKind::kCrashBefore));
  {
    MultiShotDb::Options options = one_client(dir.path(), 3);
    options.wal_fault_hook = &injector;
    MultiShotDb database(options);
    EXPECT_THROW((void)database.execute(0, {{1, {{"x", "new"}}}, {2, {{"y", "new"}}}}),
                 CrashInjected);
  }
  ASSERT_EQ(injector.sites_seen(), 6);

  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<KvStore*> raw;
  for (int32_t s = 0; s < 3; ++s) {
    stores.push_back(std::make_unique<KvStore>(dir.path() /
                                               ("shard-" + std::to_string(s) + ".wal")));
    raw.push_back(stores.back().get());
  }
  const RecoveryReport report = RecoveryManager(raw, {}).resolve_all();
  EXPECT_EQ(report.resolved_commit, 0);
  EXPECT_EQ(report.resolved_abort, 1);
  // At all processors or at none: the crashed transaction aborts everywhere.
  EXPECT_EQ(stores[1]->get("x"), "old");
  EXPECT_EQ(stores[2]->get("y"), std::nullopt);
}

}  // namespace
}  // namespace rcommit::db
