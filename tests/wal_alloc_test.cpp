// Heap-allocation and crash-isolation checks for the shard hot path: the
// WAL's in-place framing and KvStore's key table.
//
// This TU replaces global operator new/delete with counting wrappers (the
// same instrumentation bench_simperf uses; nothing else links it), so it can
// assert that a warm log appends without touching the allocator: group-mode
// appends encode straight into the pending buffer, and serial appends into a
// reused scratch buffer. It also pins the crash semantics the buffer reuse
// must keep — a group dropped by a kCrashBefore verdict never leaks into a
// later group's bytes. For the store, a warm commit installs through its
// staged slot pointers without allocating, and a prepare allocates only
// what it keeps. For a restart, the WAL's scan allocates a fixed number of
// buffers whatever the log's length, and a reopen allocates per installed
// key, not per record.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "db/kv.h"
#include "db/wal.h"

// The replacement operators below pair malloc with free by design; GCC's
// inlining-based new/delete matcher cannot see that pairing and misfires at
// call sites inlined into this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
uint64_t g_heap_allocs = 0;  // single-threaded test; no atomics needed
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocs;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rcommit::db {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = fs::temp_directory_path() /
            ("rcommit_wal_alloc_test_" + std::to_string(::getpid()) + "_" +
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

std::vector<uint8_t> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Answers `first` on the first consult and kClean afterwards, recording
/// every frame span it is shown.
class ScriptedHook final : public WalFaultHook {
 public:
  explicit ScriptedHook(WalAppendFault::Kind first) : first_(first) {}
  WalAppendFault on_append(const fs::path& /*wal_path*/,
                           std::span<const uint8_t> frame) override {
    spans.emplace_back(frame.begin(), frame.end());
    WalAppendFault fault;
    if (spans.size() == 1) fault.kind = first_;
    return fault;
  }
  std::vector<std::vector<uint8_t>> spans;

 private:
  WalAppendFault::Kind first_;
};

// A key and value past the small-string buffer, like the engine's
// "key:<rank>" / "txn-<counter>" writes grown to realistic lengths.
const std::string kKey = "key:000000123456789";
const std::string kValue = "txn-000000000000042-value";

TEST(WalAlloc, GroupAppendIsAllocationFreeOnceWarm) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "group.wal");
  WalGroupLimits limits;
  limits.max_records = 16;
  wal.begin_group(limits);
  // Warm-up: two full groups, so both the pending buffer and the buffer the
  // flush swaps it with have reached a group's size.
  for (int64_t txn = 1; txn <= 2 * limits.max_records; ++txn) {
    wal.append(WalRecordType::kWrite, txn, kKey, kValue);
  }
  const int64_t flushes_before = wal.stats().flushes;
  constexpr int64_t kRecords = 1024;
  const uint64_t allocs_before = g_heap_allocs;
  for (int64_t txn = 1; txn <= kRecords; ++txn) {
    wal.append(WalRecordType::kWrite, txn, kKey, kValue);
  }
  const uint64_t allocs = g_heap_allocs - allocs_before;
  // The window crossed many auto-flushes, so the swap is covered too.
  EXPECT_EQ(wal.stats().flushes - flushes_before, kRecords / limits.max_records);
  EXPECT_EQ(allocs, 0u) << "heap allocations over " << kRecords << " grouped appends";
  wal.end_group();
  WriteAheadLog reopened(dir.path() / "group.wal");
  EXPECT_EQ(reopened.replay().size(),
            static_cast<size_t>(kRecords + 2 * limits.max_records));
}

TEST(WalAlloc, SerialAppendIsAllocationFreeOnceWarm) {
  TempDir dir;
  WriteAheadLog wal(dir.path() / "serial.wal");
  wal.append(WalRecordType::kWrite, 1, kKey, kValue);  // warms the scratch buffer
  const uint64_t allocs_before = g_heap_allocs;
  for (int64_t txn = 2; txn <= 256; ++txn) {
    wal.append(WalRecordType::kWrite, txn, kKey, kValue);
  }
  EXPECT_EQ(g_heap_allocs - allocs_before, 0u);
}

/// The frames of `count` kWrite records from txn `first` on, as a serial log
/// writes them.
std::vector<uint8_t> reference_frames(const fs::path& path, int64_t first,
                                      int64_t count) {
  {
    WriteAheadLog reference(path);
    for (int64_t txn = first; txn < first + count; ++txn) {
      reference.append(WalRecordType::kWrite, txn, kKey, kValue);
    }
  }
  return file_bytes(path);
}

TEST(WalAlloc, CrashBeforeGroupLeavesNoBytesInLaterGroups) {
  TempDir dir;
  const std::vector<uint8_t> group_b = reference_frames(dir.path() / "b.wal", 100, 3);
  const std::vector<uint8_t> group_c = reference_frames(dir.path() / "c.wal", 200, 2);

  const fs::path path = dir.path() / "crash.wal";
  ScriptedHook hook(WalAppendFault::Kind::kCrashBefore);
  {
    WriteAheadLog wal(path);
    wal.set_fault_hook(&hook);
    wal.begin_group();
    // Group A: larger than groups B and C, so any stale tail would show.
    for (int64_t txn = 1; txn <= 8; ++txn) {
      wal.append(WalRecordType::kWrite, txn, kKey, kValue);
    }
    EXPECT_THROW(wal.commit_group(), CrashInjected);
    for (int64_t txn = 100; txn < 103; ++txn) {
      wal.append(WalRecordType::kWrite, txn, kKey, kValue);
    }
    wal.commit_group();
    // Two flushes after the crash: the buffers have swapped roles twice, so
    // neither can still be carrying group A.
    for (int64_t txn = 200; txn < 202; ++txn) {
      wal.append(WalRecordType::kWrite, txn, kKey, kValue);
    }
    wal.end_group();
  }
  ASSERT_EQ(hook.spans.size(), 3u);
  EXPECT_GT(hook.spans[0].size(), group_b.size());
  // The hook saw groups B and C exactly — no byte of the crashed group A —
  // and only they reached the file.
  EXPECT_EQ(hook.spans[1], group_b);
  EXPECT_EQ(hook.spans[2], group_c);
  std::vector<uint8_t> expected = group_b;
  expected.insert(expected.end(), group_c.begin(), group_c.end());
  EXPECT_EQ(file_bytes(path), expected);
}

/// Two-key write sets for `count` transactions from `first` on, built before
/// any counting window opens. Each key is `prefix` plus the transaction id.
std::vector<std::vector<KvWrite>> write_sets(const std::string& prefix, TxnId first,
                                             int count) {
  std::vector<std::vector<KvWrite>> sets;
  for (TxnId txn = first; txn < first + count; ++txn) {
    sets.push_back({{prefix + "a" + std::to_string(txn), "v"},
                    {prefix + "b" + std::to_string(txn), "v"}});
  }
  return sets;
}

const std::vector<int32_t> kParticipants = {0, 1};

TEST(KvAlloc, WarmCommitIsAllocationFree) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  store.wal_begin_group();
  // Keys past the small-string buffer, so a commit that copied a key into
  // another container would allocate. Every key is new: the table grows as
  // it does under the benchmark's workload, and commit must still not touch
  // the allocator.
  // One group flush per transaction, outside the counted window, so the
  // WAL's buffers are warm after the first few.
  constexpr int kWarm = 8;
  constexpr int kTxns = 256;
  const auto sets = write_sets("committed-key-", 1, kWarm + kTxns);
  for (TxnId txn = 1; txn <= kWarm + kTxns; ++txn) {
    ASSERT_TRUE(store.prepare(txn, sets[static_cast<size_t>(txn - 1)], kParticipants));
    const uint64_t allocs_before = g_heap_allocs;
    store.commit(txn);
    const uint64_t allocs = g_heap_allocs - allocs_before;
    if (txn > kWarm) {
      ASSERT_EQ(allocs, 0u) << "commit of txn " << txn;
    }
    store.wal_commit_group();
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(2 * (kWarm + kTxns)));
  EXPECT_EQ(store.locks().locked_count(), 0u);
  store.wal_end_group();
}

TEST(KvAlloc, WarmPrepareOfTwoNewKeysAllocatesAtMostFive) {
  TempDir dir;
  KvStore store(dir.path() / "kv.wal");
  store.wal_begin_group();
  // Short keys, like the workload's "key:<rank>". Aborting each prepare
  // erases its never-committed slots, so the table's size (and its bucket
  // array, once grown) stays put and every measured prepare sees a warm
  // table: the budget is one node per new key, the staged entry, its write
  // vector and its participant list. Group flushes fall outside the counted
  // window, as in the commit test.
  constexpr int kWarm = 64;
  constexpr int kTxns = 256;
  const auto sets = write_sets("k", 1, kWarm + kTxns);
  for (TxnId txn = 1; txn <= kWarm + kTxns; ++txn) {
    const uint64_t allocs_before = g_heap_allocs;
    ASSERT_TRUE(store.prepare(txn, sets[static_cast<size_t>(txn - 1)], kParticipants));
    const uint64_t allocs = g_heap_allocs - allocs_before;
    if (txn > kWarm) {
      ASSERT_LE(allocs, 5u) << "prepare of txn " << txn;
    }
    store.abort(txn);
    store.wal_commit_group();
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.locks().locked_count(), 0u);
  store.wal_end_group();
}

// --- restart -----------------------------------------------------------------
//
// The open's scan keeps the file's bytes and one view per record, both sized
// once, so its allocations must not grow with the log. A reopen copies out
// only what it keeps: a table node per installed key (and in a node, its key
// and value when they are past the small-string buffer).

/// A log of `txns` transactions over a pool of `keys` keys, each writing two
/// keys with values of one length, so the table's values are overwritten in
/// place: every fourth transaction aborts, every eighth never prepares, and
/// the rest commit. Keys and values are past the small-string buffer.
void write_restart_log(const fs::path& path, int txns, int keys) {
  const std::string value = "value-of-one-fixed-length-";
  WriteAheadLog wal(path);
  wal.begin_group();
  for (int t = 1; t <= txns; ++t) {
    const auto key = [&](int i) {
      return "key:restart-" + std::to_string(1000 + (t * 7 + i) % keys);
    };
    wal.append(WalRecordType::kBegin, t, {}, {});
    wal.append(WalRecordType::kWrite, t, key(0), value + std::to_string(t % 10));
    wal.append(WalRecordType::kWrite, t, key(1), value + std::to_string(t % 10));
    if (t % 8 == 0) continue;
    wal.append(WalRecordType::kPrepared, t, {}, "0,1");
    wal.append(t % 4 == 0 ? WalRecordType::kAbort : WalRecordType::kCommit, t, {}, {});
  }
  wal.append(WalRecordType::kBatchSeal, 1, {}, "1,2,3");
  wal.end_group();
}

/// Heap allocations made by `open(path)`.
template <typename Open>
uint64_t allocs_of(const fs::path& path, Open&& open) {
  const uint64_t before = g_heap_allocs;
  open(path);
  return g_heap_allocs - before;
}

TEST(WalScanAlloc, OpenScanAllocationsDoNotGrowWithTheLog) {
  TempDir dir;
  // Two logs of one shape, one 16 times the other; same-length names, so
  // the open's path copies cost the same.
  const fs::path small = dir.path() / "small.wal";
  const fs::path large = dir.path() / "large.wal";
  write_restart_log(small, 64, 32);
  write_restart_log(large, 1024, 32);
  const auto image_open = [](const fs::path& path) {
    WalImage image;
    WriteAheadLog wal(path, image);
    EXPECT_FALSE(image.records.empty());
  };
  const auto bare_open = [](const fs::path& path) { WriteAheadLog wal(path); };
  const auto read = [](const fs::path& path) {
    const WriteAheadLog wal(path);
    const uint64_t before = g_heap_allocs;
    const WalImage image = wal.read();
    EXPECT_FALSE(image.records.empty());
    return g_heap_allocs - before;
  };
  EXPECT_EQ(allocs_of(small, image_open), allocs_of(large, image_open));
  EXPECT_EQ(allocs_of(small, bare_open), allocs_of(large, bare_open));
  const uint64_t read_small = read(small);
  EXPECT_EQ(read_small, read(large));
  EXPECT_LE(read_small, 2u) << "the bytes and the views";
}

TEST(KvReopenAlloc, ReopenAllocatesOneTableNodePerInstalledKey) {
  TempDir dir;
  const fs::path path = dir.path() / "kv.wal";
  constexpr int kKeys = 32;
  constexpr int kTxns = 1024;
  write_restart_log(path, kTxns, kKeys);
  // A node is one allocation, plus one each for its key and its value,
  // which are past the small-string buffer here.
  constexpr uint64_t kAllocsPerNode = 3;
  // The WAL open (path, append stream, file bytes, views) and the replay's
  // own buffers (transaction index, write links, install list, lookup key,
  // participant list, bucket array): a constant, whatever the log holds.
  constexpr uint64_t kFixed = 20;
  const uint64_t before = g_heap_allocs;
  const KvStore store(path);
  const uint64_t allocs = g_heap_allocs - before;
  EXPECT_EQ(store.size(), static_cast<size_t>(kKeys));
  EXPECT_TRUE(store.in_doubt().empty());
  // The log holds 2048 writes: a reopen that copied each record's strings
  // would be an order of magnitude over.
  EXPECT_LE(allocs, kAllocsPerNode * kKeys + kFixed);
}

}  // namespace
}  // namespace rcommit::db
