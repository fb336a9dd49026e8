// Write-ahead log.
//
// The durability substrate of the motivating application (§1: "the results of
// the transaction are installed in the database at all processors ... or at
// no processor"). Each record is framed [length][crc32c][body] and flushed on
// append; replay stops cleanly at the first torn or corrupted record, so a
// crash mid-append loses at most the record being written.
//
// Every append is also a numbered *injection site*: an installed WalFaultHook
// (src/faultinject) sees each framed record before it hits the file and can
// demand a torn write, a duplicated frame, or a hard crash at exactly that
// point. With no hook installed (or a hook that always answers kClean) the
// byte stream is identical to an uninstrumented log — the hook sees the
// frame that was going to be written anyway.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace rcommit::db {

enum class WalRecordType : uint8_t {
  kBegin = 1,      ///< transaction started on this shard
  kWrite = 2,      ///< staged write (key, value)
  kPrepared = 3,   ///< shard voted commit; writes are staged durably
  kCommit = 4,     ///< outcome: install the staged writes
  kAbort = 5,      ///< outcome: discard the staged writes
  kSnapshot = 6,   ///< checkpointed committed state (key, value), txn_id = 0
  kBatchSeal = 7,  ///< decision-batch membership: txn_id = batch id, value =
                   ///< member instance ids. A recovery *hint* — it lets
                   ///< RecoveryManager rerun one protocol round per batch
                   ///< instead of one per member; losing it costs only reruns,
                   ///< never correctness, so seals ride in the next group
                   ///< flush without a flush of their own.
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  int64_t txn_id = 0;
  std::string key;    ///< kWrite only
  std::string value;  ///< kWrite / kPrepared (participant list)

  bool operator==(const WalRecord&) const = default;
};

/// One intact record of a scanned log. Key and value point into the
/// WalImage that holds the view and stay valid for as long as it lives.
struct WalRecordView {
  WalRecordType type = WalRecordType::kBegin;
  int64_t txn_id = 0;
  std::string_view key;
  std::string_view value;
};

/// A log as one sized read of its file left it: the bytes, and a view of
/// each record of the trusted prefix into them. Move-only; a move keeps the
/// views valid, because the bytes never relocate.
struct WalImage {
  std::unique_ptr<uint8_t[]> bytes;
  size_t size = 0;       ///< bytes read
  size_t valid_end = 0;  ///< end of the trusted prefix; the rest is a torn
                         ///< or corrupt tail
  std::vector<WalRecordView> records;
  /// kWrite and kSnapshot records: a bound on the keys a replay installs.
  size_t write_count = 0;
};

/// Thrown by WriteAheadLog::append when the installed fault hook demands a
/// crash at this injection site. Models a whole-process kill: the in-memory
/// store is garbage afterwards; the only truth left is the WAL file.
class CrashInjected : public std::runtime_error {
 public:
  CrashInjected(int64_t site, const std::string& what)
      : std::runtime_error(what), site_(site) {}

  /// The global injection-site index at which the crash fired.
  [[nodiscard]] int64_t site() const { return site_; }

 private:
  int64_t site_;
};

/// What a fault hook wants done with one append.
struct WalAppendFault {
  enum class Kind : uint8_t {
    kClean,        ///< write the frame normally
    kCrashBefore,  ///< write nothing, then crash
    kTorn,         ///< write only keep_bytes of the frame, then crash
    kDuplicate,    ///< write the frame twice, keep running
    kCrashAfter,   ///< write the frame fully, then crash
  };
  Kind kind = Kind::kClean;
  /// kTorn only: bytes of the frame that reach the file, in [0, frame size).
  size_t keep_bytes = 0;
  /// Site index to report in CrashInjected (assigned by the hook).
  int64_t site = -1;
};

/// Consulted once per append with the exact bytes about to be written
/// (header + body). Implemented by faultinject::FaultInjector; the WAL layer
/// only executes the returned disposition.
class WalFaultHook {
 public:
  virtual ~WalFaultHook() = default;
  virtual WalAppendFault on_append(const std::filesystem::path& wal_path,
                                   std::span<const uint8_t> frame) = 0;
};

/// Encodes a participant shard list into the kPrepared record's value field
/// (comma-separated decimal, e.g. "0,2,5"). An empty list encodes as "" —
/// byte-identical to the pre-participant-list record format, which is how
/// legacy WALs and direct KvStore::prepare calls without a list stay valid.
[[nodiscard]] std::string encode_participant_list(const std::vector<int32_t>& ids);
/// Inverse of encode_participant_list; "" decodes to the empty list. Parses
/// in place. Throws CheckFailure on malformed input — an empty part, a
/// non-digit (a sign included) or an id outside int32 (the record's CRC
/// already passed, so a parse failure here is a logic bug, not corruption).
[[nodiscard]] std::vector<int32_t> decode_participant_list(std::string_view text);
/// decode_participant_list appending to `ids`, so a scan can parse every
/// list of a log into buffers it reuses.
void append_participant_list(std::string_view text, std::vector<int32_t>& ids);

/// Encodes a kBatchSeal member list (64-bit instance ids, comma-separated
/// decimal) into the record's value field. Same format family as the
/// participant list, widened to the multi-shot txn-id space.
[[nodiscard]] std::string encode_txn_list(const std::vector<int64_t>& ids);
/// Inverse of encode_txn_list; "" decodes to the empty list. Same parsing
/// and rejection rules as decode_participant_list, over int64 ids.
[[nodiscard]] std::vector<int64_t> decode_txn_list(std::string_view text);
/// decode_txn_list appending to `ids`.
void append_txn_list(std::string_view text, std::vector<int64_t>& ids);

/// Monotonic WAL counters. `records_appended` counts logical appends
/// (buffered appends included); `flushes` counts physical write+flush calls,
/// so records_appended / flushes is the group-commit amortization factor the
/// benchmarks report.
struct WalStats {
  int64_t records_appended = 0;
  int64_t flushes = 0;
  int64_t bytes_written = 0;

  [[nodiscard]] double records_per_flush() const {
    return flushes == 0 ? 0.0
                        : static_cast<double>(records_appended) /
                              static_cast<double>(flushes);
  }
};

/// Group-commit bounds. A group auto-flushes when either limit is reached,
/// so flush boundaries are a pure function of the append sequence — which
/// keeps fault-injection sites enumerable and replayable under group mode.
struct WalGroupLimits {
  int64_t max_records = 256;
  size_t max_bytes = 256 * 1024;
};

class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path` for appending. The open
  /// scans the file once and truncates a torn or corrupt tail, so appends
  /// always extend the trusted prefix. It keeps nothing of the scan.
  explicit WriteAheadLog(std::filesystem::path path);
  /// Same open, and hands that scan's image to `image` — the records read()
  /// returns afterwards, as views into the file's bytes — so an owner
  /// rebuilding its state from the log (KvStore) reads the file once and
  /// copies out only what it keeps.
  WriteAheadLog(std::filesystem::path path, WalImage& image);

  /// Appends one record, framed and checksummed. Outside group mode the
  /// frame is written and flushed immediately, with the installed fault
  /// hook's verdict for this site executed (which may throw CrashInjected).
  /// Inside group mode the frame is buffered; it reaches the file — and the
  /// fault hook — at the next group flush.
  void append(const WalRecord& record);
  /// Same append without a WalRecord: the frame is encoded straight into
  /// the pending group buffer (or, outside group mode, a reused scratch
  /// buffer), so a warm log appends without allocating. Byte-identical to
  /// append(WalRecord{type, txn_id, key, value}).
  void append(WalRecordType type, int64_t txn_id, std::string_view key,
              std::string_view value);

  // --- group commit ----------------------------------------------------------
  //
  // Between begin_group() and end_group(), appends coalesce into one pending
  // byte run that hits the file with ONE physical flush — and ONE fault-hook
  // consult, whose frame is the whole group. The serial fault kinds map onto
  // the group-boundary crash sites directly: kCrashBefore loses the entire
  // buffered group (a crash between the last batched append and the group
  // flush), kTorn tears mid-group (frames past the tear are lost, the WAL
  // ctor truncates the ragged tail), kDuplicate doubles the whole group
  // (replay is idempotent record by record). A crash disposition drops the
  // pending buffer before unwinding: the crashed group is gone, exactly as a
  // real power cut would leave it. Destruction with a pending group likewise
  // drops it unflushed — owners flush at their commit points, never from a
  // destructor (a destructor flush would model a dead process writing).

  /// Enters group mode. Must not already be in group mode.
  void begin_group(const WalGroupLimits& limits = {});
  /// Flushes the pending group (no-op when empty) and stays in group mode.
  void commit_group();
  /// Flushes the pending group and leaves group mode.
  void end_group();
  [[nodiscard]] bool group_open() const { return group_open_; }

  /// Reads every intact record from the start of the log, in one sized
  /// read of the file, as views into those bytes. Stops (without throwing)
  /// at the first torn or corrupt frame — everything before it is
  /// trustworthy, everything after is garbage from an interrupted append.
  /// A frame whose CRC matches but whose body is malformed (a type byte
  /// outside WalRecordType, an overlong varint, a length past the body's
  /// end, trailing bytes) is treated the same way: recovery rejects it and
  /// trusts nothing after. Read-only: it neither truncates nor reopens the
  /// file, and sees only what has been flushed (a pending group is
  /// invisible to it).
  [[nodiscard]] WalImage read() const;
  /// read(), with each record copied out into a WalRecord.
  [[nodiscard]] std::vector<WalRecord> replay() const;

  /// Installs (or clears, with nullptr) the per-append fault hook. Non-owning.
  void set_fault_hook(WalFaultHook* hook) { fault_hook_ = hook; }

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] int64_t records_appended() const {
    return stats_.records_appended;
  }
  [[nodiscard]] const WalStats& stats() const { return stats_; }

 private:
  /// Scans the file, truncates the distrusted tail and opens the append
  /// handle; returns the scan's image, with views only if `keep_views`.
  WalImage scan_and_open(bool keep_views);
  /// Writes `bytes` (one frame, or a whole pending group) through the fault
  /// hook and flushes. May throw CrashInjected per the hook's verdict.
  void write_frame(std::span<const uint8_t> bytes);
  /// Flushes the pending group buffer, if any.
  void flush_pending();

  std::filesystem::path path_;
  std::ofstream out_;
  WalStats stats_;
  WalFaultHook* fault_hook_ = nullptr;
  bool group_open_ = false;
  WalGroupLimits limits_;
  std::vector<uint8_t> pending_;  ///< concatenated frames awaiting the flush
  /// The frame being written: one serial frame, or the group flush_pending
  /// swapped out of pending_. Reused so neither buffer gives up capacity.
  std::vector<uint8_t> scratch_;
  int64_t pending_records_ = 0;
};

}  // namespace rcommit::db
