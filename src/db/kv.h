// WAL-backed key-value store with two-phase local transactions.
//
// One shard's storage engine: writes are staged under a transaction, made
// durable by a PREPARED record (the shard's commit vote), and installed or
// discarded by the global outcome. Recovery replays the WAL; transactions
// that were prepared but have no recorded outcome surface as "in doubt" —
// the state whose resolution is exactly the transaction commit problem.
//
// Each key lives in one hash table slot that holds both its committed value
// and its lock (strict two-phase locking, no-wait: a prepare that finds a key
// locked by another transaction votes abort at once instead of queueing, which
// exercises the commit protocol's abort-validity path). A staged write points
// at its key's slot, so commit and abort install or release without looking
// any key up again.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/wal.h"

namespace rcommit::db {

using TxnId = int64_t;

// --- the 64-bit transaction-id space -----------------------------------------
// MultiShotDb allocates ids from it; a shard's reopen reads it to tell an
// engine which ids its log already holds.

/// Bits of the shard-local sequence; the top 64-48 = 16 bits carry the
/// originating shard. ~2.8e14 transactions per shard before wraparound.
inline constexpr int kTxnSequenceBits = 48;
inline constexpr int64_t kTxnSequenceMask = (int64_t{1} << kTxnSequenceBits) - 1;

/// Composes an instance id from (originating shard, shard-local sequence).
/// Sequence 0 is reserved; engines allocate from 1, past every sequence
/// their logs already hold.
[[nodiscard]] constexpr TxnId make_txn_id(int32_t origin_shard, int64_t sequence) {
  return (static_cast<int64_t>(origin_shard) << kTxnSequenceBits) |
         (sequence & kTxnSequenceMask);
}

/// The originating shard encoded in `txn`.
[[nodiscard]] constexpr int32_t txn_origin(TxnId txn) {
  return static_cast<int32_t>(txn >> kTxnSequenceBits);
}

/// The shard-local sequence number encoded in `txn`.
[[nodiscard]] constexpr int64_t txn_sequence(TxnId txn) {
  return txn & kTxnSequenceMask;
}

struct KvWrite {
  std::string key;
  std::string value;
};

class KvStore {
 public:
  /// Opens the store, replaying any existing WAL at `wal_path`.
  explicit KvStore(const std::filesystem::path& wal_path);

  /// Locks every key of `writes` for `txn`, stages the writes and durably
  /// records the prepare. Returns false (voting abort) when a key is locked
  /// by another transaction; in that case nothing is staged and every lock
  /// the call took is released. A key may repeat in `writes`: it is locked
  /// once and the last write wins at commit.
  ///
  /// `participants` names the full intended participant set of the
  /// transaction (shard ids, including this one); it is recorded in the
  /// PREPARED record so recovery can tell "every participant prepared" from
  /// "every participant I can see prepared". An empty list (the legacy
  /// format) records no participant information.
  bool prepare(TxnId txn, const std::vector<KvWrite>& writes,
               const std::vector<int32_t>& participants = {});

  /// Installs the staged writes of a prepared transaction.
  void commit(TxnId txn);

  /// Discards the staged writes; also legal for transactions that never
  /// prepared (making a global abort idempotent per shard).
  void abort(TxnId txn);

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  /// Number of keys with a committed value.
  [[nodiscard]] size_t size() const { return committed_count_; }

  /// The full committed state in key order, built on each call — for
  /// checkpoints, equivalence checking and digests, not for the hot path.
  [[nodiscard]] std::map<std::string, std::string> snapshot() const;

  /// Transactions recovered from the WAL as prepared-but-undecided. The
  /// owner must resolve each with commit() or abort().
  [[nodiscard]] std::vector<TxnId> in_doubt() const;
  /// Whether `txn` is one of in_doubt(), in O(log n) and without building
  /// the list.
  [[nodiscard]] bool is_in_doubt(TxnId txn) const;

  /// The highest sequence among the ids from `origin` that the log named
  /// when the store opened, or 0 if none: an engine restarting over this log
  /// allocates past it, so no id it issues is already in the log.
  [[nodiscard]] int64_t opened_sequence(int32_t origin) const;

  /// Compacts the WAL: rewrites it as a snapshot of the committed state plus
  /// the records of still-pending (prepared, undecided) transactions,
  /// atomically replacing the old log. Shrinks an append-only log that has
  /// accumulated many resolved transactions; crash-safe (the rename is the
  /// commit point — before it the old log is intact, after it the new one is
  /// complete).
  void checkpoint();

  /// Installs (or clears) the WAL fault hook; survives checkpoint()'s log
  /// replacement. Non-owning.
  void set_fault_hook(WalFaultHook* hook);

  // --- group commit ----------------------------------------------------------
  // Passthrough to the WAL's group mode (wal.h): between wal_begin_group and
  // wal_end_group, appends coalesce and hit the disk with one flush per
  // group. The owner picks the flush points — e.g. MultiShotDb flushes at
  // its pipeline phase boundaries so PREPARED records are durable before any
  // decision round and outcomes are durable before the caller observes them.

  void wal_begin_group(const WalGroupLimits& limits = {});
  void wal_commit_group();
  void wal_end_group();
  [[nodiscard]] bool wal_group_open() const;
  [[nodiscard]] const WalStats& wal_stats() const;

  /// Appends a kBatchSeal record: one decision round (seeded by `batch_id`)
  /// decided all of `members`. Recovery uses it to rerun one protocol round
  /// per batch instead of one per member; replay ignores it entirely, and
  /// checkpoint() drops seals (their batches are resolved or will re-surface
  /// per transaction — the hint costs nothing to lose).
  void seal_batch(int64_t batch_id, const std::vector<TxnId>& members);

  [[nodiscard]] const WriteAheadLog& wal() const { return *wal_; }

  /// Read-only view of the shard's locks.
  class Locks {
   public:
    /// Current holder of `key`, if locked.
    [[nodiscard]] std::optional<TxnId> holder(const std::string& key) const;
    /// Number of keys currently locked.
    [[nodiscard]] size_t locked_count() const { return store_->locked_count_; }

   private:
    friend class KvStore;
    explicit Locks(const KvStore& store) : store_(&store) {}
    const KvStore* store_;
  };
  [[nodiscard]] Locks locks() const { return Locks(*this); }

 private:
  /// One key's state: its committed value, if any, and its lock.
  struct Slot {
    std::string value;
    TxnId holder = 0;
    bool locked = false;
    bool committed = false;  ///< `value` holds a committed value
  };
  using Table = std::unordered_map<std::string, Slot>;
  using Node = Table::value_type;

  struct StagedWrite {
    Node* node;  ///< the key's slot; element pointers survive rehash
    std::string value;
    bool took_lock;  ///< first write of its key in the set: owns the lock
  };
  struct Staged {
    std::vector<StagedWrite> writes;
    std::vector<int32_t> participants;
  };

  /// Rebuilds the table and the in-doubt set from the open's scan (the
  /// constructor's replay).
  void replay(const WalImage& image);
  /// Raises opened_sequence(txn_origin(txn)) to txn's sequence.
  void note_opened(TxnId txn);
  /// Locks `key` for `txn` and appends the write to `writes`; false if
  /// another transaction holds the key. `writes` must have spare capacity,
  /// so a lock is never taken without its staged write.
  bool stage(TxnId txn, const std::string& key, std::string value,
             std::vector<StagedWrite>& writes);
  /// Makes `value` (a std::string to move from, or a view to copy) the
  /// slot's committed value.
  template <typename Value>
  void install(Slot& slot, Value&& value);
  /// Releases the locks `writes` took, erasing the slots that hold no
  /// committed value.
  void release(const std::vector<StagedWrite>& writes);

  std::unique_ptr<WriteAheadLog> wal_;
  WalGroupLimits group_limits_;  ///< last wal_begin_group limits (checkpoint)
  Table table_;
  size_t committed_count_ = 0;
  size_t locked_count_ = 0;
  /// Prepared, undecided transactions.
  std::map<TxnId, Staged> staged_;
  /// opened_sequence() per origin, filled by the open's replay.
  std::vector<int64_t> opened_sequences_;
  WalFaultHook* fault_hook_ = nullptr;
};

}  // namespace rcommit::db
