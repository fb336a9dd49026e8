#include "db/kv.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace rcommit::db {

namespace {

constexpr uint32_t kNoRecord = std::numeric_limits<uint32_t>::max();

/// One transaction's state while a reopen replays the log. Its writes are
/// not copied: they are a chain of record indices through the replay's
/// next-write links.
struct Replayed {
  TxnId txn = 0;
  uint32_t first_write = kNoRecord;
  uint32_t last_write = kNoRecord;
  uint32_t prepared = kNoRecord;  ///< its last kPrepared record
  bool live = false;              ///< begun, not yet committed or aborted
};

/// The replay's transactions in a flat vector, found by txn id through an
/// open-addressing index. Both are sized once from a bound on the number of
/// transactions, so a replay allocates them once whatever the log holds.
class ReplayTable {
 public:
  explicit ReplayTable(size_t max_txns)
      : slots_(std::bit_ceil(2 * max_txns + 1), 0),
        mask_(slots_.size() - 1) {
    entries_.reserve(max_txns);
  }

  /// The entry of `txn`, or nullptr if the log has not named it yet.
  Replayed* find(TxnId txn) {
    for (size_t at = home(txn);; at = (at + 1) & mask_) {
      if (slots_[at] == 0) return nullptr;
      Replayed& entry = entries_[slots_[at] - 1];
      if (entry.txn == txn) return &entry;
    }
  }

  /// The entry of `txn`, added (not live) if new.
  Replayed& find_or_add(TxnId txn) {
    size_t at = home(txn);
    for (; slots_[at] != 0; at = (at + 1) & mask_) {
      Replayed& entry = entries_[slots_[at] - 1];
      if (entry.txn == txn) return entry;
    }
    entries_.push_back({.txn = txn});
    slots_[at] = static_cast<uint32_t>(entries_.size());
    return entries_.back();
  }

  [[nodiscard]] const std::vector<Replayed>& entries() const { return entries_; }

 private:
  [[nodiscard]] size_t home(TxnId txn) const {
    // Fibonacci hashing: ids differ mostly in their low bits (sequence
    // numbers) and in a few high ones (the originating shard).
    return static_cast<size_t>((static_cast<uint64_t>(txn) * 0x9E3779B97F4A7C15ULL) >>
                               32) &
           mask_;
  }

  std::vector<uint32_t> slots_;  ///< entry index + 1; 0 is an empty slot
  size_t mask_;
  std::vector<Replayed> entries_;
};

}  // namespace

KvStore::KvStore(const std::filesystem::path& wal_path) {
  // The WAL's open scans the file once (truncating a torn tail) and hands
  // over views of its records, so reopening a shard reads its log exactly
  // once and copies only the keys and values it installs or re-stages.
  WalImage image;
  wal_ = std::make_unique<WriteAheadLog>(wal_path, image);
  replay(image);
}

void KvStore::replay(const WalImage& image) {
  const std::span<const WalRecordView> records = image.records;
  if (records.empty()) return;
  RCOMMIT_CHECK_MSG(records.size() < kNoRecord, "WAL too long to replay");
  ReplayTable txns(records.size());
  std::vector<uint32_t> next_write(records.size(), kNoRecord);
  // The kWrite and kSnapshot records to install, in log order. Installs are
  // the only table changes the pass below makes, so running them after it
  // in the same order gives the same table, and keeps the pass itself off
  // the table's memory.
  std::vector<uint32_t> installs;
  installs.reserve(image.write_count);
  std::vector<int32_t> participants;  // reused to check each PREPARED list
  // The transaction's entry, made live, or live again after its outcome: a
  // kBegin after a kCommit starts a fresh transaction of the same id.
  const auto open = [&](TxnId txn) -> Replayed& {
    Replayed& entry = txns.find_or_add(txn);
    if (!entry.live) entry = {.txn = txn, .live = true};
    return entry;
  };
  for (uint32_t i = 0; i < records.size(); ++i) {
    const WalRecordView& record = records[i];
    switch (record.type) {
      case WalRecordType::kBegin:
        open(record.txn_id);
        break;
      case WalRecordType::kWrite: {
        Replayed& entry = open(record.txn_id);
        (entry.last_write == kNoRecord ? entry.first_write
                                       : next_write[entry.last_write]) = i;
        entry.last_write = i;
        break;
      }
      case WalRecordType::kPrepared:
        // Only an in-doubt transaction keeps its list, but every list must
        // parse: a malformed one is a CheckFailure, as it always was.
        participants.clear();
        append_participant_list(record.value, participants);
        open(record.txn_id).prepared = i;
        break;
      case WalRecordType::kCommit: {
        Replayed* entry = txns.find(record.txn_id);
        if (entry != nullptr && entry->live) {
          // In write order, so the last write of a repeated key wins.
          for (uint32_t w = entry->first_write; w != kNoRecord; w = next_write[w]) {
            installs.push_back(w);
          }
          entry->live = false;
        }
        break;
      }
      case WalRecordType::kAbort: {
        Replayed* entry = txns.find(record.txn_id);
        if (entry != nullptr) entry->live = false;
        break;
      }
      case WalRecordType::kSnapshot:
        installs.push_back(i);
        break;
      case WalRecordType::kBatchSeal:
        break;  // a recovery hint for RecoveryManager; carries no shard state
    }
  }
  // Straight from the log's bytes into the table. The lookup key is one
  // reused string, so a key already in the table costs no allocation.
  table_.reserve(image.write_count);
  std::string key;
  for (const uint32_t w : installs) {
    key.assign(records[w].key);
    install(table_.try_emplace(key).first->second, records[w].value);
  }
  // Unprepared leftovers died before voting: they can only abort. In-doubt
  // transactions re-take their locks through the prepare path, in ascending
  // id order: their outcome is pending and their keys must stay protected.
  std::vector<const Replayed*> in_doubt;
  // Every id a log names has an entry in some shard's log (a seal's batch id
  // is a member's, prepared before the seal), so entries alone give the floor.
  for (const Replayed& entry : txns.entries()) {
    note_opened(entry.txn);
    if (entry.live && entry.prepared != kNoRecord) in_doubt.push_back(&entry);
  }
  std::sort(in_doubt.begin(), in_doubt.end(),
            [](const Replayed* a, const Replayed* b) { return a->txn < b->txn; });
  for (const Replayed* entry : in_doubt) {
    Staged staged;
    size_t writes = 0;
    for (uint32_t w = entry->first_write; w != kNoRecord; w = next_write[w]) ++writes;
    staged.writes.reserve(writes);
    for (uint32_t w = entry->first_write; w != kNoRecord; w = next_write[w]) {
      RCOMMIT_CHECK_MSG(stage(entry->txn, std::string(records[w].key),
                              std::string(records[w].value), staged.writes),
                        "conflicting in-doubt transactions in WAL");
    }
    staged.participants = decode_participant_list(records[entry->prepared].value);
    staged_.emplace_hint(staged_.end(), entry->txn, std::move(staged));
  }
}

bool KvStore::stage(TxnId txn, const std::string& key, std::string value,
                    std::vector<StagedWrite>& writes) {
  Node& node = *table_.try_emplace(key).first;
  Slot& slot = node.second;
  const bool take = !slot.locked;
  if (!take && slot.holder != txn) return false;
  if (take) {
    slot.locked = true;
    slot.holder = txn;
    ++locked_count_;
  }
  writes.push_back({&node, std::move(value), take});
  return true;
}

template <typename Value>
void KvStore::install(Slot& slot, Value&& value) {
  slot.value = std::forward<Value>(value);
  if (!slot.committed) {
    slot.committed = true;
    ++committed_count_;
  }
}

void KvStore::release(const std::vector<StagedWrite>& writes) {
  // Only the write that took a key's lock releases it, so a repeated key is
  // released (and perhaps erased) once and never read after.
  for (const auto& write : writes) {
    if (!write.took_lock) continue;
    Slot& slot = write.node->second;
    slot.locked = false;
    --locked_count_;
    if (!slot.committed) table_.erase(table_.find(write.node->first));
  }
}

bool KvStore::prepare(TxnId txn, const std::vector<KvWrite>& writes,
                      const std::vector<int32_t>& participants) {
  RCOMMIT_CHECK_MSG(staged_.find(txn) == staged_.end(),
                    "transaction " << txn << " already staged");
  // Lock every key first; on any conflict, release and vote abort.
  Staged staged;
  staged.writes.reserve(writes.size());
  for (const auto& write : writes) {
    if (!stage(txn, write.key, write.value, staged.writes)) {
      release(staged.writes);
      return false;
    }
  }
  try {
    wal_->append(WalRecordType::kBegin, txn, {}, {});
    for (const auto& write : writes) {
      wal_->append(WalRecordType::kWrite, txn, write.key, write.value);
    }
    wal_->append(WalRecordType::kPrepared, txn, {},
                 encode_participant_list(participants));
  } catch (...) {
    // The PREPARED record never became durable, so recovery will drop the
    // partial transaction as an unprepared leftover. Release the locks so a
    // caller that survives the exception sees the store as if the prepare
    // had never started.
    release(staged.writes);
    throw;
  }
  staged.participants = participants;
  staged_.emplace_hint(staged_.end(), txn, std::move(staged));
  return true;
}

void KvStore::commit(TxnId txn) {
  auto it = staged_.find(txn);
  RCOMMIT_CHECK_MSG(it != staged_.end(), "commit of unprepared transaction " << txn);
  wal_->append(WalRecordType::kCommit, txn, {}, {});
  // Each staged value moves into its slot, in write-set order so the last
  // write of a repeated key wins; every slot then holds a committed value,
  // so releasing the locks erases none.
  for (auto& write : it->second.writes) {
    install(write.node->second, std::move(write.value));
  }
  release(it->second.writes);
  staged_.erase(it);
}

void KvStore::abort(TxnId txn) {
  // WAL-first, like commit(): if the append throws CrashInjected the staged
  // entry must survive, or a caller that catches the exception would see the
  // transaction gone from memory while the log still says prepared — and a
  // retried abort() would silently skip the kAbort record.
  auto it = staged_.find(txn);
  if (it == staged_.end()) return;
  wal_->append(WalRecordType::kAbort, txn, {}, {});
  release(it->second.writes);
  staged_.erase(it);
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  auto it = table_.find(key);
  if (it == table_.end() || !it->second.committed) return std::nullopt;
  return it->second.value;
}

std::map<std::string, std::string> KvStore::snapshot() const {
  std::map<std::string, std::string> out;
  for (const auto& [key, slot] : table_) {
    if (slot.committed) out.emplace(key, slot.value);
  }
  return out;
}

std::optional<TxnId> KvStore::Locks::holder(const std::string& key) const {
  auto it = store_->table_.find(key);
  if (it == store_->table_.end() || !it->second.locked) return std::nullopt;
  return it->second.holder;
}

bool KvStore::is_in_doubt(TxnId txn) const { return staged_.contains(txn); }

int64_t KvStore::opened_sequence(int32_t origin) const {
  const auto at = static_cast<size_t>(origin);
  return at < opened_sequences_.size() ? opened_sequences_[at] : 0;
}

void KvStore::note_opened(TxnId txn) {
  if (txn <= 0) return;  // outside the id space: no origin to floor
  const auto at = static_cast<size_t>(txn_origin(txn));
  if (at >= opened_sequences_.size()) opened_sequences_.resize(at + 1, 0);
  opened_sequences_[at] = std::max(opened_sequences_[at], txn_sequence(txn));
}

std::vector<TxnId> KvStore::in_doubt() const {
  std::vector<TxnId> out;
  out.reserve(staged_.size());
  for (const auto& entry : staged_) out.push_back(entry.first);
  return out;
}

void KvStore::set_fault_hook(WalFaultHook* hook) {
  fault_hook_ = hook;
  wal_->set_fault_hook(hook);
}

void KvStore::wal_begin_group(const WalGroupLimits& limits) {
  group_limits_ = limits;  // remembered so checkpoint() can re-enter group mode
  wal_->begin_group(limits);
}

void KvStore::wal_commit_group() { wal_->commit_group(); }

void KvStore::wal_end_group() { wal_->end_group(); }

bool KvStore::wal_group_open() const { return wal_->group_open(); }

const WalStats& KvStore::wal_stats() const { return wal_->stats(); }

void KvStore::seal_batch(int64_t batch_id, const std::vector<TxnId>& members) {
  wal_->append(WalRecordType::kBatchSeal, batch_id, {}, encode_txn_list(members));
}

void KvStore::checkpoint() {
  namespace fs = std::filesystem;
  // A pending commit group holds records that never reached the file and the
  // rewrite below reads only memory — flush it first, and re-enter group
  // mode on the fresh log so the owner's flush points keep working. Seals
  // are dropped by the rewrite: their batches are resolved, or their members
  // re-surface per transaction (the hint costs nothing to lose).
  const bool group_was_open = wal_->group_open();
  if (group_was_open) wal_->commit_group();
  const fs::path live_path = wal_->path();
  const fs::path tmp_path = live_path.string() + ".compact";
  fs::remove(tmp_path);
  {
    WriteAheadLog fresh(tmp_path);
    fresh.set_fault_hook(fault_hook_);
    // In key order, so checkpoint bytes do not depend on the table's hashing.
    for (const auto& [key, value] : snapshot()) {
      fresh.append(WalRecordType::kSnapshot, 0, key, value);
    }
    // Carry pending (prepared, undecided) transactions forward so recovery
    // still surfaces them as in-doubt, participant lists included.
    for (const auto& [txn, staged] : staged_) {
      fresh.append(WalRecordType::kBegin, txn, {}, {});
      for (const auto& write : staged.writes) {
        fresh.append(WalRecordType::kWrite, txn, write.node->first, write.value);
      }
      fresh.append(WalRecordType::kPrepared, txn, {},
                   encode_participant_list(staged.participants));
    }
  }
  // The rename is the commit point of the compaction.
  wal_.reset();  // release the append handle to the old log
  fs::rename(tmp_path, live_path);
  wal_ = std::make_unique<WriteAheadLog>(live_path);
  wal_->set_fault_hook(fault_hook_);
  if (group_was_open) wal_->begin_group(group_limits_);
}

}  // namespace rcommit::db
