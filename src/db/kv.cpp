#include "db/kv.h"

#include <utility>

#include "common/check.h"

namespace rcommit::db {

KvStore::KvStore(const std::filesystem::path& wal_path) {
  // The WAL's open scans the file once (truncating a torn tail) and hands
  // its records over, so reopening a shard reads its log exactly once.
  std::vector<WalRecord> records;
  wal_ = std::make_unique<WriteAheadLog>(wal_path, records);
  struct Pending {
    std::vector<KvWrite> writes;
    std::vector<int32_t> participants;
    bool prepared = false;
  };
  std::map<TxnId, Pending> pending;
  for (auto& record : records) {
    switch (record.type) {
      case WalRecordType::kBegin:
        pending[record.txn_id];  // ensure the entry exists
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
            install(table_[std::move(write.key)], std::move(write.value));
          }
          pending.erase(it);
        }
        break;
      }
      case WalRecordType::kAbort:
        pending.erase(record.txn_id);
        break;
      case WalRecordType::kSnapshot:
        install(table_[std::move(record.key)], std::move(record.value));
        break;
      case WalRecordType::kBatchSeal:
        break;  // a recovery hint for RecoveryManager; carries no shard state
    }
  }
  // Unprepared leftovers died before voting: they can only abort. In-doubt
  // transactions re-take their locks through the prepare path: their outcome
  // is pending and their keys must stay protected.
  for (auto& [txn, leftover] : pending) {
    if (!leftover.prepared) continue;
    Staged staged;
    staged.writes.reserve(leftover.writes.size());
    for (auto& write : leftover.writes) {
      RCOMMIT_CHECK_MSG(stage(txn, write.key, std::move(write.value), staged.writes),
                        "conflicting in-doubt transactions in WAL");
    }
    staged.participants = std::move(leftover.participants);
    staged_.emplace_hint(staged_.end(), txn, std::move(staged));
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

void KvStore::install(Slot& slot, std::string&& value) {
  slot.value = std::move(value);
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
