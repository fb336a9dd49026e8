#include "db/locks.h"

namespace rcommit::db {

bool LockManager::try_lock(const std::string& key, TxnId txn) {
  auto [it, inserted] = holders_.try_emplace(key, txn);
  if (!inserted && it->second != txn) {
    ++conflicts_;
    return false;
  }
  if (inserted) keys_of_[txn].push_back(key);
  return true;
}

void LockManager::unlock_all(TxnId txn) {
  auto it = keys_of_.find(txn);
  if (it == keys_of_.end()) return;
  for (const auto& key : it->second) {
    auto holder_it = holders_.find(key);
    if (holder_it != holders_.end() && holder_it->second == txn) {
      holders_.erase(holder_it);
    }
  }
  keys_of_.erase(it);
}

std::optional<TxnId> LockManager::holder(const std::string& key) const {
  auto it = holders_.find(key);
  if (it == holders_.end()) return std::nullopt;
  return it->second;
}

}  // namespace rcommit::db
