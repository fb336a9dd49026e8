// Per-key exclusive lock manager (strict two-phase locking, no-wait).
//
// Conflicting lock requests fail immediately rather than queueing — a shard
// whose prepare cannot lock its keys votes abort, which exercises the commit
// protocol's abort-validity path instead of hiding the conflict behind a
// wait queue.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace rcommit::db {

using TxnId = int64_t;

class LockManager {
 public:
  /// Acquires an exclusive lock on `key` for `txn`. Re-acquiring a lock the
  /// transaction already holds succeeds. Returns false if another
  /// transaction holds it (no-wait policy).
  bool try_lock(const std::string& key, TxnId txn);

  /// All-or-nothing acquisition of the key of every element of `items` for
  /// `txn` (`key_of` projects an element to its key; by default the element
  /// is the key): on the first conflict, every lock taken by this call (and
  /// any the transaction already held) is released and false is returned.
  /// This is the deterministic abort-on-conflict primitive the multi-shot
  /// engine builds on — which transaction loses depends only on arrival
  /// order at this shard, never on timing races inside the acquisition
  /// itself. KvStore locks straight from its write set with
  /// `try_lock_all(writes, txn, &KvWrite::key)`.
  template <typename Range, typename KeyOf = std::identity>
  bool try_lock_all(const Range& items, TxnId txn, KeyOf key_of = {}) {
    for (const auto& item : items) {
      if (!try_lock(std::invoke(key_of, item), txn)) {
        unlock_all(txn);
        return false;
      }
    }
    return true;
  }

  /// Releases every lock held by `txn` (end of its strict-2PL lifetime).
  void unlock_all(TxnId txn);

  /// Current holder of `key`, if locked.
  [[nodiscard]] std::optional<TxnId> holder(const std::string& key) const;

  /// Number of keys currently locked.
  [[nodiscard]] size_t locked_count() const { return holders_.size(); }

  /// try_lock / try_lock_all requests refused because another transaction
  /// held a key — the shard's conflict-abort pressure gauge.
  [[nodiscard]] int64_t conflicts() const { return conflicts_; }

 private:
  std::unordered_map<std::string, TxnId> holders_;
  /// Keys each transaction holds, each pushed once — on its first
  /// acquisition — so a re-acquired key is not listed twice.
  std::unordered_map<TxnId, std::vector<std::string>> keys_of_;
  int64_t conflicts_ = 0;
};

}  // namespace rcommit::db
