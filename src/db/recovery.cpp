#include "db/recovery.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "db/txn.h"

namespace rcommit::db {

ShardTxnStatus BatchSurvey::status(int32_t shard, TxnId txn) const {
  const auto& shard_statuses = statuses[static_cast<size_t>(shard)];
  const auto it = shard_statuses.find(txn);
  return it == shard_statuses.end() ? ShardTxnStatus::kUnknown : it->second;
}

RecoveryManager::RecoveryManager(std::vector<KvStore*> shards, Options options)
    : shards_(std::move(shards)), options_(std::move(options)) {
  RCOMMIT_CHECK(!shards_.empty());
  for (const auto* shard : shards_) RCOMMIT_CHECK(shard != nullptr);
  RCOMMIT_CHECK_MSG(
      options_.shard_ids.empty() || options_.shard_ids.size() == shards_.size(),
      "shard_ids must be empty or parallel to the shards vector");
}

namespace {

/// Adds one recorded copy of a list to `ids`. The copies of a list on
/// different shards are normally identical, and then a copy equal to what
/// `ids` holds adds nothing; sort_unique makes any other mix a union.
template <typename Int>
void merge_copy(const std::vector<Int>& copy, std::vector<Int>& ids) {
  if (ids != copy) ids.insert(ids.end(), copy.begin(), copy.end());
}

/// Sorts `ids` and drops repeats.
template <typename Int>
void sort_unique(std::vector<Int>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace

BatchSurvey RecoveryManager::survey_all() const {
  BatchSurvey survey;
  survey.statuses.resize(shards_.size());
  std::vector<int32_t> participants;  // one record's list, parsed
  std::vector<TxnId> members;         // one seal's members, parsed
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Read the shard's WAL again: the live KvStore only retains staged
    // state, but recovery needs the full outcome history. ONE read-only
    // scan per shard, through the store's own log, covers every
    // transaction — the multi-shot scan. It reads what has been flushed,
    // as views into one read of the file.
    auto& statuses = survey.statuses[i];
    // A transaction's records mostly arrive together, and ids mostly ascend,
    // so the entry touched last is a good hint for the next.
    auto last = statuses.end();
    const auto status_of = [&](TxnId txn, ShardTxnStatus first) -> ShardTxnStatus& {
      if (last == statuses.end() || last->first != txn) {
        last = statuses.try_emplace(last, txn, first);
      }
      return last->second;
    };
    auto last_list = survey.participants.end();
    const WalImage image = shards_[i]->wal().read();
    for (const WalRecordView& record : image.records) {
      switch (record.type) {
        case WalRecordType::kBegin:
        case WalRecordType::kWrite:
          status_of(record.txn_id, ShardTxnStatus::kStagedOnly);
          break;
        case WalRecordType::kPrepared:
          status_of(record.txn_id, ShardTxnStatus::kPrepared) = ShardTxnStatus::kPrepared;
          if (!record.value.empty()) {
            participants.clear();
            append_participant_list(record.value, participants);
            last_list = survey.participants.try_emplace(last_list, record.txn_id);
            merge_copy(participants, last_list->second);
          }
          break;
        case WalRecordType::kCommit:
          status_of(record.txn_id, ShardTxnStatus::kCommitted) =
              ShardTxnStatus::kCommitted;
          break;
        case WalRecordType::kAbort:
          status_of(record.txn_id, ShardTxnStatus::kAborted) = ShardTxnStatus::kAborted;
          break;
        case WalRecordType::kSnapshot:
          break;  // checkpointed committed state; carries no per-txn status
        case WalRecordType::kBatchSeal:
          // The same seal is appended to every shard its batch touched; a
          // torn group can leave it on a strict subset, so merge.
          if (!record.value.empty()) {
            members.clear();
            append_txn_list(record.value, members);
            merge_copy(members, survey.batches[record.txn_id]);
          }
          break;
      }
    }
  }
  // Each prepared shard recorded the transaction's list, and each touched
  // shard its batch's seal: keep the sorted union of the copies.
  for (auto& entry : survey.participants) sort_unique(entry.second);
  for (auto& entry : survey.batches) sort_unique(entry.second);
  return survey;
}

RecoveryManager::Resolution RecoveryManager::classify(
    TxnId txn, const BatchSurvey& survey) const {
  const auto participants_it = survey.participants.find(txn);
  const std::vector<int32_t> intended =
      participants_it == survey.participants.end() ? std::vector<int32_t>{}
                                                   : participants_it->second;

  bool any_commit = false;
  bool any_abort = false;
  bool any_staged_only = false;
  std::vector<int32_t> prepared_shards;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto shard = static_cast<int32_t>(i);
    switch (survey.status(shard, txn)) {
      case ShardTxnStatus::kCommitted: any_commit = true; break;
      case ShardTxnStatus::kAborted: any_abort = true; break;
      case ShardTxnStatus::kStagedOnly: any_staged_only = true; break;
      case ShardTxnStatus::kPrepared: prepared_shards.push_back(shard); break;
      case ShardTxnStatus::kUnknown: break;
    }
  }
  // Rule 1: a recorded outcome is authoritative — decisions were unanimous.
  RCOMMIT_CHECK_MSG(!(any_commit && any_abort),
                    "WALs record conflicting outcomes for txn " << txn);

  // Rule 2 extension: a PREPARED record names the full intended participant
  // set. Any listed participant that is not itself prepared (or decided) —
  // including one that never even reached its BEGIN append — can never have
  // voted commit, so commit is impossible. Without this check, a crash
  // between the phase-1 prepares of two shards would leave the first shard
  // "all visibly prepared" and recovery could install a strict subset of the
  // transaction. Legacy records with no participant list fall back to the
  // visible-prepared-set behaviour.
  bool missing_intended_participant = false;
  for (int32_t id : intended) {
    int32_t index = id;
    if (!options_.shard_ids.empty()) {
      const auto it =
          std::find(options_.shard_ids.begin(), options_.shard_ids.end(), id);
      index = it == options_.shard_ids.end()
                  ? -1
                  : static_cast<int32_t>(it - options_.shard_ids.begin());
    }
    const ShardTxnStatus status =
        index >= 0 && index < static_cast<int32_t>(shards_.size())
            ? survey.status(index, txn)
            : ShardTxnStatus::kUnknown;
    if (status == ShardTxnStatus::kUnknown ||
        status == ShardTxnStatus::kStagedOnly) {
      missing_intended_participant = true;
    }
  }

  Resolution resolution;
  resolution.prepared_shards = std::move(prepared_shards);
  if (any_commit) {
    resolution.decision = Decision::kCommit;
  } else if (any_abort || any_staged_only || missing_intended_participant) {
    // Rule 2: an un-prepared participant can never have enabled a commit.
    resolution.decision = Decision::kAbort;
  } else {
    // Rule 3: everyone prepared, nobody decided — the caller reruns the
    // commit protocol among the prepared shards, all voting commit.
    RCOMMIT_CHECK(!resolution.prepared_shards.empty());
    resolution.needs_rerun = true;
  }
  return resolution;
}

Decision RecoveryManager::rerun_decision(
    int64_t mix_id, const std::vector<int32_t>& prepared_shards) const {
  // The rerun happens on the deterministic simulator under the on-time
  // adversary (the Theorem 9 commit-validity conditions), so the outcome —
  // commit — is a pure function of the inputs, never of wall-clock timing.
  // An unsealed instance reruns under its own (seed, txn) mix; a sealed
  // batch reruns ONCE under the (seed, batch id) mix, deciding every member
  // — the same one-round-per-batch shape the live engine used.
  // A lone prepared shard commits without a round.
  return run_simulated_round(CommitBackend::kPaperProtocol,
                             static_cast<int32_t>(prepared_shards.size()),
                             options_.k, options_.seed, mix_id, options_.max_events)
      .decision;
}

void RecoveryManager::apply_decision(TxnId txn, Decision decision,
                                     const std::vector<int32_t>& prepared_shards,
                                     RecoveryReport& report) {
  // Apply to every shard still holding the transaction in doubt.
  for (int32_t shard : prepared_shards) {
    auto& store = *shards_[static_cast<size_t>(shard)];
    if (!store.is_in_doubt(txn)) continue;
    if (decision == Decision::kCommit) {
      store.commit(txn);
    } else {
      store.abort(txn);
    }
  }
  (decision == Decision::kCommit ? report.resolved_commit : report.resolved_abort) += 1;
}

RecoveryReport RecoveryManager::resolve_all() {
  RecoveryReport report;
  std::set<TxnId> pending;
  for (const auto* shard : shards_) {
    for (TxnId txn : shard->in_doubt()) pending.insert(txn);
  }
  if (pending.empty()) return report;
  // One WAL scan per shard indexes every instance at once; each pending
  // transaction is then resolved from the index. Resolving transaction A
  // appends only A's outcome record, so the index stays exact for B, C, ...
  const BatchSurvey survey = survey_all();

  // Classify everything first: rule-3 members of the same recorded seal
  // share ONE protocol rerun (seeded by the batch id) instead of one each.
  // Its participant set is the union of the batch's pending rule-3 members'
  // prepared shards — the set the live batched round ran over, minus
  // members already settled by rules 1 and 2 (whose recorded outcomes stand
  // on their own) — gathered in this same pass.
  std::map<TxnId, int64_t> seal_of;
  for (const auto& [batch, members] : survey.batches) {
    for (TxnId member : members) seal_of[member] = batch;
  }
  std::vector<std::pair<TxnId, Resolution>> resolutions;
  resolutions.reserve(pending.size());
  std::map<int64_t, std::set<int32_t>> batch_shards;
  for (TxnId txn : pending) {
    Resolution resolution = classify(txn, survey);
    if (resolution.needs_rerun) {
      const auto seal_it = seal_of.find(txn);
      if (seal_it != seal_of.end()) {
        resolution.batch = seal_it->second;
        batch_shards[seal_it->second].insert(resolution.prepared_shards.begin(),
                                             resolution.prepared_shards.end());
      }
    }
    resolutions.emplace_back(txn, std::move(resolution));
  }

  // Outcome records coalesce per shard into group flushes instead of one
  // write and flush each. Each store's group state is left as found: a
  // group recovery opens it also ends, an owner's open group is committed
  // and stays open. Either way every outcome is on disk when this returns.
  // A crash before the flush loses buffered outcomes harmlessly: they were
  // never observed, and the next resolve reaches the same decisions (the
  // reruns are deterministic, and rule 1 adopts any outcome that landed).
  std::vector<bool> opened_group(shards_.size(), false);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->wal_group_open()) continue;
    shards_[i]->wal_begin_group();
    opened_group[i] = true;
  }

  // Apply in ascending transaction-id order, exactly as the unsealed path
  // always has; a sealed batch's rerun fires lazily at its first pending
  // rule-3 member and the decision is reused for the rest.
  std::map<int64_t, Decision> batch_decisions;
  for (const auto& [txn, resolution] : resolutions) {
    Decision decision = resolution.decision;
    if (resolution.needs_rerun) {
      if (!resolution.batch.has_value()) {
        ++report.reran_protocol;
        decision = rerun_decision(txn, resolution.prepared_shards);
      } else {
        const int64_t batch = *resolution.batch;
        auto cached = batch_decisions.find(batch);
        if (cached == batch_decisions.end()) {
          const std::set<int32_t>& union_shards = batch_shards.at(batch);
          ++report.reran_protocol;
          cached = batch_decisions
                       .emplace(batch, rerun_decision(batch, {union_shards.begin(),
                                                              union_shards.end()}))
                       .first;
        }
        decision = cached->second;
      }
    }
    apply_decision(txn, decision, resolution.prepared_shards, report);
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    if (opened_group[i]) {
      shards_[i]->wal_end_group();
    } else {
      shards_[i]->wal_commit_group();
    }
  }
  return report;
}

}  // namespace rcommit::db
