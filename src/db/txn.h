// Distributed transactions over sharded KV stores.
//
// The paper's motivating setting made concrete: a transaction touches several
// shards; each shard stages and durably prepares its writes (its vote), and
// the shards then reach a common commit/abort decision by running a commit
// protocol over the threaded transport — the paper's Protocol 2 by default,
// or a 2PC/3PC baseline for comparison. The outcome is applied to every
// involved shard.
#pragma once

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "db/kv.h"
#include "protocol/commit.h"
#include "transport/network.h"

namespace rcommit::db {

/// Which protocol decides the fate of a transaction.
enum class CommitBackend {
  kPaperProtocol,  ///< Protocol 2 (Coan & Lundelius)
  kTwoPc,          ///< two-phase commit (presume-abort timeout policy)
  kThreePc,        ///< three-phase commit
  kQ3pc,           ///< 3PC with the termination (recovery) protocol
};

struct TxnOutcome {
  Decision decision = Decision::kAbort;
  bool decided = true;  ///< false if the commit protocol timed out undecided
};

/// Builds one commit-protocol participant with the given initial vote.
/// Shared by DistributedDb's per-transaction fleets and MultiShotDb's
/// pipelined commit instances; baselines derive their timeout as 8K.
std::unique_ptr<sim::Process> make_commit_participant(CommitBackend backend,
                                                      const SystemParams& params,
                                                      int vote, Tick k);

/// Seed of the decision round for commit instance — or decision batch —
/// `mix_id` under engine seed `seed`. MultiShotDb's live rounds and
/// RecoveryManager's rule-3 reruns both draw from it, so a crashed instance
/// reruns the very round its live twin ran and recovers to its decision.
[[nodiscard]] uint64_t round_seed(uint64_t seed, int64_t mix_id);

/// Folds one round's per-participant decisions into a transaction outcome:
/// `decided` iff every participant decided; commit iff any decided commit.
[[nodiscard]] TxnOutcome round_outcome(
    const std::vector<std::optional<Decision>>& decisions);

/// One decision round among `n` participants, all voting commit, on the
/// deterministic simulator under the on-time adversary (Theorem 9's
/// commit-validity conditions), seeded by round_seed(seed, mix_id) and capped
/// at `max_events`, folded by round_outcome. A lone participant commits
/// without a round.
///
/// Rounds run on a warm thread-local sim::BatchRunner with pooled payloads,
/// so a steady stream of rounds reuses one engine's storage instead of
/// building a Simulator per round. The outcome is byte-for-byte that of a
/// fresh Simulator (tests/batch_equivalence_test.cpp).
[[nodiscard]] TxnOutcome run_simulated_round(CommitBackend backend, int32_t n,
                                             Tick k, uint64_t seed,
                                             int64_t mix_id, int64_t max_events);

class DistributedDb {
 public:
  struct Options {
    int32_t shard_count = 3;
    std::filesystem::path data_dir;  ///< one WAL per shard lives here
    CommitBackend backend = CommitBackend::kPaperProtocol;
    uint64_t seed = 1;
    transport::LinkPolicy network = {};  ///< delay/drop injection
    std::chrono::milliseconds txn_timeout{2000};
    Tick k = 25;  ///< Protocol 2's K, in node steps
    /// Optional WAL fault hook, installed on every shard's log (non-owning).
    /// The crash-point torture suite (src/faultinject) uses this to kill the
    /// database at a chosen append; production paths leave it null.
    WalFaultHook* wal_fault_hook = nullptr;
  };

  explicit DistributedDb(Options options);

  /// Executes one distributed transaction: writes grouped per shard. Every
  /// involved shard prepares (vote), the commit protocol runs over a fresh
  /// in-memory network among the involved shards, and the outcome is applied
  /// everywhere. Single-shard transactions commit locally iff they prepare.
  TxnOutcome execute(const std::map<int32_t, std::vector<KvWrite>>& writes_by_shard);

  /// Reads from one shard.
  [[nodiscard]] std::optional<std::string> get(int32_t shard, const std::string& key) const;

  [[nodiscard]] KvStore& shard(int32_t index);
  [[nodiscard]] int32_t shard_count() const { return options_.shard_count; }

  /// Transactions executed so far (also the id generator).
  [[nodiscard]] TxnId transactions_started() const { return next_txn_ - 1; }

 private:
  /// Builds one commit-protocol participant with the given initial vote.
  std::unique_ptr<sim::Process> make_participant(int32_t index, int32_t n, int vote) const;

  Options options_;
  std::vector<std::unique_ptr<KvStore>> shards_;
  TxnId next_txn_ = 1;
  uint64_t txn_seed_ = 0;
};

}  // namespace rcommit::db
