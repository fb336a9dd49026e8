// Multi-shot sharded transaction engine — the database's one transaction
// engine.
//
// In the style of Chockler & Gotsman's *Multi-Shot Distributed Transaction
// Commit* (PAPERS.md), a single commit is just the one-client case: one
// caller of execute() with decision_batch 1 commits one transaction at a
// time. Many callers let millions of transactions be in flight across
// partitioned shards without head-of-line blocking:
//
//   * Transaction ids span a 64-bit space (db/kv.h): the originating shard in
//     the top bits, a shard-local sequence in the bottom 48. Ids are unique
//     across shards with no coordination and across restarts (a reopened
//     engine resumes past every id its logs hold), and every WAL record a
//     transaction writes is tagged with its instance id (the participant-list
//     / shard_ids encoding rides along unchanged in the PREPARED record).
//   * Each shard runs a *pipeline* of commit instances keyed by that id:
//     a shard engine prepares, decides, and applies different transactions
//     independently, serialized only by the shard's own WAL appends and lock
//     table — never by another transaction's commit round-trip.
//   * Conflicts are arbitrated by the no-wait locks in each shard's key
//     table (db/kv): the later arrival votes abort, deterministically, and no
//     commit instance even starts for it.
//
// Two decision transports share the same instance semantics:
//
//   kSimulator        the commit protocol runs on the deterministic simulator
//                     under the on-time adversary, seeded by (seed, txn id) —
//                     the exact rerun RecoveryManager performs for an
//                     in-doubt instance (both call db::run_simulated_round,
//                     which keeps one warm engine per thread), so a crashed
//                     instance recovers to the same decision a live one
//                     would have reached. This
//                     makes single-driver pipelines pure functions of
//                     (options, workload), which is what the multi-txn
//                     crash-point torture sweep replays from.
//   kThreadedNetwork  each instance runs over a fresh threaded in-memory
//                     network with real delays (transport::run_fleet) —
//                     the configuration bench_db_multishot (E19) measures,
//                     where pipelining is the entire throughput win.
//
// Two per-transaction costs are amortizable across batches (PROTOCOL.md
// §multi-shot):
//
//   group_commit     each shard's WAL appends coalesce into commit groups
//                    with one flush (and one fault-injection site) per
//                    group; the engine flushes at its phase boundaries so
//                    durability ordering — prepares before rounds, outcomes
//                    before observation — is preserved.
//   decision_batch   one Protocol 2 round decides a whole batch of prepared
//                    transactions (unanimous-yes fast path; mixed batches
//                    split, with lock-table no-voters aborting immediately).
//                    The batch id seeds the round and is sealed into each
//                    shard's WAL (kBatchSeal) so RecoveryManager reruns one
//                    round per crashed batch too.
//
// Both default off: the defaults reproduce the PR 9 engine byte for byte.
//
// Thread model: execute() may be called from many client threads; each shard
// engine guards its store with an annotated Mutex (lock order: ascending
// shard index, one shard at a time — never two shard locks held at once).
// execute_pipelined() is the deterministic single-driver form: it stages a
// whole batch of instances before deciding any of them, which is how the
// fault-injection tooling reaches many-in-doubt-transactions-per-shard WAL
// states reproducibly.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "db/kv.h"
#include "db/txn.h"
#include "db/workload.h"
#include "transport/network.h"

namespace rcommit::db {

// --- the engine --------------------------------------------------------------

/// How a commit instance's decision round is executed.
enum class DecisionTransport {
  kSimulator,        ///< deterministic simulator, on-time adversary
  kThreadedNetwork,  ///< fresh threaded in-memory network per instance
};

/// Aggregate engine counters (monotonic; safe to read while running).
struct MultiShotStats {
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t conflict_aborts = 0;  ///< aborts decided by the lock table alone
  int64_t in_doubt = 0;         ///< instances whose decision round timed out
};

class MultiShotDb {
 public:
  struct Options {
    int32_t shard_count = 3;
    std::filesystem::path data_dir;  ///< one WAL per shard lives here
    CommitBackend backend = CommitBackend::kPaperProtocol;
    DecisionTransport decision_transport = DecisionTransport::kSimulator;
    uint64_t seed = 1;
    transport::LinkPolicy network = {};  ///< kThreadedNetwork link timing
    std::chrono::milliseconds txn_timeout{2000};
    Tick k = 25;  ///< Protocol 2's K
    /// Event budget for one kSimulator decision round.
    int64_t max_events = 200'000;
    /// Cap on simultaneous kThreadedNetwork decision rounds; 0 picks the
    /// hardware concurrency. Each round runs ~3 short-lived threads, so an
    /// uncapped 64-client fleet collapses into scheduler churn — admission
    /// control keeps throughput scaling (see bench_db_multishot, E19).
    int32_t max_concurrent_rounds = 0;
    /// Optional WAL fault hook installed on every shard's log (non-owning).
    /// Only meaningful with a single driver thread (execute_pipelined): the
    /// injector's site numbering assumes sequential appends.
    WalFaultHook* wal_fault_hook = nullptr;
    /// Group-commit WAL: each shard's appends coalesce into commit groups
    /// with ONE flush (and one fault-hook site) per group. The pipelined
    /// path flushes at its phase boundaries (prepares durable before any
    /// decision round, outcomes durable before returning); the threaded
    /// path flushes at the batched-decide leader's round boundaries. Off
    /// reproduces the PR 9 per-append flushing byte for byte.
    bool group_commit = false;
    /// Deterministic group auto-flush bounds (group_commit only).
    WalGroupLimits group_limits = {};
    /// Prepared transactions decided per Protocol 2 round. 1 = one round
    /// per transaction (the ungrouped baseline). >1 folds a batch's vote
    /// vector into one decision round over the union of involved shards:
    /// unanimous-yes batches take the fast path (one round decides all),
    /// mixed batches split — lock-table no-voters abort immediately and the
    /// yes-voters retry as their own unanimous round. The batch id (the
    /// first member's txn id) seeds the round and is sealed into each
    /// shard's WAL so recovery reruns one round per batch too.
    int32_t decision_batch = 1;
    /// How long a threaded batched-decide leader waits for the batch to
    /// fill before running the round with whatever queued (wall-clock;
    /// kThreadedNetwork only — the pipelined path batches by position).
    std::chrono::microseconds batch_collect_window{1000};
  };

  explicit MultiShotDb(Options options);

  /// Executes one transaction whose id originates at `origin_shard`.
  /// Thread-safe: concurrent callers pipeline through the shard engines.
  TxnOutcome execute(int32_t origin_shard, const GeneratedTxn& writes);

  /// Deterministic pipelined batch from one driver thread: every
  /// transaction in `batch` is staged and prepared (in order) before any
  /// decision round runs, then all instances decide and apply in order.
  /// WALs interleave the batch's records exactly as a crashed concurrent
  /// run would — many in-doubt instances per shard — but reproducibly.
  std::vector<TxnOutcome> execute_pipelined(int32_t origin_shard,
                                            const std::vector<GeneratedTxn>& batch);

  /// Reads one key from one shard (thread-safe).
  [[nodiscard]] std::optional<std::string> get(int32_t shard,
                                               const std::string& key) const;

  /// Direct shard access for tests and recovery drivers. Unsynchronized —
  /// callers must be quiescent (no execute in flight).
  [[nodiscard]] KvStore& shard(int32_t index);
  [[nodiscard]] int32_t shard_count() const { return options_.shard_count; }

  [[nodiscard]] MultiShotStats stats() const;

  /// Aggregate WAL counters across every shard (thread-safe). With group
  /// commit on, records_per_flush() is the measured amortization factor.
  [[nodiscard]] WalStats wal_stats() const;

  /// Flushes every shard's pending commit group (no-op when group_commit is
  /// off or nothing is pending). The engine never flushes from a destructor
  /// — that would model a dead process writing — so callers that reopen the
  /// WALs from disk after a clean shutdown flush here first.
  void flush_wals();

 private:
  /// One transaction's staged state between the prepare and apply phases.
  struct Instance {
    TxnId txn = 0;
    std::vector<int32_t> involved;  ///< ascending shard indices
    bool all_voted_commit = false;
  };

  /// One waiting client in the threaded batched-decide queue. Stack-owned
  /// by its execute() call; a leader fills `outcome` and flips `done` under
  /// decide_mu_.
  struct DecideWaiter {
    const Instance* instance = nullptr;
    TxnOutcome outcome;
    bool done = false;
  };

  /// Allocates the next instance id originating at `origin_shard`.
  TxnId allocate_txn_id(int32_t origin_shard);
  /// Phase 1: lock + stage + durably prepare on every involved shard.
  Instance prepare_phase(TxnId txn, const GeneratedTxn& writes);
  /// Phase 2: one commit instance's decision round (all participants voted
  /// commit; lock-table aborts never reach here).
  TxnOutcome decide_phase(const Instance& instance);
  /// One decision round over `shards` (ascending), seeded by mixing
  /// `batch_id` into the engine seed — the shared core of decide_phase and
  /// the batched paths. A kThreadedNetwork round is one transport::run_fleet
  /// over a fresh InMemoryNetwork, behind the admission gate.
  TxnOutcome run_union_round(const std::vector<int32_t>& shards, TxnId batch_id);
  /// Threaded batched decide: queue the instance, let a leader fold up to
  /// decision_batch waiters into one round, return the decided-and-applied
  /// outcome. Leadership ends before the round runs, so batched rounds stay
  /// concurrent under the admission gate.
  TxnOutcome decide_batched(const Instance& instance);
  /// Runs one leader-drained batch: flush prepares, seal, one union round,
  /// apply + flush outcomes, publish to the waiters.
  void run_batch_round(const std::vector<DecideWaiter*>& members);
  /// Phase 3: apply the decision on every involved shard.
  void apply_phase(const Instance& instance, const TxnOutcome& outcome);
  /// Appends the batch seal to every shard in `shards` (buffered under
  /// group mode — a seal is a hint and never costs its own flush).
  void seal_shards(const std::vector<int32_t>& shards, TxnId batch_id,
                   const std::vector<TxnId>& members);
  /// Flushes the listed shards' pending commit groups (group_commit only).
  void flush_groups(const std::vector<int32_t>& shards);

  struct ShardEngine {
    mutable Mutex mu;
    std::unique_ptr<KvStore> store;  ///< guarded by mu while threads run
    bool group_open = false;         ///< guarded by mu, like the store
    std::atomic<int64_t> next_sequence{1};
  };

  /// Opens the shard's commit group if group_commit is on and it isn't yet
  /// (engine.mu must be held). Groups open lazily and stay open; flushes
  /// happen at the phase/round boundaries above.
  void ensure_group_open(ShardEngine& engine);

  Options options_;
  std::vector<std::unique_ptr<ShardEngine>> engines_;
  /// Admission gate for threaded decision rounds (kThreadedNetwork only).
  mutable Mutex rounds_mu_;
  CondVar rounds_cv_;
  int32_t active_rounds_ GUARDED_BY(rounds_mu_) = 0;
  /// Threaded batched-decide queue (decision_batch > 1 only).
  mutable Mutex decide_mu_;
  CondVar decide_cv_;
  std::deque<DecideWaiter*> decide_queue_ GUARDED_BY(decide_mu_);
  bool decide_leader_active_ GUARDED_BY(decide_mu_) = false;
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> aborted_{0};
  std::atomic<int64_t> conflict_aborts_{0};
  std::atomic<int64_t> in_doubt_{0};
};

}  // namespace rcommit::db
