// Commit-decision building blocks for the sharded database.
//
// The paper's motivating setting made concrete: a transaction touches several
// shards; each shard stages and durably prepares its writes (its vote), and
// the shards then reach a common commit/abort decision by running a commit
// protocol — the paper's Protocol 2 by default, or a 2PC/3PC baseline for
// comparison. This header holds what every path to that decision shares:
// the backend choice, participant construction, round seeding, and the
// deterministic simulated round. MultiShotDb (db/multishot.h) is the engine
// that runs them; RecoveryManager reruns the same rounds.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "db/kv.h"
#include "protocol/commit.h"

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
/// Shared by MultiShotDb's decision rounds and RecoveryManager's reruns;
/// baselines derive their timeout as 8K.
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

}  // namespace rcommit::db
