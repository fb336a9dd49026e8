// Recovery-equivalence torture: crash the database at a chosen WAL append,
// recover, and check the survivors against a reference state machine.
//
// One checker and one engine, db::MultiShotDb, under two workloads
// (TortureOptions::workload):
//
//   * SerialWorkload is one client calling execute() one transaction at a
//     time with threaded-network decision rounds, so at most one transaction
//     is in flight at a crash;
//   * PipelinedWorkload drives execute_pipelined with
//     simulated decision rounds: each batch stages and prepares many
//     instances before any of them decides, so a crash leaves *many*
//     transactions in doubt per shard — the WAL-state space the batch
//     recovery scan (RecoveryManager::survey_all) exists for. Its
//     group_commit / decision_batch knobs move the site space to the
//     group-flush boundaries and put kBatchSeal records in the logs.
//
// The reference is the committed prefix: a transaction's writes belong in
// the final state iff the transaction committed — where "committed" after a
// crash means what RecoveryManager derives from the WALs. The checker
// asserts, for every crash point (SQLite crash-test style: enumerate the
// sites, then sweep site × fault kind exhaustively):
//
//   * no transaction remains in doubt after resolve_all();
//   * shards never disagree on a transaction's outcome;
//   * an outcome the client observed before the crash survives it
//     (observed commit => durable commit, observed abort => no commit);
//   * a committed transaction is installed on *every* intended participant
//     (the paper's §1 "at all processors or at no processor");
//   * each shard's recovered state equals the reference's committed-prefix
//     state, applied in execution order, key for key.
//
// Everything is a pure function of (TortureOptions, FaultPlan) — both
// drivers append in a deterministic order (one transaction at a time, or one
// pipeline driver thread), so site numbering is stable and the sweep is
// reproducible from (seed, site) alone, which the faultkit replay test
// verifies.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "db/recovery.h"
#include "faultinject/injector.h"
#include "faultinject/plan.h"
#include "swarm/shrink.h"

namespace rcommit::faultinject {

/// One MultiShotDb client at origin 0: `txns` transactions after the hot
/// prepare, each decided over a threaded commit-fleet network before the
/// next starts.
struct SerialWorkload {
  int32_t txns = 4;
  /// Commit-fleet network timing (kept tight: the sweep runs many points).
  std::chrono::microseconds min_delay{10};
  std::chrono::microseconds max_delay{80};
  std::chrono::milliseconds txn_timeout{5000};
};

/// MultiShotDb::execute_pipelined: `batches` batches of `batch_size`
/// in-flight instances, rotating the origin shard per batch, decided on the
/// deterministic simulator seeded by (seed, txn id) — the exact rerun
/// RecoveryManager performs.
struct PipelinedWorkload {
  int32_t batches = 3;
  int32_t batch_size = 8;
  /// Group-commit WAL mode: appends coalesce per shard and injection sites
  /// move to the group-flush boundaries (crash-before = the whole buffered
  /// group lost between the last batched append and its flush, torn = a
  /// mid-group torn tail). Off keeps the per-append site space — committed
  /// corpus entries predate the knob and replay identically.
  bool group_commit = false;
  /// Prepared instances decided per protocol round (kBatchSeal recovery
  /// batches appear in the WALs when > 1).
  int32_t decision_batch = 1;
  Tick k = 25;  ///< Protocol 2's K for the decision rounds and recovery reruns
  int64_t max_events = 200'000;
};

struct TortureOptions {
  int32_t shard_count = 3;
  int32_t fanout = 2;          ///< shards per transaction
  int32_t keys_per_shard = 4;  ///< small pool => real lock conflicts
  uint64_t seed = 1;
  /// Scratch directory for the WALs; wiped and recreated per run.
  std::filesystem::path scratch_dir;
  std::variant<SerialWorkload, PipelinedWorkload> workload;

  /// Key=value form (scratch_dir excluded); round-trips via deserialize,
  /// which selects PipelinedWorkload iff the text has a `batches=` line.
  [[nodiscard]] std::string serialize() const;
  static TortureOptions deserialize(const std::string& text);
};

/// One crash point's verdict. `errors` empty means recovery was equivalent
/// to the reference; every field participates in replay-identity checks.
struct CrashPointResult {
  bool crashed = false;
  int64_t crash_site = -1;     ///< site the crash fired at; -1 = no crash
  int64_t sites_seen = 0;      ///< WAL sites reached during the run
  db::RecoveryReport report;
  int64_t committed_txns = 0;  ///< transactions committed per the WALs
  uint64_t digest = 0;         ///< crc32c over every shard's recovered state
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
  bool operator==(const CrashPointResult&) const = default;

  [[nodiscard]] std::string serialize() const;
  static CrashPointResult deserialize(const std::string& text);
};

/// Runs workload + crash + recovery + equivalence check for one plan.
[[nodiscard]] CrashPointResult run_crash_point(const TortureOptions& options,
                                               const FaultPlan& plan);

/// Dry run under the empty plan: the reachable WAL injection sites across
/// every shard's log, in append order, with what each one turned out to be.
[[nodiscard]] std::vector<SiteInfo> enumerate_sites(const TortureOptions& options);

struct SweepOptions {
  /// Fault kinds applied at every site. Defaults to the full WAL repertoire.
  std::vector<FaultKind> kinds = {FaultKind::kCrashBefore, FaultKind::kTornWrite,
                                  FaultKind::kPartialFlush, FaultKind::kDuplicate,
                                  FaultKind::kCrashAfter};
  int threads = 1;        ///< >1: crash points run on a WorkStealingPool
  int64_t max_sites = -1; ///< cap on swept sites; -1 = every reachable site
};

struct SweepFailure {
  FaultPlan plan;
  CrashPointResult result;
};

struct SweepResult {
  int64_t sites = 0;         ///< reachable sites in the workload
  int64_t crash_points = 0;  ///< (site, kind) pairs executed
  std::vector<SweepFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Exhaustive (site × kind) sweep. Deterministic regardless of threads:
/// results are folded in enumeration order.
[[nodiscard]] SweepResult run_wal_sweep(const TortureOptions& options,
                                        const SweepOptions& sweep);

/// Shrinks a failing plan to a locally-minimal still-failing action subset
/// via swarm::ddmin_keep (the fault-plan axis of the swarm's shrinker).
[[nodiscard]] FaultPlan shrink_fault_plan(const TortureOptions& options,
                                          const FaultPlan& plan,
                                          const swarm::ShrinkOptions& shrink = {},
                                          int* evals = nullptr);

// --- artifacts ---------------------------------------------------------------
//
//   <dir>/config.txt   TortureOptions (key=value; a `batches=` line marks
//                      the pipelined workload)
//   <dir>/plan.txt     FaultPlan (the crash schedule; shrunk when from the
//                      sweep's failure path)
//   <dir>/report.txt   expected CrashPointResult (replay must match exactly)
//   <dir>/README.txt   one-command reproduction recipe
//
// Reproduce with:  faultkit --artifact=<dir>
// The same format doubles as the regression corpora under
// tests/corpus_fault/ (serial) and tests/corpus_multishot/ (pipelined).

struct FaultArtifact {
  TortureOptions options;
  FaultPlan plan;
  CrashPointResult expected;
};

/// Writes the artifact directory, creating it as needed.
void write_fault_artifact(const std::filesystem::path& dir,
                          const FaultArtifact& artifact);

/// Loads an artifact directory of either workload. Throws CheckFailure on
/// missing/malformed files. The loaded options carry an empty scratch_dir;
/// callers supply one.
[[nodiscard]] FaultArtifact load_fault_artifact(const std::filesystem::path& dir);

}  // namespace rcommit::faultinject
