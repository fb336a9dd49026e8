// The crash-recovery workload.
//
// Each trial writes three shard WALs through KvStore's public API that hold
// kInstances cross-shard instances left prepared but undecided, as a
// group-committing engine that died after a flush would leave them (timed:
// setup_s). The mix exercises all three of RecoveryManager's rules:
//
//   even blocks of 8   rule 3, every participant prepared, sealed as one
//                      decision batch with seal_batch
//   odd blocks of 8    2 rule-1 instances (commit recorded on one shard),
//                      2 rule-2 instances (a listed participant never
//                      prepared), 4 unsealed rule-3 instances
//
// The trial then restarts the engine over those WALs (MultiShotDb
// construction replays them) and runs RecoveryManager::resolve_all over its
// shards (timed together: recovery_s), and checks every instance's outcome.
// The traced run additionally spans the generation's kv and wal calls, each
// shard's reopen and WAL replay, survey_all, the rule-3 reruns resolve_all
// makes (replayed on the simulator with the same seeds) and resolve_all.
#include <iostream>
#include <memory>
#include <set>
#include <string>

#include "bench.h"
#include "db/multishot.h"
#include "db/recovery.h"
#include "layers.h"

namespace perfbench {
namespace {

namespace db = rcommit::db;
namespace fs = std::filesystem;

/// In-doubt instances per trial. resolve_all's cost grows faster than
/// linearly in this (it rescans in_doubt() per instance), so it is fixed.
constexpr int64_t kInstances = 1024;
constexpr int64_t kBlock = 8;

enum class Rule { kOutcomeRecorded, kNeverPrepared, kAllPrepared };

struct Instance {
  db::TxnId txn = 0;
  db::GeneratedTxn writes;
  std::vector<int32_t> involved;
  Rule rule = Rule::kAllPrepared;
  db::TxnId seal = 0;  ///< batch id when sealed, else 0
  [[nodiscard]] bool expect_commit() const { return rule != Rule::kNeverPrepared; }
};

/// The decision rounds resolve_all reruns: one per sealed batch (over the
/// union of its members' shards) and one per unsealed rule-3 instance.
struct Rerun {
  int64_t mix_id = 0;
  int32_t n = 0;
};

struct Plan {
  std::vector<Instance> instances;
  std::vector<Rerun> reruns;
  int64_t expected_commits = 0;
};

/// Draws the instances from the workload generator. A transaction that
/// reuses a key an earlier instance wrote on the same shard is skipped, so
/// every instance's expected outcome is visible in its own keys.
Plan make_plan(uint64_t seed) {
  Plan plan;
  rcommit::db::WorkloadGenerator generator(
      {.shard_count = kShards,
       .keys_per_shard = kKeysPerShard,
       .fanout = kFanout,
       .writes_per_shard = kWritesPerShard,
       .skew = 0.0},
      seed);
  std::set<std::string> used;
  while (static_cast<int64_t>(plan.instances.size()) < kInstances) {
    const db::GeneratedTxn writes = generator.next();
    std::vector<std::string> slots;
    for (const auto& [shard, shard_writes] : writes) {
      for (const auto& w : shard_writes) slots.push_back(std::to_string(shard) + "/" + w.key);
    }
    const std::set<std::string> distinct(slots.begin(), slots.end());
    bool fresh = distinct.size() == slots.size();
    for (const auto& slot : slots) fresh = fresh && used.count(slot) == 0;
    if (!fresh) continue;
    used.insert(slots.begin(), slots.end());

    const auto index = static_cast<int64_t>(plan.instances.size());
    Instance instance;
    instance.txn = db::make_txn_id(0, index + 1);
    instance.writes = writes;
    for (const auto& [shard, shard_writes] : writes) instance.involved.push_back(shard);
    const int64_t block = index / kBlock;
    const int64_t position = index % kBlock;
    if (block % 2 == 0) {
      instance.seal = db::make_txn_id(0, block * kBlock + 1);
    } else if (position < 2) {
      instance.rule = Rule::kOutcomeRecorded;
    } else if (position < 4) {
      instance.rule = Rule::kNeverPrepared;
    } else {
      plan.reruns.push_back({instance.txn, static_cast<int32_t>(instance.involved.size())});
    }
    plan.expected_commits += instance.expect_commit();
    plan.instances.push_back(std::move(instance));
  }
  for (int64_t base = 0; base < kInstances; base += 2 * kBlock) {
    std::set<int32_t> shards;
    for (int64_t i = base; i < std::min(kInstances, base + kBlock); ++i) {
      const auto& involved = plan.instances[static_cast<size_t>(i)].involved;
      shards.insert(involved.begin(), involved.end());
    }
    plan.reruns.push_back({plan.instances[static_cast<size_t>(base)].txn,
                           static_cast<int32_t>(shards.size())});
  }
  return plan;
}

fs::path wal_path(const fs::path& dir, int32_t shard) {
  return dir / ("shard-" + std::to_string(shard) + ".wal");
}

/// Spans of the traced run (one thread) and the counts beside them.
struct Tracer {
  explicit Tracer(Clock::time_point origin) : log(origin) {}
  SpanLog log;
  LayerCounts counts;
};

/// Writes the plan's WALs and returns their WAL counters. With a tracer,
/// each kv and wal call is one span.
db::WalStats write_wals(const Plan& plan, const fs::path& dir, Tracer* tracer,
                        int64_t trial) {
  fs::create_directories(dir);
  std::vector<std::unique_ptr<db::KvStore>> stores;
  for (int32_t s = 0; s < kShards; ++s) {
    stores.push_back(std::make_unique<db::KvStore>(wal_path(dir, s)));
    stores.back()->wal_begin_group();
  }
  const auto call = [&](SpanName name, db::TxnId id, auto&& body) {
    if (tracer != nullptr) return tracer->log.record(name, -1, id, body);
    return body();
  };
  for (int64_t base = 0; base < kInstances; base += kBlock) {
    std::set<int32_t> block_shards;
    std::vector<db::TxnId> block_ids;
    for (int64_t i = base; i < std::min(kInstances, base + kBlock); ++i) {
      const Instance& instance = plan.instances[static_cast<size_t>(i)];
      const size_t prepared =
          instance.rule == Rule::kNeverPrepared ? 1 : instance.involved.size();
      for (size_t p = 0; p < prepared; ++p) {
        const int32_t shard = instance.involved[p];
        if (tracer != nullptr) ++tracer->counts.prepares;
        const bool ok = call(SpanName::kKvPrepare, instance.txn, [&] {
          return stores[static_cast<size_t>(shard)]->prepare(
              instance.txn, instance.writes.at(shard), instance.involved);
        });
        if (!ok) throw std::runtime_error("crash-recovery: a generation prepare was refused");
      }
      if (instance.rule == Rule::kOutcomeRecorded) {
        call(SpanName::kKvCommit, instance.txn, [&] {
          stores[static_cast<size_t>(instance.involved.front())]->commit(instance.txn);
          return true;
        });
      }
      block_shards.insert(instance.involved.begin(), instance.involved.end());
      block_ids.push_back(instance.txn);
    }
    const db::TxnId seal = plan.instances[static_cast<size_t>(base)].seal;
    if (seal != 0) {
      for (const int32_t shard : block_shards) {
        call(SpanName::kWalSeal, seal, [&] {
          stores[static_cast<size_t>(shard)]->seal_batch(seal, block_ids);
          return true;
        });
      }
    }
    for (auto& store : stores) {
      call(SpanName::kWalFlush, trial, [&] {
        store->wal_commit_group();
        return true;
      });
    }
  }
  db::WalStats total;
  for (const auto& store : stores) accumulate(total, store->wal_stats());
  return total;  // the stores die here with every group flushed: the crash
}

struct Trials {
  std::vector<double> setup_s, recovery_s;
  std::vector<double> cpu_s;  ///< process CPU of each restart + resolve
  int64_t instances = 0;
  int64_t resolved_commits = 0;
  int64_t failed = 0;
  // Traced trials only.
  std::vector<double> reopen_s, survey_s, resolve_s, recovery_self_s, reruns,
      restart_resolve_s;
  double engine_restart_us = 0.0;
  double reopen_us = 0.0;
  double replay_bytes = 0.0;
  db::WalStats wal;
};

/// Checks every instance's outcome on every shard it involves, that no
/// shard holds an in-doubt instance or a lock, and that resolving again
/// changes nothing. Returns the number of instances with a wrong outcome.
int64_t check_trial(const Plan& plan, db::MultiShotDb& engine,
                    db::RecoveryManager& recovery, const db::RecoveryReport& report,
                    Result& result) {
  int64_t wrong = 0;
  for (const Instance& instance : plan.instances) {
    bool ok = true;
    for (const auto& [shard, writes] : instance.writes) {
      for (const auto& w : writes) {
        const auto value = engine.get(shard, w.key);
        ok = ok && (instance.expect_commit() ? value == w.value : !value.has_value());
      }
    }
    wrong += !ok;
  }
  if (wrong > 0) {
    result.violation("recovery: " + std::to_string(wrong) +
                     " instances lack their expected outcome on some shard");
  }
  if (report.resolved_commit != plan.expected_commits ||
      report.resolved_commit + report.resolved_abort != kInstances) {
    result.violation("recovery: resolved " + std::to_string(report.resolved_commit) +
                     " commits and " + std::to_string(report.resolved_abort) +
                     " aborts, expected " + std::to_string(plan.expected_commits) +
                     " of " + std::to_string(kInstances) + " instances");
  }
  for (int32_t s = 0; s < kShards; ++s) {
    if (!engine.shard(s).in_doubt().empty() || engine.shard(s).locks().locked_count() != 0) {
      result.violation("recovery: shard " + std::to_string(s) +
                       " still holds in-doubt instances or locks");
    }
  }
  if (recovery.resolve_all() != db::RecoveryReport{}) {
    result.violation("recovery: a second resolve_all was not a no-op");
  }
  return wrong;
}

void run_trial(const Plan& plan, uint64_t seed, const fs::path& dir, Trials& trials,
               Result& result, Tracer* tracer) {
  const auto trial = static_cast<int64_t>(trials.setup_s.size());
  fs::remove_all(dir);
  const auto setup_start = Clock::now();
  const db::WalStats wal = write_wals(plan, dir, tracer, trial);
  trials.setup_s.push_back(seconds_between(setup_start, Clock::now()));

  // The restart: the engine reopens its WALs, recovery resolves what they
  // left in doubt.
  const double cpu_start = process_cpu_seconds();
  const auto restart_start = Clock::now();
  db::MultiShotDb::Options options;
  options.shard_count = kShards;
  options.data_dir = dir;
  options.seed = seed;
  std::unique_ptr<db::MultiShotDb> engine;
  double restart_us = 0.0;
  if (tracer != nullptr) {
    const int32_t span = tracer->log.open(SpanName::kEngineCall, -1, trial);
    engine = std::make_unique<db::MultiShotDb>(options);
    restart_us = tracer->log.close(span);
  } else {
    engine = std::make_unique<db::MultiShotDb>(options);
  }
  std::vector<db::KvStore*> stores;
  for (int32_t s = 0; s < kShards; ++s) {
    if (engine->shard(s).wal().path() != wal_path(dir, s)) {
      throw std::runtime_error("crash-recovery: the engine's WAL layout changed");
    }
    stores.push_back(&engine->shard(s));
  }
  db::RecoveryManager recovery(stores, {.seed = seed});
  db::RecoveryReport report;
  if (tracer != nullptr) {
    accumulate(trials.wal, wal);
    // The engine's layers during the restart: one reopen per shard, each a
    // WAL scan plus replay. Replayed after the restart, while the engine is
    // alive, so both allocate into an equally warm heap.
    double reopen_us = 0.0;
    for (int32_t s = 0; s < kShards; ++s) {
      const fs::path path = wal_path(dir, s);
      const int32_t reopen = tracer->log.open(SpanName::kRecoveryReopen, -1, trial);
      { db::KvStore reopened(path); }
      reopen_us += tracer->log.close(reopen);
      trials.replay_bytes += static_cast<double>(fs::file_size(path));
      tracer->log.record(SpanName::kWalReplay, -1, trial,
                         [&] { return db::WriteAheadLog(path).replay(); });
    }
    const int32_t survey = tracer->log.open(SpanName::kRecoverySurvey, -1, trial);
    (void)recovery.survey_all();
    const double survey_us = tracer->log.close(survey);
    double rerun_us = 0.0;
    for (const Rerun& rerun : plan.reruns) {
      const int32_t parent = tracer->log.open(SpanName::kReplay, -1, rerun.mix_id);
      traced_sim_round(tracer->log, parent, rerun.mix_id, rerun.n,
                       round_seed(seed, rerun.mix_id), tracer->counts);
      rerun_us += tracer->log.close(parent);
    }
    const int32_t resolve = tracer->log.open(SpanName::kRecoveryResolve, -1, trial);
    report = recovery.resolve_all();
    const double resolve_us = tracer->log.close(resolve);
    trials.reopen_s.push_back(reopen_us / 1e6);
    trials.survey_s.push_back(survey_us / 1e6);
    trials.resolve_s.push_back(resolve_us / 1e6);
    // resolve_all = its own survey + its reruns + the rest (classification
    // and applying outcomes).
    trials.recovery_self_s.push_back((resolve_us - survey_us - rerun_us) / 1e6);
    trials.reruns.push_back(static_cast<double>(report.reran_protocol));
    trials.restart_resolve_s.push_back((restart_us + resolve_us) / 1e6);
    trials.engine_restart_us += restart_us;
    trials.reopen_us += reopen_us;
  } else {
    report = recovery.resolve_all();
    trials.recovery_s.push_back(seconds_between(restart_start, Clock::now()));
    trials.cpu_s.push_back(process_cpu_seconds() - cpu_start);
  }

  trials.instances += kInstances;
  trials.resolved_commits += report.resolved_commit;
  trials.failed += check_trial(plan, *engine, recovery, report, result);
}

}  // namespace

Result run_crash_recovery(const Args& args) {
  Result result;
  const Plan plan = make_plan(args.seed);
  const fs::path dir = args.work_dir / "crash-recovery";
  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };

  Trials untraced;
  const double untraced_until = args.trace ? args.seconds / 3.0 : args.seconds;
  do {
    run_trial(plan, args.seed, dir, untraced, result, nullptr);
  } while (elapsed() < untraced_until);

  if (!args.trace) {
    // Every trial resolves the same plan, so per-trial rates are the
    // trial's figures over the plan's commits; the run reports medians.
    const auto commits = static_cast<double>(plan.expected_commits);
    std::vector<double> txn_per_s, recovery_ms, cpu_us_per_txn;
    for (size_t i = 0; i < untraced.recovery_s.size(); ++i) {
      txn_per_s.push_back(commits / untraced.recovery_s[i]);
      recovery_ms.push_back(untraced.recovery_s[i] * 1e3);
      cpu_us_per_txn.push_back(untraced.cpu_s[i] * 1e6 / commits);
    }
    result.attempted = untraced.instances;
    result.failed = untraced.failed;
    result.set("committed_txn_per_s", median(txn_per_s), "1/s");
    result.set("commit_latency_p50_ms", quantile(recovery_ms, 0.50), "ms");
    result.set("commit_ratio",
               static_cast<double>(untraced.resolved_commits) /
                   static_cast<double>(untraced.instances),
               "ratio");
    result.set("cpu_us_per_txn", median(cpu_us_per_txn), "us");
    result.set("recovery_s", median(untraced.recovery_s), "s");
    result.set("setup_s", median(untraced.setup_s), "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    Trials traced;
    Tracer tracer(start);
    do {
      run_trial(plan, args.seed, dir, traced, result, &tracer);
    } while (elapsed() < args.seconds);
    const std::vector<const SpanLog*> logs = {&tracer.log};
    const LayerCounts& c = tracer.counts;
    const auto instances = static_cast<double>(traced.instances);

    result.attempted = untraced.instances + traced.instances;
    result.failed = untraced.failed + traced.failed;
    result.set("kv.prepare_us", median(durations_us(logs, SpanName::kKvPrepare)), "us");
    result.set("kv.commit_us", median(durations_us(logs, SpanName::kKvCommit)), "us");
    result.set("kv.conflict_ratio", 0.0, "ratio");  // generation prepares never conflict
    result.set("wal.flushes_per_txn", static_cast<double>(traced.wal.flushes) / instances, "count");
    result.set("wal.bytes_per_txn", static_cast<double>(traced.wal.bytes_written) / instances, "B");
    result.set("wal.records_per_flush", traced.wal.records_per_flush(), "count");
    result.set("wal.flush_us", median(durations_us(logs, SpanName::kWalFlush)), "us");
    result.set("wal.replay_mb_per_s",
               traced.replay_bytes / total_us(logs, {SpanName::kWalReplay}), "MB/s");
    result.set("protocol.round_us", median(durations_us(logs, SpanName::kProtocolRound)), "us");
    result.set("protocol.rounds_per_txn", static_cast<double>(c.rounds) / instances, "count");
    result.set("protocol.events_per_round",
               static_cast<double>(c.events) / static_cast<double>(c.rounds), "count");
    result.set("protocol.messages_per_round",
               static_cast<double>(c.messages) / static_cast<double>(c.rounds), "count");
    // The engine's part of the restart is MultiShotDb construction; its
    // layers are the shard reopens.
    result.set("engine.self_us_per_txn",
               (traced.engine_restart_us - traced.reopen_us) / instances, "us");
    result.set("engine.layer_coverage", traced.reopen_us / traced.engine_restart_us, "ratio");
    // The untraced trials' tail: restart + resolve, as recovery_s.
    result.set("engine.call_p99_ms", quantile(untraced.recovery_s, 0.99) * 1e3, "ms");
    result.set("recovery.reopen_s", median(traced.reopen_s), "s");
    result.set("recovery.survey_s", median(traced.survey_s), "s");
    result.set("recovery.resolve_s", median(traced.resolve_s), "s");
    result.set("recovery.self_s", median(traced.recovery_self_s), "s");
    result.set("recovery.reruns", median(traced.reruns), "count");
    result.set("trace.overhead_ratio",
               median(traced.restart_resolve_s) / median(untraced.recovery_s), "ratio");
    write_spans(args.work_dir / "spans" / "crash-recovery.csv", logs);
  }
  fs::remove_all(dir);
  std::cerr << "crash-recovery: " << result.attempted << " instances, "
            << untraced.setup_s.size() << " untraced trials\n";
  return result;
}

}  // namespace perfbench
