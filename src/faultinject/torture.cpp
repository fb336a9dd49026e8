#include "faultinject/torture.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/multishot.h"
#include "db/workload.h"
#include "swarm/pool.h"

namespace rcommit::faultinject {

namespace fs = std::filesystem;

namespace {

/// What the client observed for one transaction before the crash.
enum class Observed {
  kCommitted,
  kAborted,
  kInDoubt,  ///< in flight at the crash, or the protocol left it undecided
};

struct TxnRef {
  db::GeneratedTxn writes;
  Observed observed = Observed::kInDoubt;
};

/// The reference model a workload driver builds as it runs: every
/// transaction it started, and the order their writes take effect in.
struct Reference {
  std::map<db::TxnId, TxnRef> txns;
  std::vector<db::TxnId> execution_order;

  /// Records `id` as started; it stays in doubt until an outcome is observed.
  TxnRef& start(db::TxnId id, db::GeneratedTxn writes) {
    execution_order.push_back(id);
    TxnRef& ref = txns[id];
    ref.writes = std::move(writes);
    return ref;
  }
};

void observe(TxnRef& ref, const db::TxnOutcome& outcome) {
  if (!outcome.decided) return;
  ref.observed = outcome.decision == Decision::kCommit ? Observed::kCommitted
                                                       : Observed::kAborted;
}

/// The pre-held in-doubt transaction on shard 0. Its id is past every id the
/// workload allocates (the pipelined one's origin field sits past every real
/// shard), so recovery, working in ascending id order, resolves it last.
db::TxnId hot_txn(const TortureOptions& options) {
  return std::holds_alternative<SerialWorkload>(options.workload)
             ? db::TxnId{1'000'000}
             : db::make_txn_id(options.shard_count, 1);
}

/// Prepares the hot transaction: it keeps the "hot" key locked for the whole
/// run, so workload transactions that touch it vote abort (exercising the
/// abort-validity path), and recovery must resolve it alongside whatever the
/// crash leaves behind.
void hold_hot_key(const TortureOptions& options, db::MultiShotDb& database,
                  Reference& ref) {
  const db::TxnId hot = hot_txn(options);
  ref.txns[hot].writes = {{0, {{"hot", "held"}}}};
  RCOMMIT_CHECK(database.shard(0).prepare(hot, {{"hot", "held"}}, {0}));
}

db::WorkloadGenerator make_generator(const TortureOptions& options) {
  return db::WorkloadGenerator({.shard_count = options.shard_count,
                                .keys_per_shard = options.keys_per_shard,
                                .fanout = options.fanout,
                                .writes_per_shard = 1,
                                .skew = 0.0},
                               options.seed);
}

/// The engine options both workloads share: a fresh engine in the scratch
/// directory with `injector` on every shard's WAL.
db::MultiShotDb::Options engine_options(const TortureOptions& options,
                                        FaultInjector& injector) {
  db::MultiShotDb::Options mopts;
  mopts.shard_count = options.shard_count;
  mopts.data_dir = options.scratch_dir;
  mopts.seed = options.seed;
  mopts.wal_fault_hook = &injector;
  return mopts;
}

void drive(const TortureOptions& options, const SerialWorkload& serial,
           FaultInjector& injector, Reference& ref) {
  db::MultiShotDb::Options mopts = engine_options(options, injector);
  mopts.decision_transport = db::DecisionTransport::kThreadedNetwork;
  mopts.network = {.min_delay = serial.min_delay, .max_delay = serial.max_delay};
  mopts.txn_timeout = serial.txn_timeout;
  db::MultiShotDb database(mopts);
  hold_hot_key(options, database, ref);
  db::WorkloadGenerator generator = make_generator(options);
  for (int32_t i = 0; i < serial.txns; ++i) {
    db::GeneratedTxn writes = generator.next();
    // Every third transaction contends on the held hot key.
    if (i % 3 == 1) writes[0] = {{"hot", "steal-" + std::to_string(i)}};
    // One client at origin 0: the engine allocates sequences 1, 2, ...
    TxnRef& txn = ref.start(db::make_txn_id(0, i + 1), writes);
    observe(txn, database.execute(0, writes));
  }
}

void drive(const TortureOptions& options, const PipelinedWorkload& pipelined,
           FaultInjector& injector, Reference& ref) {
  db::MultiShotDb::Options mopts = engine_options(options, injector);
  mopts.decision_transport = db::DecisionTransport::kSimulator;
  mopts.k = pipelined.k;
  mopts.max_events = pipelined.max_events;
  mopts.group_commit = pipelined.group_commit;
  mopts.decision_batch = pipelined.decision_batch;
  db::MultiShotDb database(mopts);
  hold_hot_key(options, database, ref);
  db::WorkloadGenerator generator = make_generator(options);
  // Mirror the engine's id allocation (per-origin sequences from 1) so the
  // reference knows each instance's id before the batch runs — instances
  // past a mid-batch crash simply never appear in any WAL.
  std::vector<int64_t> next_sequence(static_cast<size_t>(options.shard_count), 1);
  for (int32_t b = 0; b < pipelined.batches; ++b) {
    const int32_t origin = b % options.shard_count;
    std::vector<db::GeneratedTxn> batch;
    std::vector<TxnRef*> refs;
    for (int32_t i = 0; i < pipelined.batch_size; ++i) {
      db::GeneratedTxn writes = generator.next();
      // Every third instance contends on the held hot key.
      if (i % 3 == 1) {
        writes[0] = {{"hot", "steal-" + std::to_string(b) + "-" +
                                 std::to_string(i)}};
      }
      const db::TxnId id =
          db::make_txn_id(origin, next_sequence[static_cast<size_t>(origin)]++);
      refs.push_back(&ref.start(id, writes));
      batch.push_back(std::move(writes));
    }
    const auto outcomes = database.execute_pipelined(origin, batch);
    for (size_t i = 0; i < outcomes.size(); ++i) observe(*refs[i], outcomes[i]);
  }
}

/// Runs the selected workload against a fresh database in
/// `options.scratch_dir` with `injector` installed on every shard's WAL.
/// Returns the reference model; sets `crashed`/`crash_site` if the plan
/// fired a crash.
Reference run_workload(const TortureOptions& options, FaultInjector& injector,
                       bool& crashed, int64_t& crash_site) {
  RCOMMIT_CHECK_MSG(!options.scratch_dir.empty(), "scratch_dir is required");
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);
  Reference ref;
  try {
    std::visit([&](const auto& workload) { drive(options, workload, injector, ref); },
               options.workload);
  } catch (const db::CrashInjected& crash) {
    crashed = true;
    crash_site = crash.site();
  }
  ref.execution_order.push_back(hot_txn(options));
  return ref;
}

/// Recovery reruns use the pipelined workload's protocol parameters, which
/// its live decision rounds used too; the serial workload recovers with the
/// RecoveryManager defaults.
db::RecoveryManager::Options recovery_options(const TortureOptions& options) {
  db::RecoveryManager::Options out{.seed = options.seed ^ 0x5ec0feULL};
  if (const auto* pipelined = std::get_if<PipelinedWorkload>(&options.workload)) {
    out.k = pipelined->k;
    out.max_events = pipelined->max_events;
  }
  return out;
}

uint64_t state_digest(const std::vector<std::unique_ptr<db::KvStore>>& stores) {
  BufWriter w;
  for (size_t i = 0; i < stores.size(); ++i) {
    w.u32(static_cast<uint32_t>(i));
    const auto snapshot = stores[i]->snapshot();
    w.varint(snapshot.size());
    for (const auto& [key, value] : snapshot) {
      w.str(key);
      w.str(value);
    }
  }
  return crc32c(std::span<const uint8_t>(w.data()));
}

std::string txn_error(db::TxnId txn, const std::string& what) {
  return "txn " + std::to_string(txn) + ": " + what;
}

/// Calls `apply(key, value)` for every `key=value` line of `text`, skipping
/// blank lines and `#` comments. `what` names the file in errors.
template <typename Apply>
void for_each_entry(const std::string& text, const char* what, Apply&& apply) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    RCOMMIT_CHECK_MSG(eq != std::string::npos,
                      "malformed " << what << " line: " << line);
    apply(line.substr(0, eq), line.substr(eq + 1));
  }
}

}  // namespace

std::string TortureOptions::serialize() const {
  std::ostringstream out;
  const auto put = [&out](const char* key, const auto& value) {
    out << key << "=" << value << "\n";
  };
  // Each workload keeps the key order its committed corpus entries use.
  put("shard_count", shard_count);
  if (const auto* serial = std::get_if<SerialWorkload>(&workload)) {
    put("txns", serial->txns);
    put("fanout", fanout);
    put("keys_per_shard", keys_per_shard);
    put("seed", seed);
    put("min_delay_us", serial->min_delay.count());
    put("max_delay_us", serial->max_delay.count());
    put("txn_timeout_ms", serial->txn_timeout.count());
  } else {
    const auto& pipelined = std::get<PipelinedWorkload>(workload);
    put("batches", pipelined.batches);
    put("batch_size", pipelined.batch_size);
    put("fanout", fanout);
    put("keys_per_shard", keys_per_shard);
    put("group_commit", pipelined.group_commit ? 1 : 0);
    put("decision_batch", pipelined.decision_batch);
    put("seed", seed);
    put("k", pipelined.k);
    put("max_events", pipelined.max_events);
  }
  return out.str();
}

TortureOptions TortureOptions::deserialize(const std::string& text) {
  TortureOptions options;
  for_each_entry(text, "config", [&](const std::string& key, const std::string&) {
    if (key == "batches") options.workload = PipelinedWorkload{};
  });
  auto* serial = std::get_if<SerialWorkload>(&options.workload);
  auto* pipelined = std::get_if<PipelinedWorkload>(&options.workload);
  const auto i32 = [](const std::string& value) {
    return static_cast<int32_t>(std::stol(value));
  };
  for_each_entry(text, "config", [&](const std::string& key, const std::string& value) {
    if (key == "shard_count") options.shard_count = i32(value);
    else if (key == "fanout") options.fanout = i32(value);
    else if (key == "keys_per_shard") options.keys_per_shard = i32(value);
    else if (key == "seed") options.seed = std::stoull(value);
    else if (serial && key == "txns") serial->txns = i32(value);
    else if (serial && key == "min_delay_us") serial->min_delay = std::chrono::microseconds(std::stoll(value));
    else if (serial && key == "max_delay_us") serial->max_delay = std::chrono::microseconds(std::stoll(value));
    else if (serial && key == "txn_timeout_ms") serial->txn_timeout = std::chrono::milliseconds(std::stoll(value));
    else if (pipelined && key == "batches") pipelined->batches = i32(value);
    else if (pipelined && key == "batch_size") pipelined->batch_size = i32(value);
    // Absent keys keep their defaults (off), which is how corpus entries
    // written before the group-commit knobs replay unchanged.
    else if (pipelined && key == "group_commit") pipelined->group_commit = std::stol(value) != 0;
    else if (pipelined && key == "decision_batch") pipelined->decision_batch = i32(value);
    else if (pipelined && key == "k") pipelined->k = std::stoll(value);
    else if (pipelined && key == "max_events") pipelined->max_events = std::stoll(value);
    else RCOMMIT_CHECK_MSG(false, "unknown config key '" << key << "'");
  });
  return options;
}

std::string CrashPointResult::serialize() const {
  std::ostringstream out;
  out << "crashed=" << (crashed ? 1 : 0) << "\n"
      << "crash_site=" << crash_site << "\n"
      << "sites_seen=" << sites_seen << "\n"
      << "resolved_commit=" << report.resolved_commit << "\n"
      << "resolved_abort=" << report.resolved_abort << "\n"
      << "reran_protocol=" << report.reran_protocol << "\n"
      << "committed_txns=" << committed_txns << "\n"
      << "digest=" << digest << "\n";
  for (const auto& error : errors) out << "error=" << error << "\n";
  return out.str();
}

CrashPointResult CrashPointResult::deserialize(const std::string& text) {
  CrashPointResult result;
  for_each_entry(text, "report", [&](const std::string& key, const std::string& value) {
    if (key == "crashed") result.crashed = value == "1";
    else if (key == "crash_site") result.crash_site = std::stoll(value);
    else if (key == "sites_seen") result.sites_seen = std::stoll(value);
    else if (key == "resolved_commit") result.report.resolved_commit = std::stoll(value);
    else if (key == "resolved_abort") result.report.resolved_abort = std::stoll(value);
    else if (key == "reran_protocol") result.report.reran_protocol = std::stoll(value);
    else if (key == "committed_txns") result.committed_txns = std::stoll(value);
    else if (key == "digest") result.digest = std::stoull(value);
    else if (key == "error") result.errors.push_back(value);
    else RCOMMIT_CHECK_MSG(false, "unknown report key '" << key << "'");
  });
  return result;
}

CrashPointResult run_crash_point(const TortureOptions& options,
                                 const FaultPlan& plan) {
  CrashPointResult result;
  FaultInjector injector(plan);
  const Reference reference =
      run_workload(options, injector, result.crashed, result.crash_site);
  result.sites_seen = injector.sites_seen();

  // The process is dead; only the WALs remain. Reopen every shard from disk
  // (no fault hook — recovery itself runs on healthy storage) and resolve
  // the whole in-doubt space.
  std::vector<std::unique_ptr<db::KvStore>> stores;
  std::vector<db::KvStore*> ptrs;
  for (int32_t i = 0; i < options.shard_count; ++i) {
    stores.push_back(std::make_unique<db::KvStore>(
        options.scratch_dir / ("shard-" + std::to_string(i) + ".wal")));
    ptrs.push_back(stores.back().get());
  }
  db::RecoveryManager recovery(ptrs, recovery_options(options));
  result.report = recovery.resolve_all();

  for (int32_t i = 0; i < options.shard_count; ++i) {
    if (!stores[static_cast<size_t>(i)]->in_doubt().empty()) {
      result.errors.push_back("shard " + std::to_string(i) +
                              " still holds in-doubt transactions after recovery");
    }
  }

  // Final outcome of every transaction the reference knows about, per the
  // recovered WALs (one batch survey, not a rescan per transaction); check
  // it against what the client observed.
  const db::BatchSurvey survey = recovery.survey_all();
  std::set<db::TxnId> committed;
  for (const auto& [txn, ref] : reference.txns) {
    bool any_commit = false;
    bool any_abort = false;
    for (int32_t shard = 0; shard < options.shard_count; ++shard) {
      const auto status = survey.status(shard, txn);
      any_commit |= status == db::ShardTxnStatus::kCommitted;
      any_abort |= status == db::ShardTxnStatus::kAborted;
    }
    if (any_commit && any_abort) {
      result.errors.push_back(txn_error(txn, "shards disagree on the outcome"));
    }
    if (ref.observed == Observed::kCommitted && !any_commit) {
      result.errors.push_back(
          txn_error(txn, "client-observed commit lost by recovery"));
    }
    if (ref.observed == Observed::kAborted && any_commit) {
      result.errors.push_back(
          txn_error(txn, "client-observed abort resurrected as commit"));
    }
    if (!any_commit) continue;
    committed.insert(txn);
    ++result.committed_txns;
    // Atomicity: the whole intended participant set installed it.
    for (const auto& [shard, writes] : ref.writes) {
      (void)writes;
      if (survey.status(shard, txn) != db::ShardTxnStatus::kCommitted) {
        result.errors.push_back(txn_error(
            txn, "committed on some shards but not installed on shard " +
                     std::to_string(shard)));
      }
    }
  }

  // Reference state: committed transactions' writes, applied in execution
  // order. Transactions in flight together never commit overlapping keys
  // (the no-wait lock table forces the later prepare to vote abort, and the
  // hot lock does the same for its competitors), so recovery's ascending-id
  // resolution of the crash's leftovers agrees with this order.
  std::vector<std::map<std::string, std::string>> expected(
      static_cast<size_t>(options.shard_count));
  for (const db::TxnId txn : reference.execution_order) {
    if (!committed.contains(txn)) continue;
    for (const auto& [shard, writes] : reference.txns.at(txn).writes) {
      for (const auto& write : writes) {
        expected[static_cast<size_t>(shard)][write.key] = write.value;
      }
    }
  }
  for (int32_t i = 0; i < options.shard_count; ++i) {
    const auto actual = stores[static_cast<size_t>(i)]->snapshot();
    const auto& want = expected[static_cast<size_t>(i)];
    if (actual == want) continue;
    std::string detail = "shard " + std::to_string(i) +
                         " state diverges from the committed-prefix reference (" +
                         std::to_string(actual.size()) + " keys vs " +
                         std::to_string(want.size()) + " expected)";
    for (const auto& [key, value] : want) {
      const auto it = actual.find(key);
      if (it == actual.end()) {
        detail += "; missing " + key + "=" + value;
        break;
      }
      if (it->second != value) {
        detail += "; " + key + "=" + it->second + " want " + value;
        break;
      }
    }
    result.errors.push_back(detail);
  }

  result.digest = state_digest(stores);
  return result;
}

std::vector<SiteInfo> enumerate_sites(const TortureOptions& options) {
  FaultInjector injector(FaultPlan::none());
  bool crashed = false;
  int64_t crash_site = -1;
  run_workload(options, injector, crashed, crash_site);
  RCOMMIT_CHECK_MSG(!crashed, "empty plan must not crash");
  return injector.sites();
}

SweepResult run_wal_sweep(const TortureOptions& options, const SweepOptions& sweep) {
  SweepResult out;
  {
    TortureOptions probe = options;
    probe.scratch_dir = options.scratch_dir / "enumerate";
    out.sites = static_cast<int64_t>(enumerate_sites(probe).size());
    fs::remove_all(probe.scratch_dir);
  }
  const int64_t sites = sweep.max_sites >= 0 ? std::min(out.sites, sweep.max_sites)
                                             : out.sites;

  struct Job {
    int64_t site;
    FaultKind kind;
  };
  std::vector<Job> jobs;
  for (int64_t site = 0; site < sites; ++site) {
    for (const FaultKind kind : sweep.kinds) jobs.push_back({site, kind});
  }

  std::vector<FaultPlan> plans(jobs.size());
  std::vector<CrashPointResult> results(jobs.size());
  const auto run_one = [&](int64_t j) {
    const Job& job = jobs[static_cast<size_t>(j)];
    // The torn-byte draw is a pure function of (seed, site) so the sweep is
    // replayable from those two numbers alone.
    SplitMix64 mix(options.seed ^
                   (static_cast<uint64_t>(job.site) * 0x9e3779b97f4a7c15ULL));
    TortureOptions point = options;
    point.scratch_dir = options.scratch_dir /
                        ("site" + std::to_string(job.site) + "-" +
                         std::string(to_string(job.kind)));
    plans[static_cast<size_t>(j)] =
        FaultPlan::wal_fault_at(job.site, job.kind, mix.next());
    results[static_cast<size_t>(j)] =
        run_crash_point(point, plans[static_cast<size_t>(j)]);
    fs::remove_all(point.scratch_dir);
  };
  if (sweep.threads > 1) {
    swarm::WorkStealingPool pool(sweep.threads);
    pool.run(static_cast<int64_t>(jobs.size()), run_one);
  } else {
    for (int64_t j = 0; j < static_cast<int64_t>(jobs.size()); ++j) run_one(j);
  }

  // Fold in enumeration order: thread-count independent.
  for (size_t j = 0; j < jobs.size(); ++j) {
    ++out.crash_points;
    if (!results[j].ok()) out.failures.push_back({plans[j], results[j]});
  }
  return out;
}

FaultPlan shrink_fault_plan(const TortureOptions& options, const FaultPlan& plan,
                            const swarm::ShrinkOptions& shrink, int* evals) {
  const auto all = plan.all_actions();
  TortureOptions point = options;
  point.scratch_dir = options.scratch_dir / "shrink";
  const auto violates = [&](const std::vector<size_t>& keep) {
    std::vector<FaultAction> subset;
    subset.reserve(keep.size());
    for (const size_t index : keep) subset.push_back(all[index]);
    return !run_crash_point(point, plan.with_actions(subset)).ok();
  };
  const auto kept = swarm::ddmin_keep(all.size(), violates, shrink, evals);
  fs::remove_all(point.scratch_dir);
  std::vector<FaultAction> subset;
  subset.reserve(kept.size());
  for (const size_t index : kept) subset.push_back(all[index]);
  return plan.with_actions(subset);
}

void write_fault_artifact(const fs::path& dir, const FaultArtifact& artifact) {
  fs::create_directories(dir);
  const auto write_file = [&](const char* name, const std::string& contents) {
    std::ofstream out(dir / name, std::ios::trunc);
    RCOMMIT_CHECK_MSG(out.is_open(), "cannot write " << (dir / name).string());
    out << contents;
  };
  write_file("config.txt", artifact.options.serialize());
  write_file("plan.txt", artifact.plan.serialize());
  write_file("report.txt", artifact.expected.serialize());
  write_file("README.txt",
             "Crash-point counterexample / regression entry.\n"
             "Reproduce with:\n\n  faultkit --artifact=" +
                 dir.string() +
                 "\n\nconfig.txt is the workload (a batches= line selects the\n"
                 "pipelined multi-shot one), plan.txt the fault schedule,\n"
                 "report.txt the expected post-recovery CrashPointResult\n"
                 "(replay must reproduce it field for field).\n");
}

FaultArtifact load_fault_artifact(const fs::path& dir) {
  const auto read_file = [&](const char* name) {
    std::ifstream in(dir / name);
    RCOMMIT_CHECK_MSG(in.is_open(), "cannot read " << (dir / name).string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  FaultArtifact artifact;
  artifact.options = TortureOptions::deserialize(read_file("config.txt"));
  artifact.plan = FaultPlan::deserialize(read_file("plan.txt"));
  artifact.expected = CrashPointResult::deserialize(read_file("report.txt"));
  return artifact;
}

}  // namespace rcommit::faultinject
