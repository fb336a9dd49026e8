// The two engine workloads: pipelined-sim and threaded-4c.
//
// A run is a sequence of epochs. Each epoch constructs a fresh MultiShotDb
// (timed: setup_s), executes the workload's transactions through the public
// API (timed: throughput, latency, CPU), then checks the outputs and
// restarts: every committed write is read back, every shard's WAL is
// reopened from its flushed bytes and must reproduce the live state, and
// RecoveryManager runs over the reopened stores (timed: recovery_s). Every
// epoch replays the same generated transactions, so per-epoch counts repeat
// exactly however many epochs fit in --seconds, and the WALs stay small.
//
// The traced run spends its first third in untraced epochs and the rest in
// traced ones. A traced epoch makes each engine call as before and then
// replays the same transactions through the layers' public functions on
// replica stores, in the engine's order, with one span per call.
#include <array>
#include <atomic>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "db/multishot.h"
#include "db/recovery.h"
#include "layers.h"

namespace perfbench {
namespace {

namespace db = rcommit::db;
namespace fs = std::filesystem;
using rcommit::Decision;

/// Transactions per execute_pipelined call (pipelined-sim).
constexpr int32_t kPipelineBatch = 64;
/// Prepared transactions per decision round (pipelined-sim).
constexpr int32_t kDecisionBatch = 8;
/// Closed-loop client threads (threaded-4c).
constexpr int32_t kClients = 4;
/// threaded-4c link delays, uniform — E19's 50-500 µs.
constexpr rcommit::transport::LinkPolicy kLinks{
    .min_delay = std::chrono::microseconds(50),
    .max_delay = std::chrono::microseconds(500)};
/// Engine txn_timeout default; a threaded round past it leaves the
/// transaction in doubt.
constexpr std::chrono::milliseconds kTxnTimeout{2000};

struct Workload {
  const char* name;
  bool pipelined;
  int64_t epoch_txns;
};

constexpr Workload kPipelinedSim{"pipelined-sim", true, 64 * kPipelineBatch};
constexpr Workload kThreaded4c{"threaded-4c", false, 512};

db::MultiShotDb::Options engine_options(const Workload& w, uint64_t seed,
                                        const fs::path& dir) {
  db::MultiShotDb::Options options;
  options.shard_count = kShards;
  options.data_dir = dir;
  options.seed = seed;
  if (w.pipelined) {
    options.decision_transport = db::DecisionTransport::kSimulator;
    options.group_commit = true;
    options.decision_batch = kDecisionBatch;
  } else {
    options.decision_transport = db::DecisionTransport::kThreadedNetwork;
    options.network = kLinks;
  }
  return options;
}

bool committed(const db::TxnOutcome& outcome) {
  return outcome.decided && outcome.decision == Decision::kCommit;
}

/// Replica shard stores the traced replay drives, one WAL each, in group
/// mode so WAL flushes are calls of their own. Ids are allocated exactly as
/// the engine allocates them.
struct Replica {
  explicit Replica(const fs::path& dir) {
    fs::create_directories(dir);
    for (int32_t s = 0; s < kShards; ++s) {
      stores.push_back(std::make_unique<db::KvStore>(
          dir / ("shard-" + std::to_string(s) + ".wal")));
      stores.back()->wal_begin_group();
    }
    for (auto& next : next_sequence) next.store(1);
  }
  db::TxnId allocate(int32_t origin) {
    return db::make_txn_id(origin, next_sequence[static_cast<size_t>(origin)]++);
  }

  std::vector<std::unique_ptr<db::KvStore>> stores;
  std::array<std::mutex, kShards> mu;  ///< threaded replay: one per store
  std::array<std::atomic<int64_t>, kShards> next_sequence;
};

/// Accumulated over the epochs of one phase (untraced or traced).
struct Phase {
  int64_t epochs = 0;
  int64_t attempted = 0;
  int64_t committed = 0;
  int64_t failed = 0;          ///< aborted or left in doubt
  double engine_call_s = 0.0;  ///< sum of every engine call's latency
  std::vector<double> txn_per_s;   ///< per epoch: committed / execute wall time
  std::vector<double> cpu_us_per_txn;  ///< per epoch: process CPU / committed
  std::vector<double> latency_ms;
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  db::WalStats wal;
  // Traced phase only.
  std::vector<double> reopen_s, survey_s, resolve_s, recovery_self_s, reruns;
  double replay_bytes = 0.0;
};

/// A pipelined decision round to run again over the threaded transport.
struct TransportProbe {
  db::TxnId batch_id = 0;
  int32_t n = 0;
  uint64_t seed = 0;
  int64_t txns = 0;
};

/// Tracing state: one span log and one set of counts per client thread.
struct Tracer {
  Tracer(Clock::time_point origin, int32_t threads) {
    for (int32_t i = 0; i < threads; ++i) logs.emplace_back(origin);
    counts.resize(static_cast<size_t>(threads));
  }
  std::vector<const SpanLog*> views() const {
    std::vector<const SpanLog*> out;
    for (const auto& log : logs) out.push_back(&log);
    return out;
  }
  LayerCounts total() const {
    LayerCounts sum;
    for (const auto& c : counts) sum += c;
    return sum;
  }
  std::vector<SpanLog> logs;
  std::vector<LayerCounts> counts;
  std::unique_ptr<Replica> replica;  ///< rebuilt each traced epoch
  int64_t replay_mismatches = 0;     ///< pipelined: replay vs engine outcomes
  std::vector<TransportProbe> probes;  ///< pipelined: run at the epoch's end
};

// --- traced replays ----------------------------------------------------------

/// Replays one execute_pipelined batch: Phase A prepares, a flush, Phase B
/// rounds in chunks of decision_batch (sealed when more than one member),
/// Phase C applies, a flush — MultiShotDb::execute_pipelined's call order.
std::vector<db::TxnOutcome> replay_pipelined_batch(
    Tracer& tracer, uint64_t engine_seed, int32_t origin, int64_t batch_index,
    const std::vector<db::GeneratedTxn>& batch) {
  SpanLog& log = tracer.logs[0];
  LayerCounts& counts = tracer.counts[0];
  Replica& replica = *tracer.replica;
  const int32_t parent = log.open(SpanName::kReplay, -1, batch_index);

  struct Instance {
    db::TxnId txn = 0;
    std::vector<int32_t> involved;
    bool yes = true;
  };
  std::vector<Instance> instances;
  for (const auto& writes : batch) {
    Instance instance;
    instance.txn = replica.allocate(origin);
    for (const auto& [shard, shard_writes] : writes) instance.involved.push_back(shard);
    for (const int32_t shard : instance.involved) {
      ++counts.prepares;
      const bool ok = log.record(SpanName::kKvPrepare, parent, instance.txn, [&] {
        return replica.stores[static_cast<size_t>(shard)]->prepare(
            instance.txn, writes.at(shard), instance.involved);
      });
      if (!ok) {
        ++counts.refused;
        instance.yes = false;
        break;
      }
    }
    instances.push_back(std::move(instance));
  }
  const auto flush_all = [&] {
    for (auto& store : replica.stores) {
      log.record(SpanName::kWalFlush, parent, batch_index,
                 [&] { store->wal_commit_group(); });
    }
  };
  flush_all();

  std::vector<db::TxnOutcome> outcomes(instances.size());
  for (size_t base = 0; base < instances.size(); base += kDecisionBatch) {
    const size_t end = std::min(instances.size(), base + kDecisionBatch);
    std::vector<size_t> yes;
    for (size_t i = base; i < end; ++i) {
      if (instances[i].yes) {
        yes.push_back(i);
      } else {
        outcomes[i] = {Decision::kAbort, true};
      }
    }
    if (yes.empty()) continue;
    std::set<int32_t> shard_set;
    std::vector<db::TxnId> ids;
    for (const size_t i : yes) {
      shard_set.insert(instances[i].involved.begin(), instances[i].involved.end());
      ids.push_back(instances[i].txn);
    }
    const db::TxnId batch_id = ids.front();
    if (yes.size() > 1) {
      for (const int32_t shard : shard_set) {
        log.record(SpanName::kWalSeal, parent, batch_id, [&] {
          replica.stores[static_cast<size_t>(shard)]->seal_batch(batch_id, ids);
        });
      }
    }
    const auto n = static_cast<int32_t>(shard_set.size());
    db::TxnOutcome outcome{Decision::kCommit, true};
    if (n > 1) {
      const uint64_t seed = round_seed(engine_seed, batch_id);
      const RoundResult round = traced_sim_round(log, parent, batch_id, n, seed, counts);
      outcome = {round.decision, round.decided};
      if (base == 0) {
        tracer.probes.push_back({batch_id, n, seed, static_cast<int64_t>(yes.size())});
      }
    }
    for (const size_t i : yes) outcomes[i] = outcome;
  }

  for (size_t i = 0; i < instances.size(); ++i) {
    if (!outcomes[i].decided) continue;
    const bool commit = outcomes[i].decision == Decision::kCommit;
    for (const int32_t shard : instances[i].involved) {
      auto& store = *replica.stores[static_cast<size_t>(shard)];
      log.record(commit ? SpanName::kKvCommit : SpanName::kKvAbort, parent,
                 instances[i].txn, [&] {
                   if (commit) {
                     store.commit(instances[i].txn);
                   } else {
                     store.abort(instances[i].txn);
                   }
                 });
    }
  }
  flush_all();
  log.close(parent);
  return outcomes;
}

/// Replays one execute() on the threaded path: prepare shard by shard, one
/// threaded decision round, apply — MultiShotDb::execute with default
/// options. Each kv call is followed by its own WAL flush (the ungrouped
/// engine flushes inside every append). The same round also runs on the
/// simulator as the protocol's CPU floor; that span is not on the engine's
/// path and is left out of engine.layer_coverage.
void replay_threaded_txn(Tracer& tracer, int32_t client, uint64_t engine_seed,
                         int32_t origin, int64_t txn_index,
                         const db::GeneratedTxn& writes) {
  SpanLog& log = tracer.logs[static_cast<size_t>(client)];
  LayerCounts& counts = tracer.counts[static_cast<size_t>(client)];
  Replica& replica = *tracer.replica;
  const int32_t parent = log.open(SpanName::kReplay, -1, txn_index);
  const db::TxnId txn = replica.allocate(origin);
  std::vector<int32_t> involved;
  for (const auto& [shard, shard_writes] : writes) involved.push_back(shard);

  const auto on_shard = [&](int32_t shard, SpanName name, auto&& call) {
    auto& store = *replica.stores[static_cast<size_t>(shard)];
    std::lock_guard lock(replica.mu[static_cast<size_t>(shard)]);
    const auto value = log.record(name, parent, txn, [&] { return call(store); });
    log.record(SpanName::kWalFlush, parent, txn, [&] { store.wal_commit_group(); });
    return value;
  };
  bool yes = true;
  for (const int32_t shard : involved) {
    ++counts.prepares;
    yes = on_shard(shard, SpanName::kKvPrepare, [&](db::KvStore& store) {
      return store.prepare(txn, writes.at(shard), involved);
    });
    if (!yes) {
      ++counts.refused;
      break;
    }
  }
  RoundResult outcome{Decision::kAbort, true};
  if (yes) {
    const auto n = static_cast<int32_t>(involved.size());
    const uint64_t seed = round_seed(engine_seed, txn);
    outcome = traced_threaded_round(log, parent, txn, n, seed, /*txns=*/1, kLinks,
                                    kTxnTimeout, counts);
    traced_sim_round(log, parent, txn, n, seed, counts);
  }
  if (outcome.decided) {
    const bool commit = outcome.decision == Decision::kCommit;
    for (const int32_t shard : involved) {
      on_shard(shard, commit ? SpanName::kKvCommit : SpanName::kKvAbort,
               [&](db::KvStore& store) {
                 if (commit) {
                   store.commit(txn);
                 } else {
                   store.abort(txn);
                 }
                 return true;
               });
    }
  }
  log.close(parent);
}

// --- checks ------------------------------------------------------------------

/// Read-back: a committed transaction's writes are present on all of its
/// shards and an uncommitted one's on none. A key that several committed
/// transactions wrote may hold any of their values.
void check_readback(const db::MultiShotDb& engine,
                    const std::vector<db::GeneratedTxn>& inputs,
                    const std::vector<db::TxnOutcome>& outcomes, Result& result) {
  std::unordered_map<std::string, int> committed_writers;  // "shard/key"
  const auto slot = [](int32_t shard, const std::string& key) {
    return std::to_string(shard) + "/" + key;
  };
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!committed(outcomes[i])) continue;
    for (const auto& [shard, writes] : inputs[i]) {
      for (const auto& w : writes) ++committed_writers[slot(shard, w.key)];
    }
  }
  int64_t bad = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const bool is_committed = committed(outcomes[i]);
    for (const auto& [shard, writes] : inputs[i]) {
      for (const auto& w : writes) {
        const auto value = engine.get(shard, w.key);
        const auto it = committed_writers.find(slot(shard, w.key));
        const int writers = it == committed_writers.end() ? 0 : it->second;
        if (is_committed) {
          bad += !value.has_value() || (*value != w.value && writers < 2);
        } else {
          bad += value.has_value() && (*value == w.value || writers == 0);
        }
      }
    }
  }
  if (bad > 0) {
    result.violation("read-back: " + std::to_string(bad) +
                     " writes disagree with their transaction's outcome");
  }
}

/// Compares two files byte for byte.
bool same_bytes(const fs::path& a, const fs::path& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  return std::equal(std::istreambuf_iterator<char>(fa), {},
                    std::istreambuf_iterator<char>(fb), {});
}

// --- one epoch ---------------------------------------------------------------

void run_epoch(const Workload& w, uint64_t seed,
               const std::vector<db::GeneratedTxn>& inputs, const fs::path& dir,
               Phase& phase, Result& result, Tracer* tracer) {
  fs::remove_all(dir);
  const fs::path engine_dir = dir / "engine";
  if (tracer != nullptr) tracer->replica = std::make_unique<Replica>(dir / "replica");

  const auto setup_start = Clock::now();
  auto engine = std::make_unique<db::MultiShotDb>(engine_options(w, seed, engine_dir));
  phase.setup_s.push_back(seconds_between(setup_start, Clock::now()));

  std::vector<db::TxnOutcome> outcomes(inputs.size());
  std::vector<std::vector<double>> latency_ms(w.pipelined ? 1 : kClients);
  const double cpu_start = process_cpu_seconds();
  const auto exec_start = Clock::now();
  if (w.pipelined) {
    for (size_t base = 0, b = 0; base < inputs.size(); base += kPipelineBatch, ++b) {
      const std::vector<db::GeneratedTxn> batch(
          inputs.begin() + static_cast<ptrdiff_t>(base),
          inputs.begin() + static_cast<ptrdiff_t>(
                               std::min(inputs.size(), base + kPipelineBatch)));
      const auto origin = static_cast<int32_t>(b % kShards);
      SpanLog* log = tracer != nullptr ? &tracer->logs[0] : nullptr;
      const int32_t span =
          log != nullptr ? log->open(SpanName::kEngineCall, -1, static_cast<int64_t>(b)) : -1;
      const auto call_start = Clock::now();
      const auto out = engine->execute_pipelined(origin, batch);
      latency_ms[0].push_back(seconds_between(call_start, Clock::now()) * 1e3);
      std::copy(out.begin(), out.end(), outcomes.begin() + static_cast<ptrdiff_t>(base));
      if (log != nullptr) {
        log->close(span);
        const auto replayed = replay_pipelined_batch(*tracer, seed, origin,
                                                     static_cast<int64_t>(b), batch);
        for (size_t i = 0; i < out.size(); ++i) {
          tracer->replay_mismatches += replayed[i].decided != out[i].decided ||
                                       replayed[i].decision != out[i].decision;
        }
      }
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    for (int32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = next++; i < inputs.size(); i = next++) {
          const auto origin = static_cast<int32_t>(i % kShards);
          SpanLog* log = tracer != nullptr ? &tracer->logs[static_cast<size_t>(c)] : nullptr;
          const int32_t span =
              log != nullptr ? log->open(SpanName::kEngineCall, -1, static_cast<int64_t>(i)) : -1;
          const auto call_start = Clock::now();
          outcomes[i] = engine->execute(origin, inputs[i]);
          latency_ms[static_cast<size_t>(c)].push_back(
              seconds_between(call_start, Clock::now()) * 1e3);
          if (log != nullptr) {
            log->close(span);
            replay_threaded_txn(*tracer, c, seed, origin, static_cast<int64_t>(i),
                                inputs[i]);
          }
        }
      });
    }
    for (auto& client : clients) client.join();
  }
  const double exec_wall_s = seconds_between(exec_start, Clock::now());
  const double exec_cpu_s = process_cpu_seconds() - cpu_start;
  for (const auto& per_client : latency_ms) {
    for (const double ms : per_client) {
      phase.engine_call_s += ms / 1e3;
      phase.latency_ms.push_back(ms);
    }
  }

  int64_t epoch_committed = 0;
  for (const auto& outcome : outcomes) epoch_committed += committed(outcome);
  phase.attempted += static_cast<int64_t>(inputs.size());
  phase.committed += epoch_committed;
  phase.txn_per_s.push_back(static_cast<double>(epoch_committed) / exec_wall_s);
  phase.cpu_us_per_txn.push_back(exec_cpu_s * 1e6 /
                                 static_cast<double>(std::max<int64_t>(epoch_committed, 1)));
  phase.failed += static_cast<int64_t>(inputs.size()) - epoch_committed;
  accumulate(phase.wal, engine->wal_stats());
  ++phase.epochs;

  check_readback(*engine, inputs, outcomes, result);

  // Durability and restart: reopen every shard's WAL from the bytes on disk
  // — everything the engine flushed, nothing it merely buffered — and
  // require the committed state the live engine holds.
  SpanLog* log = tracer != nullptr ? &tracer->logs[0] : nullptr;
  const int64_t epoch_id = phase.epochs;
  std::vector<fs::path> wal_paths;
  for (int32_t s = 0; s < kShards; ++s) wal_paths.push_back(engine->shard(s).wal().path());
  std::vector<std::unique_ptr<db::KvStore>> reopened;
  const auto reopen_start = Clock::now();
  for (const auto& path : wal_paths) {
    if (log != nullptr) {
      log->record(SpanName::kRecoveryReopen, -1, epoch_id, [&] {
        reopened.push_back(std::make_unique<db::KvStore>(path));
      });
    } else {
      reopened.push_back(std::make_unique<db::KvStore>(path));
    }
  }
  const double reopen_s = seconds_between(reopen_start, Clock::now());
  bool pending = false;
  for (int32_t s = 0; s < kShards; ++s) {
    if (reopened[static_cast<size_t>(s)]->snapshot() != engine->shard(s).snapshot()) {
      result.violation("durability: shard " + std::to_string(s) +
                       " reopened from its WAL differs from the live engine");
    }
    pending = pending || !reopened[static_cast<size_t>(s)]->in_doubt().empty();
  }
  if (tracer != nullptr) {
    for (int32_t s = 0; s < kShards; ++s) {
      const auto& path = wal_paths[static_cast<size_t>(s)];
      // The pipelined replay is deterministic and must write the engine's
      // exact bytes; the threaded one interleaves differently.
      if (w.pipelined && !same_bytes(path, dir / "replica" / path.filename())) {
        result.violation("trace: replica WAL of shard " + std::to_string(s) +
                         " differs from the engine's");
      }
      phase.replay_bytes += static_cast<double>(fs::file_size(path));
      log->record(SpanName::kWalReplay, -1, epoch_id,
                  [&] { return db::WriteAheadLog(path).replay(); });
    }
    tracer->replica.reset();
  }
  engine.reset();

  std::vector<db::KvStore*> stores;
  for (auto& store : reopened) stores.push_back(store.get());
  db::RecoveryManager recovery(stores, {.seed = seed});
  double survey_s = 0.0;
  if (log != nullptr) {
    const auto survey_start = Clock::now();
    log->record(SpanName::kRecoverySurvey, -1, epoch_id,
                [&] { return recovery.survey_all(); });
    survey_s = seconds_between(survey_start, Clock::now());
  }
  const auto resolve_start = Clock::now();
  const db::RecoveryReport report =
      log != nullptr ? log->record(SpanName::kRecoveryResolve, -1, epoch_id,
                                   [&] { return recovery.resolve_all(); })
                     : recovery.resolve_all();
  const double resolve_s = seconds_between(resolve_start, Clock::now());
  phase.recovery_s.push_back(reopen_s + resolve_s);
  for (const auto* store : stores) {
    if (!store->in_doubt().empty()) {
      result.violation("restart: a shard still holds in-doubt transactions");
    }
  }
  if (tracer != nullptr) {
    phase.reopen_s.push_back(reopen_s);
    phase.survey_s.push_back(survey_s);
    phase.resolve_s.push_back(resolve_s);
    // resolve_all surveys only when something is pending; with nothing in
    // doubt its whole time is its own.
    phase.recovery_self_s.push_back(resolve_s - (pending ? survey_s : 0.0));
    phase.reruns.push_back(static_cast<double>(report.reran_protocol));
    // Transport probe: each batch's first round runs again over the
    // threaded transport with E19's links — what this workload's rounds
    // would cost there. It is off the engine's path, and runs last so its
    // threads do not cool the caches of the calls compared above.
    for (const TransportProbe& probe : tracer->probes) {
      traced_threaded_round(*log, -1, probe.batch_id, probe.n, probe.seed, probe.txns,
                            kLinks, kTxnTimeout, tracer->counts[0]);
    }
    tracer->probes.clear();
  }
}

// --- a whole run --------------------------------------------------------------

void report_end_to_end(const Phase& p, Result& result) {
  // Rates are medians over epochs, so a burst of outside load during one
  // epoch does not move the run's figure.
  result.set("committed_txn_per_s", median(p.txn_per_s), "1/s");
  result.set("commit_latency_p50_ms", quantile(p.latency_ms, 0.50), "ms");
  result.set("commit_ratio",
             static_cast<double>(p.committed) / static_cast<double>(p.attempted), "ratio");
  result.set("cpu_us_per_txn", median(p.cpu_us_per_txn), "us");
  result.set("recovery_s", median(p.recovery_s), "s");
  result.set("setup_s", median(p.setup_s), "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_per_layer(const Workload& w, const Phase& untraced, const Phase& traced,
                      const Tracer& tracer, Result& result) {
  const auto logs = tracer.views();
  const LayerCounts c = tracer.total();
  const auto txns = static_cast<double>(traced.attempted);
  const auto per = [](double num, int64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };

  result.set("kv.prepare_us", median(durations_us(logs, SpanName::kKvPrepare)), "us");
  result.set("kv.commit_us", median(durations_us(logs, SpanName::kKvCommit)), "us");
  result.set("kv.conflict_ratio", per(static_cast<double>(c.refused), c.prepares), "ratio");

  // WAL counts are the engine's own (wal_stats()), over every epoch.
  const int64_t all_txns = untraced.attempted + traced.attempted;
  db::WalStats wal = untraced.wal;
  accumulate(wal, traced.wal);
  result.set("wal.flushes_per_txn", per(static_cast<double>(wal.flushes), all_txns), "count");
  result.set("wal.bytes_per_txn", per(static_cast<double>(wal.bytes_written), all_txns), "B");
  result.set("wal.records_per_flush", wal.records_per_flush(), "count");
  result.set("wal.flush_us", median(durations_us(logs, SpanName::kWalFlush)), "us");
  result.set("wal.replay_mb_per_s",
             traced.replay_bytes / total_us(logs, {SpanName::kWalReplay}), "MB/s");

  result.set("protocol.round_us", median(durations_us(logs, SpanName::kProtocolRound)), "us");
  result.set("protocol.rounds_per_txn", static_cast<double>(c.rounds) / txns, "count");
  result.set("protocol.events_per_round", per(static_cast<double>(c.events), c.rounds), "count");
  result.set("protocol.messages_per_round", per(static_cast<double>(c.messages), c.rounds),
             "count");

  const auto decide = durations_us(logs, SpanName::kTransportDecide);
  result.set("transport.setup_us", median(durations_us(logs, SpanName::kTransportSetup)),
             "us");
  result.set("transport.decide_p50_us", quantile(decide, 0.50), "us");
  result.set("transport.decide_p99_us", quantile(decide, 0.99), "us");
  result.set("transport.teardown_us",
             median(durations_us(logs, SpanName::kTransportTeardown)), "us");
  result.set("transport.frames_per_round",
             per(static_cast<double>(c.frames), c.transport_rounds), "count");
  result.set("transport.threads_per_txn",
             per(static_cast<double>(c.threads), c.transport_txns), "count");

  // The spans of the calls the engine itself makes; the probes (transport
  // on pipelined-sim, the simulator round on threaded-4c) are left out.
  std::vector<SpanName> engine_path = {SpanName::kKvPrepare, SpanName::kKvCommit,
                                       SpanName::kKvAbort, SpanName::kWalFlush};
  if (w.pipelined) {
    engine_path.insert(engine_path.end(), {SpanName::kWalSeal, SpanName::kProtocolSetup,
                                           SpanName::kProtocolRound});
  } else {
    engine_path.insert(engine_path.end(), {SpanName::kTransportSetup,
                                           SpanName::kTransportDecide,
                                           SpanName::kTransportTeardown});
  }
  const double engine_us = traced.engine_call_s * 1e6;
  const double layers_us = total_us(logs, engine_path);
  result.set("engine.self_us_per_txn", (engine_us - layers_us) / txns, "us");
  result.set("engine.layer_coverage", layers_us / engine_us, "ratio");
  // The tail of the engine calls in the untraced third of the run. It is
  // reported here, without a bound, because a shared host's stalls move it
  // far more than any other figure.
  result.set("engine.call_p99_ms", quantile(untraced.latency_ms, 0.99), "ms");

  result.set("recovery.reopen_s", median(traced.reopen_s), "s");
  result.set("recovery.survey_s", median(traced.survey_s), "s");
  result.set("recovery.resolve_s", median(traced.resolve_s), "s");
  result.set("recovery.self_s", median(traced.recovery_self_s), "s");
  result.set("recovery.reruns", median(traced.reruns), "count");

  // Engine time per transaction with the replay running beside it, over
  // the same without.
  result.set("trace.overhead_ratio",
             (traced.engine_call_s / txns) /
                 (untraced.engine_call_s / static_cast<double>(untraced.attempted)),
             "ratio");
}

Result run_engine_workload(const Workload& w, const Args& args) {
  Result result;
  const auto inputs = generate_txns(args.seed, w.epoch_txns);
  const fs::path dir = args.work_dir / w.name;
  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };

  Phase untraced;
  const double untraced_until = args.trace ? args.seconds / 3.0 : args.seconds;
  do {
    run_epoch(w, args.seed, inputs, dir, untraced, result, nullptr);
  } while (elapsed() < untraced_until);

  if (!args.trace) {
    result.attempted = untraced.attempted;
    result.failed = untraced.failed;
    report_end_to_end(untraced, result);
  } else {
    Phase traced;
    Tracer tracer(start, w.pipelined ? 1 : kClients);
    do {
      run_epoch(w, args.seed, inputs, dir, traced, result, &tracer);
    } while (elapsed() < args.seconds);
    if (tracer.replay_mismatches > 0) {
      result.violation("trace: " + std::to_string(tracer.replay_mismatches) +
                       " replayed outcomes differ from the engine's");
    }
    result.attempted = untraced.attempted + traced.attempted;
    result.failed = untraced.failed + traced.failed;
    report_per_layer(w, untraced, traced, tracer, result);
    write_spans(args.work_dir / "spans" / (std::string(w.name) + ".csv"), tracer.views());
  }
  fs::remove_all(dir);
  std::cerr << w.name << ": " << result.attempted << " transactions, "
            << untraced.epochs << " untraced epochs\n";
  return result;
}

}  // namespace

Result run_pipelined_sim(const Args& args) { return run_engine_workload(kPipelinedSim, args); }
Result run_threaded_4c(const Args& args) { return run_engine_workload(kThreaded4c, args); }

}  // namespace perfbench
