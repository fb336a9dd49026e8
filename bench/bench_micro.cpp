// Micro-benchmarks (google-benchmark): the hot paths under the experiments —
// codec round-trips, wire encode/decode, CRC, WAL appends (serial and
// grouped), one shard's prepare+commit (over a fixed key set and over
// fresh keys), a pipelined engine's shard reopen, and raw simulator event
// throughput. These quantify the
// substrate costs so the protocol-level numbers in E1-E14 can be read with
// the constant factors in mind.
//
// Runs under the shared bench harness instead of BENCHMARK_MAIN so it speaks
// the same flags and emits the same JSON artifact as the E-benches; each
// google-benchmark result becomes one TimingSample (seconds per iteration).
#include <benchmark/benchmark.h>

#include <charconv>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adversary/basic.h"
#include "bench/harness.h"
#include "common/codec.h"
#include "common/rng.h"
#include "db/kv.h"
#include "db/multishot.h"
#include "db/wal.h"
#include "db/workload.h"
#include "protocol/commit.h"
#include "protocol/messages.h"
#include "sim/simulator.h"
#include "transport/wire.h"

namespace {

using namespace rcommit;

void BM_CodecVarintRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    BufWriter w;
    for (uint64_t v = 1; v < 1u << 20; v <<= 1) w.varint(v * 2654435761u);
    BufReader r(w.data());
    uint64_t sum = 0;
    while (!r.exhausted()) sum += r.varint();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CodecVarintRoundTrip);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  RandomTape rng(1);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_WireEncodeDecodePiggybacked(benchmark::State& state) {
  const auto msg = sim::make_message<protocol::PiggybackedMsg>(
      std::vector<uint8_t>(16, 1),
      sim::make_message<protocol::AgreementR2>(3, 1));
  const auto& registry = transport::WireRegistry::instance();
  for (auto _ : state) {
    const auto bytes = registry.encode(*msg);
    benchmark::DoNotOptimize(registry.decode(bytes));
  }
}
BENCHMARK(BM_WireEncodeDecodePiggybacked);

void BM_WalAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_bm_wal_" + std::to_string(::getpid()) + ".wal");
  fs::remove(path);
  db::WriteAheadLog wal(path);
  int64_t txn = 0;
  for (auto _ : state) {
    wal.append({db::WalRecordType::kWrite, ++txn, "some-key", "some-value"});
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_WalAppend);

/// Group-commit appends, as MultiShotDb issues them: records are framed in
/// place into the pending buffer and reach the file one auto-flushed group
/// (256 records) at a time, so this row is dominated by framing and CRC.
void BM_WalAppendGroup(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_bm_walgroup_" + std::to_string(::getpid()) + ".wal");
  fs::remove(path);
  {
    db::WriteAheadLog wal(path);
    wal.begin_group();
    int64_t txn = 0;
    for (auto _ : state) {
      wal.append(db::WalRecordType::kWrite, ++txn, "key:123456789", "txn-1234567");
    }
    wal.end_group();
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_WalAppendGroup);

/// One shard's share of a pipelined transaction: KvStore::prepare of two
/// writes (locks, BEGIN/WRITE/WRITE/PREPARED appends, staging) then commit
/// (COMMIT append, install, unlock), under group commit. Keys cycle over a
/// fixed set of 2048, so after the first pass every key already has its
/// slot in the store's key table and the table stays one size.
void BM_KvPrepareCommit(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_bm_kv_" + std::to_string(::getpid()) + ".wal");
  fs::remove(path);
  constexpr size_t kSets = 1024;
  std::vector<std::vector<db::KvWrite>> sets(kSets);
  for (size_t i = 0; i < kSets; ++i) {
    const std::string value = "txn-" + std::to_string(i);
    sets[i] = {{"key:" + std::to_string(100000000 + 2 * i), value},
               {"key:" + std::to_string(100000001 + 2 * i), value}};
  }
  const std::vector<int32_t> participants = {0, 1};
  {
    db::KvStore store(path);
    store.wal_begin_group();
    db::TxnId txn = 0;
    for (auto _ : state) {
      ++txn;
      const bool prepared =
          store.prepare(txn, sets[static_cast<size_t>(txn) % kSets], participants);
      benchmark::DoNotOptimize(prepared);
      store.commit(txn);
    }
    store.wal_end_group();
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_KvPrepareCommit);

/// BM_KvPrepareCommit with keys that never repeat: each prepare creates two
/// slots and the key table grows (and rehashes) as it does under the
/// pipelined engine workload, where every epoch of 4096 transactions starts
/// a fresh engine. The store is rebuilt on the same schedule, outside the
/// timed region. Keys and values are rewritten in place, so the loop itself
/// does not allocate.
void BM_KvPrepareCommitFreshKeys(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() /
                        ("rcommit_bm_kvfresh_" + std::to_string(::getpid()) + ".wal");
  constexpr db::TxnId kEpochTxns = 4096;
  std::vector<db::KvWrite> writes = {{"key:", "txn-"}, {"key:", "txn-"}};
  const std::vector<int32_t> participants = {0, 1};
  const auto set_suffix = [](std::string& s, int64_t n) {
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof digits, n).ptr;
    s.replace(4, std::string::npos, digits, static_cast<size_t>(end - digits));
  };
  std::unique_ptr<db::KvStore> store;
  db::TxnId txn = 0;
  for (auto _ : state) {
    if (txn % kEpochTxns == 0) {
      state.PauseTiming();
      store.reset();
      fs::remove(path);
      store = std::make_unique<db::KvStore>(path);
      store->wal_begin_group();
      state.ResumeTiming();
    }
    ++txn;
    set_suffix(writes[0].key, 100000000 + 2 * txn);
    set_suffix(writes[1].key, 100000001 + 2 * txn);
    set_suffix(writes[0].value, txn);
    set_suffix(writes[1].value, txn);
    const bool prepared = store->prepare(txn, writes, participants);
    benchmark::DoNotOptimize(prepared);
    store->commit(txn);
  }
  store.reset();
  state.SetItemsProcessed(state.iterations());
  fs::remove(path);
}
BENCHMARK(BM_KvPrepareCommitFreshKeys);

/// A pipelined engine's restart: reopening the WALs MultiShotDb leaves after
/// 4096 transactions run in pipelined batches of 64 — 3 shards, fan-out 2,
/// two writes per touched shard over fresh keys, group commit, decision
/// batches of 8, as one perfbench pipelined-sim epoch. Each iteration
/// reopens all three shards from the (page-cached) files: per shard, one
/// WAL scan and the rebuild of its key table. Destroying the stores is not
/// timed.
void BM_KvReopen(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("rcommit_bm_reopen_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  constexpr int32_t kShards = 3;
  constexpr int32_t kPipelineBatch = 64;
  std::vector<fs::path> paths;
  {
    db::MultiShotDb::Options options;
    options.shard_count = kShards;
    options.data_dir = dir;
    options.group_commit = true;
    options.decision_batch = 8;
    db::MultiShotDb engine(options);
    db::WorkloadGenerator generator({.shard_count = kShards,
                                     .keys_per_shard = 1'000'000'000,
                                     .fanout = 2,
                                     .writes_per_shard = 2},
                                    1);
    for (int32_t b = 0; b < 4096 / kPipelineBatch; ++b) {
      std::vector<db::GeneratedTxn> batch;
      for (int32_t i = 0; i < kPipelineBatch; ++i) batch.push_back(generator.next());
      (void)engine.execute_pipelined(b % kShards, batch);
    }
    engine.flush_wals();
    for (int32_t s = 0; s < kShards; ++s) paths.push_back(engine.shard(s).wal().path());
  }
  int64_t bytes = 0;
  for (const auto& path : paths) bytes += static_cast<int64_t>(fs::file_size(path));
  std::vector<std::unique_ptr<db::KvStore>> stores;
  for (auto _ : state) {
    for (const auto& path : paths) stores.push_back(std::make_unique<db::KvStore>(path));
    state.PauseTiming();
    stores.clear();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  fs::remove_all(dir);
}
BENCHMARK(BM_KvReopen);

void BM_SimulatorCommitRun(benchmark::State& state) {
  const auto n = static_cast<int32_t>(state.range(0));
  SystemParams params{.n = n, .t = (n - 1) / 2, .k = 2};
  uint64_t seed = 1;
  int64_t events = 0;
  for (auto _ : state) {
    std::vector<int> votes(static_cast<size_t>(n), 1);
    sim::Simulator sim({.seed = ++seed, .record_trace = false},
                       protocol::make_commit_fleet(params, votes),
                       adversary::make_random_adversary(seed, 3));
    const auto result = sim.run();
    events += result.events;
    benchmark::DoNotOptimize(result.decisions.front());
  }
  state.SetItemsProcessed(events);
  state.SetLabel("events/iteration ~" + std::to_string(events / state.iterations()));
}
BENCHMARK(BM_SimulatorCommitRun)->Arg(5)->Arg(9)->Arg(13);

void BM_RandomTape(benchmark::State& state) {
  RandomTape tape(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tape.next_real());
  }
}
BENCHMARK(BM_RandomTape);

/// Console output as usual, plus one TimingSample per benchmark: mean real
/// seconds per iteration, with the iteration count as the repeat count.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::Context& ctx) : ctx_(ctx) {}

  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double per_iter =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      ctx_.timing({run.benchmark_name(), per_iter,
                   static_cast<int>(run.iterations), 0});
    }
    benchmark::ConsoleReporter::ReportRuns(report);
  }

 private:
  bench::Context& ctx_;
};

void body(bench::Context& ctx) {
  // The harness owns the real command line; google-benchmark sees only a
  // synthetic one (quick mode shrinks the per-benchmark minimum time).
  std::string min_time = "--benchmark_min_time=";
  min_time += ctx.quick() ? "0.02" : "0.1";
  std::string prog = "bench_micro";
  std::vector<char*> argv = {prog.data(), min_time.data()};
  int argc = static_cast<int>(argv.size());
  benchmark::Initialize(&argc, argv.data());

  CaptureReporter reporter(ctx);
  reporter.SetOutputStream(&ctx.out());
  reporter.SetErrorStream(&ctx.out());
  benchmark::RunSpecifiedBenchmarks(&reporter);
}

}  // namespace

int main(int argc, char** argv) {
  return rcommit::bench::run(
      argc, argv,
      {"micro", "bench_micro",
       "substrate micro-benchmarks: codec, CRC, wire, WAL, simulator, RNG",
       {}},
      body);
}
