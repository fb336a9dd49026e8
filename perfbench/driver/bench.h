// Shared pieces of the benchmark driver: run arguments, the result every
// workload returns, the workload shapes, timing helpers and summary
// statistics. Spans for the traced run live in trace.h.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "db/wal.h"
#include "db/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch space for WALs and span dumps
};

/// What one workload run reports. `metrics` maps a metric name to its value
/// and unit; `violations` lists every failed correctness check.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> violations;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void violation(const std::string& what) { violations.push_back(what); }
};

// --- workload shape ----------------------------------------------------------
// Every workload: 3 shards, fan-out 2, 2 writes per shard, uniform keys from
// a per-shard keyspace of 10^9 — far larger than the few thousand keys any
// epoch holds, so lock conflicts are rare and the check that no operation
// fails is meaningful.
inline constexpr int32_t kShards = 3;
inline constexpr int32_t kFanout = 2;
inline constexpr int32_t kWritesPerShard = 2;
inline constexpr int32_t kKeysPerShard = 1'000'000'000;

/// The workload's transactions, drawn by the repository's generator from
/// `seed`. The engine receives only these.
std::vector<rcommit::db::GeneratedTxn> generate_txns(uint64_t seed, int64_t count);

/// Adds `from`'s WAL counters into `into`.
inline void accumulate(rcommit::db::WalStats& into, const rcommit::db::WalStats& from) {
  into.records_appended += from.records_appended;
  into.flushes += from.flushes;
  into.bytes_written += from.bytes_written;
}

/// The same per-instance seed mix MultiShotDb and RecoveryManager use for a
/// decision round (the instance or batch id folded into the engine seed).
inline uint64_t round_seed(uint64_t seed, int64_t mix_id) {
  return seed ^ (static_cast<uint64_t>(mix_id) * 0x9e3779b97f4a7c15ULL);
}

// --- timing ------------------------------------------------------------------

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU time consumed by every thread of this process so far.
double process_cpu_seconds();

/// Peak resident set size of this process.
double peak_rss_mb();

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

// --- workloads ----------------------------------------------------------------

Result run_pipelined_sim(const Args& args);
Result run_threaded_4c(const Args& args);
Result run_crash_recovery(const Args& args);

}  // namespace perfbench
