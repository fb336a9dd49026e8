// Repository benchmark driver.
//
//   perfbench --workload <pipelined-sim|threaded-4c|crash-recovery>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Runs one workload for --seconds, checks its outputs, and prints one JSON
// object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics of a separate traced run. A human-readable table goes to stderr.
// Exit status: 0 on a correct run, 1 when a correctness, durability or
// recovery check failed (the JSON is still printed, with "correct": false),
// 2 on a usage or internal error (nothing printed on stdout).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <iostream>
#include <span>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares, in the order they are printed.
constexpr MetricSpec kEndToEnd[] = {
    {"committed_txn_per_s", "1/s"}, {"commit_latency_p50_ms", "ms"},
    {"commit_ratio", "ratio"},      {"cpu_us_per_txn", "us"},
    {"recovery_s", "s"},            {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"kv.prepare_us", "us"},
    {"kv.commit_us", "us"},
    {"kv.conflict_ratio", "ratio"},
    {"wal.flushes_per_txn", "count"},
    {"wal.bytes_per_txn", "B"},
    {"wal.records_per_flush", "count"},
    {"wal.flush_us", "us"},
    {"wal.replay_mb_per_s", "MB/s"},
    {"protocol.round_us", "us"},
    {"protocol.rounds_per_txn", "count"},
    {"protocol.events_per_round", "count"},
    {"protocol.messages_per_round", "count"},
    {"transport.setup_us", "us"},
    {"transport.decide_p50_us", "us"},
    {"transport.decide_p99_us", "us"},
    {"transport.teardown_us", "us"},
    {"transport.frames_per_round", "count"},
    {"transport.threads_per_txn", "count"},
    {"engine.self_us_per_txn", "us"},
    {"engine.layer_coverage", "ratio"},
    {"engine.call_p99_ms", "ms"},
    {"recovery.reopen_s", "s"},
    {"recovery.survey_s", "s"},
    {"recovery.resolve_s", "s"},
    {"recovery.self_s", "s"},
    {"recovery.reruns", "count"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <pipelined-sim|threaded-4c|"
               "crash-recovery> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
        have_dir = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_dir) usage("--workload and --work-dir are required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Prints `value` with every digit a double carries.
std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::vector<rcommit::db::GeneratedTxn> generate_txns(uint64_t seed, int64_t count) {
  rcommit::db::WorkloadGenerator generator(
      {.shard_count = kShards,
       .keys_per_shard = kKeysPerShard,
       .fanout = kFanout,
       .writes_per_shard = kWritesPerShard,
       .skew = 0.0},
      seed);
  std::vector<rcommit::db::GeneratedTxn> txns;
  txns.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) txns.push_back(generator.next());
  return txns;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);

  Result result;
  try {
    if (args.workload == "pipelined-sim") {
      result = run_pipelined_sim(args);
    } else if (args.workload == "threaded-4c") {
      result = run_threaded_4c(args);
    } else if (args.workload == "crash-recovery") {
      result = run_crash_recovery(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 2;
  }

  // Every declared metric is printed. An end-to-end metric a workload did
  // not set is a driver bug; a per-layer metric it did not set belongs to a
  // layer the workload never calls, and reads 0.
  std::string metrics;
  const std::span<const MetricSpec> specs =
      args.trace ? std::span<const MetricSpec>(kPerLayer)
                 : std::span<const MetricSpec>(kEndToEnd);
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      if (!args.trace) {
        std::cerr << "perfbench: " << args.workload << " did not measure "
                  << spec.name << "\n";
        return 2;
      }
      it = result.metrics.emplace(spec.name, std::make_pair(0.0, spec.unit)).first;
      std::cerr << "  (" << spec.name << ": layer not on this workload's path)\n";
    }
    if (it->second.second != spec.unit) {
      std::cerr << "perfbench: unit mismatch for " << spec.name << "\n";
      return 2;
    }
    std::fprintf(stderr, "  %-30s %16.6g %s\n", spec.name, it->second.first,
                 spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               number(it->second.first) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  for (const auto& violation : result.violations) {
    std::cerr << "VIOLATION: " << violation << "\n";
  }
  const bool correct = result.violations.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return correct ? 0 : 1;
}
