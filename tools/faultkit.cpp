// faultkit — crash-point fault-injection driver.
//
// Modes (pick one):
//   --enumerate          list the reachable WAL injection sites of the workload
//   --sweep              exhaustive (site × kind) recovery-equivalence sweep;
//                        failures are shrunk and written as artifacts
//   --replay             run one crash point: --site=N --kind=K [--arg=A]
//   --artifact=<dir>     replay a saved artifact and diff against its report
//
// Workload knobs (--seed --shards --fanout --keys, plus --txns for the
// serial workload) feed TortureOptions; a sweep failure is reproducible from
// (seed, site) alone — see docs/fault-injection.md for the repro recipe CI
// prints.
//
// --multishot selects the pipelined workload (--batches, --batch-size,
// --group-commit, --decision-batch), where a crash leaves many transactions
// in doubt per shard. A workload flag the selected workload does not read
// exits 2. --artifact reads the workload and seed from config.txt alone, so
// saved artifacts of either workload replay with or without --multishot, and
// any other workload or seed flag beside it exits 2.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/check.h"
#include "common/flags.h"
#include "faultinject/torture.h"

namespace {

namespace fs = std::filesystem;
using namespace rcommit;
using namespace rcommit::faultinject;

const std::vector<FlagDoc> kDocs = {
    {"enumerate", "", "list reachable WAL injection sites"},
    {"sweep", "", "exhaustive (site x kind) recovery-equivalence sweep"},
    {"replay", "", "run one crash point (--site, --kind, --arg)"},
    {"artifact", "dir", "replay a saved artifact; exit 1 on report mismatch"},
    {"site", "N", "WAL site for --replay"},
    {"kind", "name", "fault kind for --replay (crash-before, torn, "
                     "partial-flush, duplicate, crash-after)"},
    {"arg", "N", "fault argument for --replay (torn-byte draw, ...)"},
    {"save", "dir", "with --replay: also write the crash point as an artifact"},
    {"seed", "N", "workload seed (default 1)"},
    {"shards", "N", "shard count (default 3)"},
    {"txns", "N", "serial workload: transactions (default 4)"},
    {"fanout", "N", "shards per transaction (default 2)"},
    {"keys", "N", "keys per shard (default 4)"},
    {"multishot", "", "pipelined MultiShotDb workload (many txns in doubt)"},
    {"batches", "N", "--multishot: pipelined batches (default 3)"},
    {"batch-size", "N", "--multishot: in-flight txns per batch (default 8)"},
    {"group-commit", "", "--multishot: group-commit WAL mode (sites move to "
                         "group-flush boundaries)"},
    {"decision-batch", "N",
     "--multishot: prepared txns decided per protocol round (default 1)"},
    {"threads", "N", "sweep parallelism (default 1)"},
    {"max-sites", "N", "cap swept sites; -1 = all (default)"},
    {"artifacts", "dir", "where --sweep writes shrunk failure artifacts"},
    {"dir", "path", "scratch directory (default: under the system temp dir)"},
};
const char kSummary[] = "deterministic crash-point fault injection driver";

/// Workload flags: read by the serial workload only, by the pipelined one
/// only, and by both.
const std::vector<const char*> kSerialFlags = {"txns"};
const std::vector<const char*> kPipelinedFlags = {"batches", "batch-size",
                                                  "group-commit", "decision-batch"};
const std::vector<const char*> kSharedFlags = {"seed", "shards", "fanout", "keys"};

void print_result(const CrashPointResult& result) {
  std::cout << result.serialize();
}

void print_sites(const std::vector<SiteInfo>& sites) {
  std::cout << "# site  wal  record_type  frame_size\n";
  for (const auto& site : sites) {
    std::cout << site.site << "  " << site.wal_name << "  "
              << static_cast<int>(site.record_type) << "  " << site.frame_size
              << "\n";
  }
  std::cout << sites.size() << " reachable WAL sites\n";
}

int run_enumerate(const TortureOptions& options) {
  print_sites(enumerate_sites(options));
  return 0;
}

/// The options as an artifact records them: everything but the scratch dir.
TortureOptions without_scratch(TortureOptions options) {
  options.scratch_dir.clear();
  return options;
}

int run_sweep(const TortureOptions& options, const SweepOptions& sweep,
              const std::string& artifacts_dir) {
  const auto result = run_wal_sweep(options, sweep);
  std::cout << "sites=" << result.sites << " crash_points=" << result.crash_points
            << " failures=" << result.failures.size() << "\n";
  int index = 0;
  for (const auto& failure : result.failures) {
    std::cout << "\nFAIL plan:\n" << failure.plan.serialize() << "result:\n";
    print_result(failure.result);
    if (!artifacts_dir.empty()) {
      const FaultPlan shrunk = shrink_fault_plan(options, failure.plan);
      TortureOptions replay_options = options;
      replay_options.scratch_dir = options.scratch_dir / "artifact-replay";
      FaultArtifact artifact{without_scratch(options), shrunk,
                             run_crash_point(replay_options, shrunk)};
      fs::remove_all(replay_options.scratch_dir);
      const fs::path dir =
          fs::path(artifacts_dir) / ("fault-" + std::to_string(index++));
      write_fault_artifact(dir, artifact);
      std::cout << "artifact: " << dir.string() << "\n";
      std::cout << "reproduce: faultkit --artifact=" << dir.string() << "\n";
    }
  }
  return result.ok() ? 0 : 1;
}

int run_replay(const TortureOptions& options, int64_t site,
               const std::string& kind_name, uint64_t arg,
               const std::string& save_dir) {
  const FaultKind kind = parse_fault_kind(kind_name);
  RCOMMIT_CHECK_MSG(is_wal_kind(kind), "--replay takes a WAL fault kind");
  const FaultPlan plan = FaultPlan::wal_fault_at(site, kind, arg);
  const auto result = run_crash_point(options, plan);
  print_result(result);
  if (!save_dir.empty()) {
    write_fault_artifact(save_dir, {without_scratch(options), plan, result});
    std::cout << "artifact: " << save_dir << "\n";
  }
  return result.ok() ? 0 : 1;
}

int run_artifact(const fs::path& dir, const fs::path& scratch) {
  const FaultArtifact artifact = load_fault_artifact(dir);
  TortureOptions options = artifact.options;
  options.scratch_dir = scratch;
  const CrashPointResult result = run_crash_point(options, artifact.plan);
  if (result == artifact.expected) {
    std::cout << "replay matches " << (dir / "report.txt").string() << "\n";
    print_result(result);
    return result.ok() ? 0 : 1;
  }
  std::cout << "REPLAY MISMATCH\nexpected:\n"
            << artifact.expected.serialize() << "got:\n";
  print_result(result);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (flags.has("help")) {
    Flags::print_usage(std::cout, flags.program(), kSummary, kDocs);
    (void)flags.get_bool("help", false);
    return 0;
  }

  // Workload flags of the workload not selected are usage errors, never
  // silently ignored — and so is every workload or seed flag beside
  // --artifact, whose config.txt is the only source of both.
  const bool multishot = flags.get_bool("multishot", false);
  if (flags.has("artifact")) {
    for (const auto* names : {&kSerialFlags, &kPipelinedFlags, &kSharedFlags}) {
      for (const char* name : *names) {
        if (flags.has(name)) {
          std::cerr << "--" << name << " does not apply to --artifact: the "
                    << "artifact's config.txt sets the workload and seed\n";
          return 2;
        }
      }
    }
  }
  for (const char* name : multishot ? kSerialFlags : kPipelinedFlags) {
    if (flags.has(name)) {
      std::cerr << "--" << name
                << (multishot ? " does not apply to the --multishot workload\n"
                              : " applies only to the --multishot workload\n");
      return 2;
    }
  }

  TortureOptions options;
  options.seed = static_cast<uint64_t>(flags.get_int("seed", 1));
  options.shard_count = static_cast<int32_t>(flags.get_int("shards", 3));
  options.fanout = static_cast<int32_t>(flags.get_int("fanout", 2));
  options.keys_per_shard = static_cast<int32_t>(flags.get_int("keys", 4));
  options.scratch_dir = flags.get_string(
      "dir", (fs::temp_directory_path() / "faultkit-scratch").string());
  if (multishot) {
    options.workload = PipelinedWorkload{
        .batches = static_cast<int32_t>(flags.get_int("batches", 3)),
        .batch_size = static_cast<int32_t>(flags.get_int("batch-size", 8)),
        .group_commit = flags.get_bool("group-commit", false),
        .decision_batch = static_cast<int32_t>(flags.get_int("decision-batch", 1))};
  } else {
    options.workload =
        SerialWorkload{.txns = static_cast<int32_t>(flags.get_int("txns", 4))};
  }

  const bool enumerate = flags.get_bool("enumerate", false);
  const bool sweep = flags.get_bool("sweep", false);
  const bool replay = flags.get_bool("replay", false);
  const std::string artifact = flags.get_string("artifact", "");

  SweepOptions sweep_options;
  sweep_options.threads = static_cast<int>(flags.get_int("threads", 1));
  sweep_options.max_sites = flags.get_int("max-sites", -1);
  const std::string artifacts_dir = flags.get_string("artifacts", "");
  const int64_t site = flags.get_int("site", 0);
  const std::string kind = flags.get_string("kind", "crash-after");
  const auto arg = static_cast<uint64_t>(flags.get_int("arg", 0));
  const std::string save_dir = flags.get_string("save", "");

  if (!flags.check_unknown(std::cerr, kSummary, kDocs)) return 2;
  const int modes = (enumerate ? 1 : 0) + (sweep ? 1 : 0) + (replay ? 1 : 0) +
                    (artifact.empty() ? 0 : 1);
  if (modes != 1) {
    std::cerr << "pick exactly one of --enumerate, --sweep, --replay, "
                 "--artifact=<dir>\n";
    Flags::print_usage(std::cerr, flags.program(), kSummary, kDocs);
    return 2;
  }

  int exit_code = 0;
  if (enumerate) {
    exit_code = run_enumerate(options);
  } else if (sweep) {
    exit_code = run_sweep(options, sweep_options, artifacts_dir);
  } else if (replay) {
    exit_code = run_replay(options, site, kind, arg, save_dir);
  } else {
    // --artifact reads the workload and seed from config.txt, so it replays
    // with or without --multishot.
    exit_code = run_artifact(artifact, options.scratch_dir);
  }
  std::filesystem::remove_all(options.scratch_dir);
  return exit_code;
}
