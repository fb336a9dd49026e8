// Claim-vs-measured reporting for the benchmark harness.
//
// Every bench binary reports through this layer so EXPERIMENTS.md can be
// assembled from uniform output: experiment id, the paper's claim, the
// measured value, and a pass/note column — as a human table on stdout and,
// through BenchResult, as a machine-readable JSON artifact the regression
// gate (tools/bench_report + tools/bench_compare) consumes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rcommit::json {
class JsonValue;
}  // namespace rcommit::json

namespace rcommit::metrics {

/// Version of the BenchResult / BENCH_RESULTS.json schema. Bump on any
/// field rename or semantic change; tools refuse mismatched versions rather
/// than misread them. See docs/benchmarking.md for the schema.
inline constexpr int kBenchSchemaVersion = 1;

struct ClaimRow {
  std::string claim_id;   ///< e.g. "C1"
  std::string paper;      ///< the paper's statement of the bound
  std::string measured;   ///< what this run of the bench observed
  bool holds = false;     ///< measured value consistent with the claim
};

/// A named measured scalar (the per-row numbers behind a claim verdict),
/// e.g. {"worst_mean_stages", 2.25, "stages"}.
struct MeasuredScalar {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< optional, e.g. "stages", "txn/s"
};

/// One wall-time measurement: mean seconds over `repeats` timed runs (after
/// `warmups` untimed ones). Wall time is the only machine-dependent part of
/// a BenchResult; everything else is a deterministic function of the seeds.
struct TimingSample {
  std::string name;
  double seconds = 0.0;
  int repeats = 1;
  int warmups = 0;
};

/// A rendered stdout table, archived verbatim so the "Measured" sections of
/// EXPERIMENTS.md can be regenerated from the JSON artifact.
struct RenderedTable {
  std::string name;
  std::string text;
};

/// Everything one bench binary measured in one invocation. Serialized to
/// bench/out/<name>.json by the harness (--json) and merged into
/// BENCH_RESULTS.json by tools/bench_report.
struct BenchResult {
  int schema_version = kBenchSchemaVersion;
  std::string experiment_id;  ///< "E1".."E14", "micro"
  std::string bench;          ///< binary name, e.g. "bench_stages"
  std::string title;          ///< one-line description
  bool quick = false;         ///< run with --quick (reduced grids)
  int repeat = 1;             ///< --repeat value used for timed sections
  uint64_t seed0 = 1;         ///< base seed all run seeds derive from
  std::vector<ClaimRow> claims;
  std::vector<MeasuredScalar> scalars;
  std::vector<TimingSample> timings;
  std::vector<RenderedTable> tables;
};

/// Number of claims with holds == true.
int claims_held(const BenchResult& result);

/// Deterministic JSON for one BenchResult (single line framing, stable key
/// order; doubles in shortest round-trip form).
std::string to_json(const BenchResult& result);

/// Parses a BenchResult back from its JSON form. Throws CheckFailure on a
/// schema-version mismatch or missing required fields.
BenchResult bench_result_from_json(const json::JsonValue& value);

/// Prints a "=== <title> ===" header, the rows, and a summary line.
void print_claim_report(std::ostream& os, const std::string& title,
                        const std::vector<ClaimRow>& rows);

}  // namespace rcommit::metrics
