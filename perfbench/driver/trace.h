// Spans for the traced run.
//
// The traced run calls each layer's public functions itself, in the order
// the engine calls them, and records one span per call: name, start, end,
// the span that caused it (an index into the same log) and the transaction,
// batch or trial id it belongs to. Spans stay in memory — one log per
// thread, so recording takes no lock — and are written out once, when the
// run ends. Per-layer metrics are computed from the logs afterwards.
#pragma once

#include <cstdint>
#include <filesystem>
#include <type_traits>
#include <vector>

#include "bench.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kEngineCall,         ///< one engine call (execute / execute_pipelined / restart)
  kReplay,             ///< parent of one transaction's or batch's layer calls
  kKvPrepare,          ///< KvStore::prepare on one shard
  kKvCommit,           ///< KvStore::commit on one shard
  kKvAbort,            ///< KvStore::abort on one shard
  kWalFlush,           ///< KvStore::wal_commit_group on one shard
  kWalSeal,            ///< KvStore::seal_batch on one shard
  kWalReplay,          ///< WriteAheadLog::replay of one shard's log
  kProtocolSetup,      ///< fleet construction + Simulator construction
  kProtocolRound,      ///< Simulator::run
  kTransportSetup,     ///< InMemoryNetwork + NodeHosts constructed and started
  kTransportDecide,    ///< start -> every NodeHost::decided()
  kTransportTeardown,  ///< request_stop + join + network stop
  kRecoveryReopen,     ///< KvStore construction over one shard's log
  kRecoverySurvey,     ///< RecoveryManager::survey_all
  kRecoveryResolve,    ///< RecoveryManager::resolve_all
  kCount,
};

const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kEngineCall;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the causing span in the same log
  int64_t id = 0;       ///< transaction, batch or trial id
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span now and returns its index (its children's parent).
  int32_t open(SpanName name, int32_t parent, int64_t id);
  /// Closes the span opened at `index`; returns its duration in µs.
  double close(int32_t index);

  /// Runs `call` inside one span and returns what it returns.
  template <class Call>
  decltype(auto) record(SpanName name, int32_t parent, int64_t id, Call&& call) {
    const int32_t index = open(name, parent, id);
    if constexpr (std::is_void_v<std::invoke_result_t<Call>>) {
      call();
      close(index);
    } else {
      decltype(auto) value = call();
      close(index);
      return value;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Durations (µs) of every span named `name` across `logs`.
std::vector<double> durations_us(const std::vector<const SpanLog*>& logs,
                                 SpanName name);
/// Sum of the durations (µs) of every span named in `names`.
double total_us(const std::vector<const SpanLog*>& logs,
                const std::vector<SpanName>& names);

/// Writes every span as CSV (thread,index,name,start_ns,end_ns,parent,id);
/// times are nanoseconds since the run started.
void write_spans(const std::filesystem::path& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
