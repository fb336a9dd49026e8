// Traced decision rounds, shared by the workloads' replays.
//
// Each function makes the same public-API calls the engine (or recovery)
// makes for one decision round, with the same parameters, and records one
// span per call. The parameters below mirror MultiShotDb's and
// RecoveryManager's defaults; the pipelined replay checks that it reaches
// byte-identical WALs, which it cannot if they drift apart.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/types.h"
#include "trace.h"
#include "transport/network.h"

namespace perfbench {

inline constexpr rcommit::Tick kProtocolK = 25;        ///< Options::k default
inline constexpr int64_t kRoundMaxEvents = 200'000;    ///< Options::max_events
/// NodeHost step period of a threaded decision round (run_threaded_round).
inline constexpr std::chrono::microseconds kNodeStepPeriod{500};
/// How often the traced threaded round polls NodeHost::decided(). The engine
/// polls every 250 µs; the replay polls finer, so the poll quantum is about
/// 2% of transport.decide_us (a few ms at 50-500 µs links), and no finer,
/// so its wake-ups do not take CPU from the node threads on a 4-core box.
inline constexpr std::chrono::microseconds kDecidePoll{50};

/// Work counted at the same boundaries the spans are recorded at.
struct LayerCounts {
  int64_t prepares = 0;          ///< KvStore::prepare calls
  int64_t refused = 0;           ///< prepares refused by the lock table
  int64_t rounds = 0;            ///< Simulator::run calls
  int64_t events = 0;            ///< simulator events over those rounds
  int64_t messages = 0;          ///< messages sent over those rounds
  int64_t transport_rounds = 0;  ///< threaded rounds
  int64_t transport_txns = 0;    ///< transactions those rounds decided
  int64_t frames = 0;            ///< frames sent over those rounds
  int64_t threads = 0;           ///< threads started by those rounds

  LayerCounts& operator+=(const LayerCounts& other);
};

struct RoundResult {
  rcommit::Decision decision = rcommit::Decision::kAbort;
  bool decided = false;
};

/// One Protocol 2 round among `n` participants, all voting commit, on the
/// simulator under the on-time adversary — MultiShotDb's kSimulator round
/// and RecoveryManager's rule-3 rerun. Spans protocol.setup (fleet and
/// simulator construction) and protocol.round (Simulator::run).
RoundResult traced_sim_round(SpanLog& log, int32_t parent, int64_t id, int32_t n,
                             uint64_t seed, LayerCounts& counts);

/// The same round over a fresh InMemoryNetwork with one NodeHost per
/// participant — MultiShotDb's kThreadedNetwork round — deciding `txns`
/// transactions. Spans transport.setup, transport.decide and
/// transport.teardown.
RoundResult traced_threaded_round(SpanLog& log, int32_t parent, int64_t id,
                                  int32_t n, uint64_t seed, int64_t txns,
                                  rcommit::transport::LinkPolicy links,
                                  std::chrono::milliseconds timeout,
                                  LayerCounts& counts);

}  // namespace perfbench
