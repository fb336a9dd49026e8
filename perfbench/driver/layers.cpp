#include "layers.h"

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "adversary/basic.h"
#include "common/rng.h"
#include "db/txn.h"
#include "sim/simulator.h"
#include "transport/node.h"

namespace perfbench {

namespace {

std::vector<std::unique_ptr<rcommit::sim::Process>> commit_fleet(int32_t n) {
  const rcommit::SystemParams params{.n = n, .t = (n - 1) / 2, .k = kProtocolK};
  std::vector<std::unique_ptr<rcommit::sim::Process>> fleet;
  fleet.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    fleet.push_back(rcommit::db::make_commit_participant(
        rcommit::db::CommitBackend::kPaperProtocol, params, /*vote=*/1, kProtocolK));
  }
  return fleet;
}

/// The engine's reading of a round: decided iff every participant decided,
/// commit iff any participant decided commit.
RoundResult fold(const std::vector<std::optional<rcommit::Decision>>& decisions) {
  RoundResult result{rcommit::Decision::kAbort, true};
  for (const auto& d : decisions) {
    if (!d.has_value()) result.decided = false;
    if (d.has_value() && *d == rcommit::Decision::kCommit) {
      result.decision = rcommit::Decision::kCommit;
    }
  }
  return result;
}

}  // namespace

LayerCounts& LayerCounts::operator+=(const LayerCounts& other) {
  prepares += other.prepares;
  refused += other.refused;
  rounds += other.rounds;
  events += other.events;
  messages += other.messages;
  transport_rounds += other.transport_rounds;
  transport_txns += other.transport_txns;
  frames += other.frames;
  threads += other.threads;
  return *this;
}

RoundResult traced_sim_round(SpanLog& log, int32_t parent, int64_t id, int32_t n,
                             uint64_t seed, LayerCounts& counts) {
  const int32_t setup = log.open(SpanName::kProtocolSetup, parent, id);
  rcommit::sim::SimConfig config;
  config.seed = seed;
  config.max_events = kRoundMaxEvents;
  config.record_trace = false;
  rcommit::sim::Simulator simulator(config, commit_fleet(n),
                                    rcommit::adversary::make_on_time_adversary());
  log.close(setup);
  const auto run = log.record(SpanName::kProtocolRound, parent, id,
                              [&] { return simulator.run(); });
  ++counts.rounds;
  counts.events += run.events;
  counts.messages += run.messages_sent;
  return fold(run.decisions);
}

RoundResult traced_threaded_round(SpanLog& log, int32_t parent, int64_t id,
                                  int32_t n, uint64_t seed, int64_t txns,
                                  rcommit::transport::LinkPolicy links,
                                  std::chrono::milliseconds timeout,
                                  LayerCounts& counts) {
  namespace transport = rcommit::transport;
  const int32_t setup = log.open(SpanName::kTransportSetup, parent, id);
  transport::InMemoryNetwork network(n, seed, links);
  auto fleet = commit_fleet(n);
  const auto seeds = rcommit::derive_seeds(seed ^ 0xf1ee7, n);
  std::vector<std::unique_ptr<transport::NodeHost>> hosts;
  hosts.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    transport::NodeHost::Options options;
    options.id = i;
    options.seed = seeds[static_cast<size_t>(i)];
    options.step_period = kNodeStepPeriod;
    hosts.push_back(std::make_unique<transport::NodeHost>(
        options, std::move(fleet[static_cast<size_t>(i)]), network));
  }
  network.start();
  for (auto& host : hosts) host->start();
  log.close(setup);

  const int32_t decide = log.open(SpanName::kTransportDecide, parent, id);
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    bool all_decided = true;
    for (const auto& host : hosts) all_decided = all_decided && host->decided();
    if (all_decided) break;
    std::this_thread::sleep_for(kDecidePoll);
  }
  log.close(decide);

  log.record(SpanName::kTransportTeardown, parent, id, [&] {
    for (auto& host : hosts) host->request_stop();
    for (auto& host : hosts) host->join();
    network.stop();
  });
  ++counts.transport_rounds;
  counts.transport_txns += txns;
  counts.frames += network.frames_sent();
  counts.threads += n + 1;  // one per NodeHost plus the delivery thread

  std::vector<std::optional<rcommit::Decision>> decisions;
  for (const auto& host : hosts) {
    decisions.push_back(host->process().decided()
                            ? std::optional(host->process().decision())
                            : std::nullopt);
  }
  return fold(decisions);
}

}  // namespace perfbench
