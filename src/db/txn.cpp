#include "db/txn.h"

#include "adversary/basic.h"
#include "baselines/q3pc.h"
#include "baselines/threepc.h"
#include "baselines/twopc.h"
#include "common/check.h"
#include "sim/batch.h"

namespace rcommit::db {

std::unique_ptr<sim::Process> make_commit_participant(CommitBackend backend,
                                                      const SystemParams& params,
                                                      int vote, Tick k) {
  switch (backend) {
    case CommitBackend::kPaperProtocol: {
      protocol::CommitProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      return std::make_unique<protocol::CommitProcess>(popts);
    }
    case CommitBackend::kTwoPc: {
      baselines::TwoPcProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      popts.policy = baselines::TwoPcTimeoutPolicy::kPresumeAbort;
      popts.timeout = 8 * k;
      return std::make_unique<baselines::TwoPcProcess>(popts);
    }
    case CommitBackend::kThreePc: {
      baselines::ThreePcProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      popts.timeout = 8 * k;
      return std::make_unique<baselines::ThreePcProcess>(popts);
    }
    case CommitBackend::kQ3pc: {
      baselines::Q3pcProcess::Options popts;
      popts.params = params;
      popts.initial_vote = vote;
      popts.timeout = 8 * k;
      return std::make_unique<baselines::Q3pcProcess>(popts);
    }
  }
  RCOMMIT_CHECK_MSG(false, "unknown commit backend");
  return nullptr;
}

uint64_t round_seed(uint64_t seed, int64_t mix_id) {
  return seed ^ (static_cast<uint64_t>(mix_id) * 0x9e3779b97f4a7c15ULL);
}

TxnOutcome round_outcome(const std::vector<std::optional<Decision>>& decisions) {
  TxnOutcome outcome{Decision::kAbort, true};
  for (const auto& d : decisions) {
    if (!d.has_value()) outcome.decided = false;
    if (d.has_value() && *d == Decision::kCommit) outcome.decision = Decision::kCommit;
  }
  return outcome;
}

TxnOutcome run_simulated_round(CommitBackend backend, int32_t n, Tick k,
                               uint64_t seed, int64_t mix_id, int64_t max_events) {
  RCOMMIT_CHECK(n >= 1);
  if (n == 1) return {Decision::kCommit, true};
  const SystemParams params{.n = n, .t = (n - 1) / 2, .k = k};
  std::vector<std::unique_ptr<sim::Process>> fleet;
  fleet.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    fleet.push_back(make_commit_participant(backend, params, /*vote=*/1, k));
  }
  sim::SimConfig config;
  config.seed = round_seed(seed, mix_id);
  config.max_events = max_events;
  config.record_trace = false;
  config.pool_payloads = true;
  // One warm engine per thread: the threaded engine's client threads may
  // each run simulator rounds concurrently, and a BatchRunner is not
  // thread-safe.
  thread_local sim::BatchRunner runner;
  return round_outcome(
      runner.run(config, std::move(fleet), adversary::make_on_time_adversary())
          .decisions);
}

}  // namespace rcommit::db
