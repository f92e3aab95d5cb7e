#include "src/tabs/application.h"

#include <algorithm>
#include <random>

namespace tabs {

Application::RunResult Application::RunTransactional(const TxnBody& body,
                                                     const RetryPolicy& policy) {
  RunResult result;
  SimTime backoff = policy.initial_backoff_us;
  std::mt19937_64 rng;
  bool rng_seeded = false;
  for (;;) {
    TransactionId tid = Begin();
    if (!rng_seeded) {
      // Seeded once from the first attempt's transaction id: unique per
      // RunTransactional call, yet a pure function of the deterministic
      // schedule — replays of the same world seed draw the same waits.
      rng.seed(policy.jitter_seed ^ std::hash<TransactionId>{}(tid));
      rng_seeded = true;
    }
    result.status = body(MakeTx(tid));
    if (result.status == Status::kOk) {
      result.status = End(tid);
    } else {
      Abort(tid);
    }
    ++result.attempts;
    if (result.status == Status::kOk || !RetryPolicy::Retryable(result.status) ||
        result.attempts >= policy.max_attempts) {
      return result;
    }
    // Back off in virtual time before the next attempt, so colliding
    // applications de-synchronize instead of re-deadlocking immediately.
    sim::Scheduler& sched = tm_->substrate().scheduler();
    if (sched.in_task() && backoff > 0) {
      SimTime wait = backoff;
      if (policy.jitter > 0) {
        // Integer draw on the raw mt19937_64 stream: its output sequence is
        // specified by the standard, unlike the float distributions, so the
        // waits are identical across standard libraries.
        SimTime span = static_cast<SimTime>(static_cast<double>(backoff) *
                                            std::min(policy.jitter, 1.0));
        if (span > 0) {
          wait = backoff - static_cast<SimTime>(
                               rng() % static_cast<std::uint64_t>(span + 1));
        }
      }
      sched.Charge(wait);
      sched.Yield();
    }
    backoff = std::min(policy.max_backoff_us,
                       static_cast<SimTime>(static_cast<double>(backoff) *
                                            policy.backoff_multiplier));
  }
}

Application::RunResult Application::RunTransactional(const TxnBody& body) {
  return RunTransactional(body, RetryPolicy{});
}

}  // namespace tabs
