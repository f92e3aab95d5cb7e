// Primitive-operation counters.
//
// The paper's Tables 5-2 and 5-3 report how many of each primitive a
// benchmark executes, split between forward (pre-commit) processing and
// commit processing. Metrics keeps exactly those two buckets; the
// Transaction Manager flips the phase around commit processing, and the
// benchmark harness snapshots/diffs counters per transaction.

#ifndef TABS_SIM_METRICS_H_
#define TABS_SIM_METRICS_H_

#include <array>
#include <cstdint>

#include "src/sim/cost_model.h"

namespace tabs::sim {

enum class Phase { kPreCommit = 0, kCommit = 1 };

// Kinds of injected fault the nemesis can fire (FaultInjector, SimDisk,
// StableLogDevice, Network). Counted per kind so fault sweeps are observable
// in bench/test output.
enum class FaultKind {
  kCrash = 0,         // fault point resolved to crash-node
  kDelay,             // fault point resolved to a virtual-time delay
  kTornLogWrite,      // log force torn: prefix of sectors durable, tail lost
  kCorruptSector,     // log sector or data page scrambled in place
  kLostPageWrite,     // data-page write silently dropped by the disk
  kDatagramDuplicate, // datagram delivered twice
  kDatagramJitter,    // datagram delayed by bounded random jitter
  kDatagramDrop,      // datagram dropped by the loss filter
  kSessionDrop,       // session establishment/send dropped by the filter
};
inline constexpr int kFaultKindCount = 9;

inline const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kTornLogWrite: return "torn-log-write";
    case FaultKind::kCorruptSector: return "corrupt-sector";
    case FaultKind::kLostPageWrite: return "lost-page-write";
    case FaultKind::kDatagramDuplicate: return "datagram-duplicate";
    case FaultKind::kDatagramJitter: return "datagram-jitter";
    case FaultKind::kDatagramDrop: return "datagram-drop";
    case FaultKind::kSessionDrop: return "session-drop";
  }
  return "?";
}

struct PrimitiveCounts {
  std::array<double, kPrimitiveCount> count{};

  double Of(Primitive p) const { return count[static_cast<int>(p)]; }
  double& Of(Primitive p) { return count[static_cast<int>(p)]; }

  PrimitiveCounts operator-(const PrimitiveCounts& o) const {
    PrimitiveCounts r;
    for (int i = 0; i < kPrimitiveCount; ++i) {
      r.count[i] = count[i] - o.count[i];
    }
    return r;
  }
  PrimitiveCounts& operator+=(const PrimitiveCounts& o) {
    for (int i = 0; i < kPrimitiveCount; ++i) {
      count[i] += o.count[i];
    }
    return *this;
  }
  // Latency predicted by primitives: the weighted sum of Section 5.1.
  SimTime PredictedTime(const CostModel& m) const {
    double t = 0;
    for (int i = 0; i < kPrimitiveCount; ++i) {
      t += count[i] * static_cast<double>(m.time_us[i]);
    }
    return static_cast<SimTime>(t);
  }
};

class Metrics {
 public:
  void Count(Primitive p, double n = 1.0) { buckets_[static_cast<int>(phase_)].Of(p) += n; }

  Phase phase() const { return phase_; }
  void SetPhase(Phase ph) { phase_ = ph; }

  const PrimitiveCounts& Bucket(Phase ph) const { return buckets_[static_cast<int>(ph)]; }
  PrimitiveCounts Total() const {
    PrimitiveCounts t = buckets_[0];
    t += buckets_[1];
    return t;
  }

  // Log-force accounting for group commit. A force is *issued* when a
  // LogManager::Force call actually writes the stable device; a stability
  // request is *absorbed* when some other transaction's force (a shared
  // group-commit flush, a checkpoint) already covered its LSN. These are
  // deliberately not Primitives: adding enum values would change the shape
  // of every regenerated paper table.
  void CountForceIssued() { ++forces_issued_; }
  void CountForceAbsorbed(double n = 1.0) { forces_absorbed_ += n; }
  double forces_issued() const { return forces_issued_; }
  double forces_absorbed() const { return forces_absorbed_; }

  // Data-page write-back accounting for the page cleaner. A write-back is
  // *foreground* when a transaction pays for it synchronously (eviction on a
  // page fault, reclamation's flushes inside the triggering update) and
  // *background* when the cleaner daemon performed it between transactions.
  // Like the force counters these are not Primitives: the paper tables keep
  // their shape.
  void CountPageWrite(bool background) {
    ++(background ? page_writes_background_ : page_writes_foreground_);
  }
  double page_writes_foreground() const { return page_writes_foreground_; }
  double page_writes_background() const { return page_writes_background_; }

  // Asynchronous-communication accounting. An async call is *issued* when a
  // transaction puts a pipelined session call on the wire without blocking;
  // a message is *coalesced* when an operation travelled inside another
  // operation's session instead of paying its own (a batch of k coalesces
  // k-1). Like the force and page-write counters these are not Primitives:
  // with the knobs at their paper-faithful defaults both stay zero and the
  // regenerated paper tables keep their shape.
  void CountAsyncCall() { ++async_calls_issued_; }
  void CountMessagesCoalesced(double n = 1.0) { messages_coalesced_ += n; }
  double async_calls_issued() const { return async_calls_issued_; }
  double messages_coalesced() const { return messages_coalesced_; }

  // Fault-injection and recovery accounting. Like the force and page-write
  // counters these are deliberately not Primitives: with faults off every
  // counter stays zero and the regenerated paper tables keep their shape.
  void CountFault(FaultKind k) { ++faults_injected_[static_cast<int>(k)]; }
  double faults_injected(FaultKind k) const {
    return faults_injected_[static_cast<int>(k)];
  }
  double faults_injected_total() const {
    double t = 0;
    for (double f : faults_injected_) {
      t += f;
    }
    return t;
  }
  // One crash-recovery pass (RecoveryManager::Recover) ran.
  void CountCrashRecovery() { ++crash_recoveries_; }
  double crash_recoveries() const { return crash_recoveries_; }
  // Recovery detected a torn/corrupt stable-log tail and truncated it.
  void CountLogTailTruncation(std::uint64_t bytes_dropped) {
    ++log_tail_truncations_;
    log_tail_bytes_truncated_ += static_cast<double>(bytes_dropped);
  }
  double log_tail_truncations() const { return log_tail_truncations_; }
  double log_tail_bytes_truncated() const { return log_tail_bytes_truncated_; }

  void Reset() {
    buckets_[0] = {};
    buckets_[1] = {};
    phase_ = Phase::kPreCommit;
    forces_issued_ = 0;
    forces_absorbed_ = 0;
    page_writes_foreground_ = 0;
    page_writes_background_ = 0;
    async_calls_issued_ = 0;
    messages_coalesced_ = 0;
    faults_injected_ = {};
    crash_recoveries_ = 0;
    log_tail_truncations_ = 0;
    log_tail_bytes_truncated_ = 0;
  }

 private:
  std::array<PrimitiveCounts, 2> buckets_{};
  Phase phase_ = Phase::kPreCommit;
  double forces_issued_ = 0;
  double forces_absorbed_ = 0;
  double page_writes_foreground_ = 0;
  double page_writes_background_ = 0;
  double async_calls_issued_ = 0;
  double messages_coalesced_ = 0;
  std::array<double, kFaultKindCount> faults_injected_{};
  double crash_recoveries_ = 0;
  double log_tail_truncations_ = 0;
  double log_tail_bytes_truncated_ = 0;
};

// RAII phase scope used by the Transaction Manager around commit processing.
class PhaseScope {
 public:
  PhaseScope(Metrics& m, Phase ph) : metrics_(m), saved_(m.phase()) { metrics_.SetPhase(ph); }
  ~PhaseScope() { metrics_.SetPhase(saved_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Metrics& metrics_;
  Phase saved_;
};

}  // namespace tabs::sim

#endif  // TABS_SIM_METRICS_H_
