// Substrate: the bundle of scheduler + cost model + metrics that every TABS
// component charges primitive operations against.
//
// Charging a primitive does two things: it advances the running task's
// virtual clock by the primitive's configured time (Table 5-1 or 5-5), and it
// increments the per-phase counter used to regenerate Tables 5-2/5-3.

#ifndef TABS_SIM_SUBSTRATE_H_
#define TABS_SIM_SUBSTRATE_H_

#include "src/sim/cost_model.h"
#include "src/sim/metrics.h"
#include "src/sim/scheduler.h"
#include "src/sim/tracer.h"

namespace tabs::sim {

class FaultInjector;

class Substrate {
 public:
  Substrate(Scheduler& sched, CostModel costs, ArchitectureModel arch)
      : sched_(sched), costs_(costs), arch_(arch) {
    tracer_.Bind(&sched_);
  }

  Scheduler& scheduler() { return sched_; }
  const CostModel& costs() const { return costs_; }
  const ArchitectureModel& arch() const { return arch_; }
  Metrics& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }

  // The nemesis, when one is installed (World owns it). Null by default:
  // FAULT_POINT hooks compile to a single null check and the simulation is
  // bit-for-bit what it was before fault injection existed.
  FaultInjector* faults() { return faults_; }
  void SetFaultInjector(FaultInjector* f) { faults_ = f; }

  // Charges one (or fractionally, `n`) primitive operation to the running
  // task and counts it in the current phase.
  void Charge(Primitive p, double n = 1.0) {
    metrics_.Count(p, n);
    auto cost = static_cast<SimTime>(static_cast<double>(costs_.Of(p)) * n);
    sched_.Charge(cost);
    if (tracer_.enabled() && sched_.in_task()) {
      tracer_.RecordPrimitive(p, sched_.Now(), sched_.current()->node, sched_.current()->name,
                              cost);
    }
  }

  // The cost of `p` without charging it (for modelling parallel sends, where
  // the sender pays per-send CPU but deliveries overlap).
  SimTime CostOf(Primitive p) const { return costs_.Of(p); }

  // A local Accent message addressed to the Transaction Manager or Recovery
  // Manager. Under the Improved TABS Architecture these components are merged
  // into the kernel, so the message disappears entirely (Section 5.3).
  void ChargeSystemMessage(Primitive p, double n = 1.0) {
    if (arch_.improved || suppress_system_messages_ > 0) {
      return;
    }
    Charge(p, n);
  }

  // Scope under which system messages are free: background activity (the
  // page cleaner between transactions) exchanges kernel/RM messages off any
  // transaction's critical path, so the paper's per-transaction counts
  // include its I/O but not its messages.
  class BackgroundScope {
   public:
    explicit BackgroundScope(Substrate& s) : s_(s) { ++s_.suppress_system_messages_; }
    ~BackgroundScope() { --s_.suppress_system_messages_; }
    BackgroundScope(const BackgroundScope&) = delete;
    BackgroundScope& operator=(const BackgroundScope&) = delete;

   private:
    Substrate& s_;
  };

 private:
  Scheduler& sched_;
  CostModel costs_;
  ArchitectureModel arch_;
  Metrics metrics_;
  Tracer tracer_;
  FaultInjector* faults_ = nullptr;
  int suppress_system_messages_ = 0;
};

}  // namespace tabs::sim

#endif  // TABS_SIM_SUBSTRATE_H_
