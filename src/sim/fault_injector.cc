#include "src/sim/fault_injector.h"

#include <cassert>

namespace tabs::sim {

void FaultInjector::OnPoint(Substrate& sub, const char* name) {
  if (!armed_) {
    return;  // idle injector: FaultPointHit normally filters this already
  }
  int hit = ++counts_[name];
  if (hit == 1) {
    order_.emplace_back(name);
  }
  Scheduler& sched = sub.scheduler();
  bool in_task = sched.in_task();
  NodeId node = in_task ? sched.current()->node : kInvalidNode;
  if (recording_) {
    hits_.push_back({name, node, hit});
  }
  if (!in_task) {
    // Bootstrap-time hit (e.g. a force during World construction): there is
    // no task to crash or delay, so the plan cannot act here.
    return;
  }
  auto it = plan_.find(name);
  if (it != plan_.end() && hit == it->second.hit) {
    Armed armed = it->second;
    plan_.erase(it);  // each armed action fires exactly once
    RecomputeArmed();
    if (armed.crash) {
      CrashCurrentNode(sub);
      return;  // reached only when no crash handler is wired
    }
    sub.metrics().CountFault(FaultKind::kDelay);
    sched.Charge(armed.delay_us);
    sched.Yield();
    return;
  }
  if (delays_seeded_) {
    if (std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < delay_probability_) {
      auto delay = static_cast<SimTime>(
          std::uniform_int_distribution<std::int64_t>(1, max_delay_us_)(rng_));
      sub.metrics().CountFault(FaultKind::kDelay);
      sched.Charge(delay);
      sched.Yield();
    }
  }
}

void FaultInjector::ArmCrash(const std::string& point, int hit) {
  assert(hit >= 1);
  plan_[point] = Armed{/*crash=*/true, /*delay_us=*/0, hit};
  RecomputeArmed();
}

void FaultInjector::ArmDelay(const std::string& point, SimTime delay_us, int hit) {
  assert(hit >= 1 && delay_us > 0);
  plan_[point] = Armed{/*crash=*/false, delay_us, hit};
  RecomputeArmed();
}

void FaultInjector::ArmTornLogForce(int durable_sectors) {
  assert(durable_sectors >= 0);
  torn_force_sectors_ = durable_sectors;
}

void FaultInjector::Disarm() {
  plan_.clear();
  torn_force_sectors_ = -1;
  delays_seeded_ = false;
  delay_probability_ = 0;
  max_delay_us_ = 0;
  RecomputeArmed();
}

void FaultInjector::SeedDelays(std::uint64_t seed, double probability,
                               SimTime max_delay_us) {
  assert(probability >= 0 && probability <= 1 && max_delay_us >= 1);
  delays_seeded_ = true;
  rng_.seed(seed);
  delay_probability_ = probability;
  max_delay_us_ = max_delay_us;
  RecomputeArmed();
}

void FaultInjector::CrashCurrentNode(Substrate& sub) {
  Scheduler& sched = sub.scheduler();
  assert(sched.in_task() && "crash faults fire from inside a task");
  crash_fired_ = true;
  sub.metrics().CountFault(FaultKind::kCrash);
  if (crash_handler_) {
    // World::CrashNode: kills every task on the node — including this one,
    // by throwing TaskKilled out of the handler.
    crash_handler_(sched.current()->node);
  }
}

int FaultInjector::TakeTornLogForce() {
  int sectors = torn_force_sectors_;
  torn_force_sectors_ = -1;
  return sectors;
}

}  // namespace tabs::sim
