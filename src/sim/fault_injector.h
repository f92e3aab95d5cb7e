// Deterministic fault injection: the nemesis.
//
// The simulation's correctness argument hinges on narrow windows — between a
// log force and a page-out, between a prepare vote and the commit record,
// mid-checkpoint. Named fault points (FAULT_POINT) are wired through exactly
// those windows; the injector resolves each hit to crash-node, a bounded
// virtual-time delay, or no-op, per a scripted or seeded plan. Because the
// scheduler is deterministic and every decision is a pure function of the
// armed plan plus the schedule, any failing run replays exactly from its
// {seed, fault-point} pair — the FoundationDB-style simulation-testing
// discipline, applied to TABS.
//
// Everything defaults off. With no injector installed (or none armed) a hit
// is a single pointer null check: no virtual time, no metrics, no
// allocation on the simulation's hot path beyond hit bookkeeping when an
// injector is present.

#ifndef TABS_SIM_FAULT_INJECTOR_H_
#define TABS_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/substrate.h"

namespace tabs::sim {

class FaultInjector {
 public:
  struct PointHit {
    std::string point;
    NodeId node = kInvalidNode;  // kInvalidNode: hit outside any task
    int hit = 0;                 // 1-based per-point hit number
  };

  // Called from FAULT_POINT. Counts the hit, records it when recording, and
  // resolves it against the armed plan: crash the current node, charge a
  // delay, or do nothing. Crash and delay actions only fire inside a task.
  void OnPoint(Substrate& sub, const char* name);

  // True while anything could observe or act on a hit: recording, a scripted
  // plan, or seeded delays. FaultPointHit checks this before calling OnPoint,
  // so a disarmed injector costs one flag load per FAULT_POINT — no string
  // key, no map touch. Hit counting is therefore also gated on armed():
  // every consumer of counts (the two-pass exploration tests) starts
  // recording/arms its plan at the same post-setup position in both passes,
  // so per-point hit numbers stay pass-consistent.
  bool armed() const { return armed_; }

  // --- recording (crash-point enumeration pass) ---------------------------
  void StartRecording() {
    recording_ = true;
    hits_.clear();
    RecomputeArmed();
  }
  const std::vector<PointHit>& recorded_hits() const { return hits_; }
  // Distinct points in first-hit order (tracked whether or not recording).
  const std::vector<std::string>& distinct_points() const { return order_; }
  int HitCount(const std::string& point) const {
    auto it = counts_.find(point);
    return it == counts_.end() ? 0 : it->second;
  }

  // --- scripted plan ------------------------------------------------------
  // Crash the node whose task reaches `point` for the `hit`-th time.
  void ArmCrash(const std::string& point, int hit = 1);
  // Delay the task that reaches `point` for the `hit`-th time.
  void ArmDelay(const std::string& point, SimTime delay_us, int hit = 1);
  // The next LogManager::Force tears: only the first `durable_sectors`
  // sectors of the append land, the tail is lost, and the forcing node
  // crashes (a torn write models power loss mid-write).
  void ArmTornLogForce(int durable_sectors);
  // Disarms every scripted and seeded plan. Hit counts, the recording, and
  // the crash handler survive (exploration disarms before checking
  // invariants).
  void Disarm();

  bool crash_fired() const { return crash_fired_; }

  // --- seeded plan --------------------------------------------------------
  // Every subsequent point hit independently delays with `probability`, for
  // a uniform duration in [1, max_delay_us]. Deterministic: the RNG is
  // consumed in schedule order, which the scheduler fixes per seed.
  void SeedDelays(std::uint64_t seed, double probability, SimTime max_delay_us);

  // --- wiring -------------------------------------------------------------
  // World installs CrashNode here. The handler is expected to kill the
  // current task (by throwing sim::TaskKilled through KillWhere).
  void SetCrashHandler(std::function<void(NodeId)> handler) {
    crash_handler_ = std::move(handler);
  }
  // Crash the node of the current task, counting a kCrash fault. Used by
  // OnPoint and by the torn-log-force path in LogManager.
  void CrashCurrentNode(Substrate& sub);

  // Consumed by LogManager::Force: >= 0 is the armed durable-sector count
  // (fires once), -1 means no torn force armed.
  int TakeTornLogForce();

 private:
  struct Armed {
    bool crash = false;
    SimTime delay_us = 0;
    int hit = 1;
  };

  void RecomputeArmed() { armed_ = recording_ || !plan_.empty() || delays_seeded_; }

  bool armed_ = false;
  std::map<std::string, Armed> plan_;
  std::map<std::string, int> counts_;
  std::vector<std::string> order_;
  std::vector<PointHit> hits_;
  bool recording_ = false;
  bool crash_fired_ = false;
  int torn_force_sectors_ = -1;
  std::function<void(NodeId)> crash_handler_;
  bool delays_seeded_ = false;
  std::mt19937_64 rng_;
  double delay_probability_ = 0;
  SimTime max_delay_us_ = 0;
};

// The hook the load-bearing windows compile in. Free when no injector is
// installed or the installed one is idle: a pointer load plus a flag load,
// zero virtual time, no map or string work.
inline void FaultPointHit(Substrate& sub, const char* name) {
  FaultInjector* f = sub.faults();
  if (f != nullptr && f->armed()) {
    f->OnPoint(sub, name);
  }
}

#define FAULT_POINT(substrate, name) ::tabs::sim::FaultPointHit((substrate), (name))

}  // namespace tabs::sim

#endif  // TABS_SIM_FAULT_INJECTOR_H_
