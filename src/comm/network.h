// The simulated network connecting TABS nodes.
//
// TABS uses three forms of network communication (Section 3.2.4): reliable
// session communication for remote procedure calls, datagrams for the
// distributed two-phase commit, and broadcasting for name lookup. This class
// provides all three with virtual-time semantics:
//
//  * A session call blocks the caller, runs its handler in a task on the
//    destination node, and resumes the caller at the handler's finish time
//    plus transit — so remote latency composes exactly as the paper's
//    primitive analysis assumes. Sessions deliver at-most-once and detect
//    remote crashes (a dead or crashing destination surfaces as kNodeDown).
//  * A datagram is fire-and-forget: the handler task starts one datagram
//    time after the send, and the sender's clock does not advance. Loss can
//    be injected per (from, to) pair for protocol tests.
//  * Broadcast sends a datagram to every other live node.
//
// Handlers are C++ closures rather than serialized byte messages: this plays
// the role Matchmaker-generated stubs played in TABS (packing/unpacking was
// never protocol-visible). Like Accent's fixed-shape typed messages, a
// handler travels inline in its delivery task (sim::TaskFn): a session
// call's handler is a template parameter all the way down, so the nested
// layers become one closure, type-erased once when the task is spawned.
// Handler tasks are tagged with the destination node, so a node crash kills
// in-flight handlers exactly like process death.

#ifndef TABS_COMM_NETWORK_H_
#define TABS_COMM_NETWORK_H_

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/sim/substrate.h"

namespace tabs::comm {

class Network {
 public:
  static constexpr SimTime kDefaultSessionTimeout = 30'000'000;  // 30 s virtual

  explicit Network(sim::Substrate& substrate) : substrate_(substrate) {}

  void AddNode(NodeId id) { alive_.insert(id); }
  bool IsAlive(NodeId id) const { return alive_.contains(id); }
  void SetAlive(NodeId id, bool alive) {
    if (alive) {
      alive_.insert(id);
    } else {
      alive_.erase(id);
    }
  }

  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  bool Reachable(NodeId from, NodeId to) const;

  // Drop filter for datagrams: return true to drop. It sees the datagram's
  // `what` label too, so tests can lose one protocol message class (e.g.
  // every "2pc-commit") while the rest of the traffic flows. Cleared by
  // passing {}.
  void SetDatagramLoss(
      std::function<bool(NodeId from, NodeId to, const std::string& what)> drop) {
    drop_ = std::move(drop);
  }

  // Loss filter for session traffic (establishment and sends): a dropped
  // session call surfaces to the caller as kNodeDown — the session layer's
  // at-most-once machinery detects the break and gives up, rather than the
  // silent loss datagrams get. Cleared by passing {}.
  void SetSessionLoss(std::function<bool(NodeId from, NodeId to)> drop) {
    session_drop_ = std::move(drop);
  }

  // Seeded datagram-level faults: each send independently rolls for
  // duplication (a second delivery of the same handler) and for bounded
  // delay jitter (which reorders datagrams relative to program order, since
  // an early send can arrive after a later one). Deterministic: one RNG,
  // consumed in send order, which the scheduler fixes per seed. Disabled by
  // default and by `SetDatagramFaults({})`.
  struct DatagramFaults {
    std::uint64_t seed = 0;
    double duplicate_probability = 0;
    double jitter_probability = 0;
    SimTime max_jitter_us = 0;
  };
  void SetDatagramFaults(const DatagramFaults& faults);

  // --- session RPC ----------------------------------------------------------
  // Runs `handler` (a callable returning Result<R>) on node `to` and returns
  // its value. Charges one inter-node data-server-call primitive split across
  // the two transits. R must be movable. On unreachable/crashed destination
  // returns kNodeDown. The call is AsyncSessionCall awaited — both share one
  // issue path — so a blocking call and an awaited pipelined one charge and
  // fail identically.
  template <typename R, typename F>
  Result<R> SessionCall(NodeId from, NodeId to, std::string what, F handler,
                        SimTime timeout = kDefaultSessionTimeout) {
    // The whole RPC — outbound transit, remote work, reply wait — is one
    // session span; the remote handler's own spans attribute the middle.
    sim::SpanGuard span(substrate_.tracer(), sim::Component::kCommunicationManager,
                        "session.call", substrate_.tracer().enabled() ? what : std::string());
    auto reply = Issue<R>(from, to, std::move(what), std::move(handler), NoCompletion{});
    if (!reply->Await(timeout)) {
      return Status::kNodeDown;  // session broken: remote crash detected
    }
    return std::move(reply->value());
  }

  // Like SessionCall, but the caller does not block: the returned future is
  // fulfilled when the reply arrives (at the reply's virtual time, so the
  // awaiting task joins to it exactly as a blocking call would).
  //
  // `handler` returns a Result<R> so remote-operation failures and
  // session-layer failures (kNodeDown) share the future's payload — the
  // await site sees one flat Result either way.
  //
  // `on_complete` (optional) runs exactly once when the session resolves
  // without the destination crashing: at reply delivery, or synchronously on
  // an immediate failure (unreachable destination, injected session drop).
  // If the destination dies with the call in flight it never runs and the
  // future stays empty — the caller's Await(timeout) detects the broken
  // session.
  struct NoCompletion {
    void operator()() const {}
  };
  template <typename R, typename F, typename C = NoCompletion>
  sim::FuturePtr<Result<R>> AsyncSessionCall(NodeId from, NodeId to, std::string what,
                                             F handler, C on_complete = {}) {
    // The issue side is a short span: only the outbound transit runs on the
    // caller; the remote work and return transit attribute to the delivery
    // task (the "session.reply" span).
    sim::SpanGuard span(substrate_.tracer(), sim::Component::kCommunicationManager,
                        "session.async-send",
                        substrate_.tracer().enabled() ? what : std::string());
    return Issue<R>(from, to, std::move(what), std::move(handler), std::move(on_complete));
  }

  // --- datagrams -------------------------------------------------------------
  // Fire-and-forget. The handler runs on `to` one datagram-time later; the
  // sender does not block and its clock does not advance.
  void SendDatagram(NodeId from, NodeId to, std::string what, sim::TaskFn handler);

  // Datagram to every live node except the sender. `handler(node)` runs on
  // each destination.
  void Broadcast(NodeId from, std::string what, std::function<void(NodeId)> handler);

  sim::Substrate& substrate() { return substrate_; }

 private:
  // The one session issue path: charges one inter-node call primitive — half
  // as outbound transit on the sender now, half as return transit on the
  // delivery task — and returns the reply future. An unreachable destination
  // or an injected session drop resolves it at once with kNodeDown; a
  // destination that dies with the call in flight leaves it empty. The
  // handler and the completion hook travel inside the delivery task's
  // closure, type-erased once, by Spawn.
  template <typename R, typename F, typename C>
  sim::FuturePtr<Result<R>> Issue(NodeId from, NodeId to, std::string what, F handler,
                                  C on_complete) {
    sim::Scheduler& sched = substrate_.scheduler();
    auto future = sim::MakeShared<sim::Future<Result<R>>>(sched, sched);
    auto fail_now = [&] {
      on_complete();
      future->Fulfil(Status::kNodeDown);
      return future;
    };
    if (!Reachable(from, to)) {
      // Permanent communication failure detected by the session layer.
      substrate_.Charge(sim::Primitive::kInterNodeDataServerCall);
      return fail_now();
    }
    if (session_drop_ && session_drop_(from, to)) {
      // Injected loss on the session: establishment/send fails and the
      // at-most-once session layer reports the broken session to the caller.
      substrate_.Charge(sim::Primitive::kInterNodeDataServerCall);
      substrate_.metrics().CountFault(sim::FaultKind::kSessionDrop);
      return fail_now();
    }
    substrate_.metrics().Count(sim::Primitive::kInterNodeDataServerCall);
    if (substrate_.tracer().enabled() && sched.in_task()) {
      substrate_.tracer().Record(sched.Now(), from,
                                 sim::PrimitiveName(sim::Primitive::kInterNodeDataServerCall),
                                 what);
    }
    sched.Charge(HalfSessionCall());  // outbound transit — sends serialize at the sender
    // `from` comes last, where it shares the hook's padding.
    sched.Spawn(std::move(what), to, sched.Now(),
                [this, future, handler = std::move(handler),
                 on_complete = std::move(on_complete), from] {
                  if (!IsAlive(from)) {
                    return;  // sender died in transit: no session to reply
                             // on — discard instead of creating orphan state
                  }
                  Result<R> r = handler();
                  {
                    sim::SpanGuard recv(substrate_.tracer(),
                                        sim::Component::kCommunicationManager, "session.reply");
                    substrate_.scheduler().Charge(HalfSessionCall());  // return transit
                  }
                  on_complete();
                  future->Fulfil(std::move(r));
                });
    return future;
  }

  SimTime HalfSessionCall() const {
    return substrate_.CostOf(sim::Primitive::kInterNodeDataServerCall) / 2;
  }

  sim::Substrate& substrate_;
  std::set<NodeId> alive_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max)
  std::function<bool(NodeId, NodeId, const std::string&)> drop_;
  std::function<bool(NodeId, NodeId)> session_drop_;
  DatagramFaults datagram_faults_;
  bool datagram_faults_enabled_ = false;
  std::mt19937_64 fault_rng_;
};

}  // namespace tabs::comm

#endif  // TABS_COMM_NETWORK_H_
