// Paxos Commit's verdict store (see paxos_commit.h for the protocol
// overview): the leader's ballot-0 decision, the acceptor role, and takeover.
//
// The commit engine (two_phase_commit.cc) runs everything else — prepares,
// votes, prepare and commit records, outcome propagation — exactly as for
// 2PC, so a transaction committed under kPaxosCommit pays the 2PC prices plus
// the acceptor traffic, which is what bench/commit_ablation measures.

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/log/group_commit.h"
#include "src/sim/fault_injector.h"
#include "src/txn/transaction_manager.h"

namespace tabs::txn {

using log::LogRecord;
using log::RecordType;
using recovery::TxnOutcome;

namespace {
// Ballot b belongs to node (b % kBallotStride) in round (b / kBallotStride):
// concurrent takeover leaders can never mint the same ballot, and a leader
// that loses phase 1 leapfrogs the winner by jumping past its round.
constexpr Ballot kBallotStride = 1024;
// Base unit of the takeover retry backoff: multiplied by the attempt number
// and the node id, so no two nodes ever share a retry schedule.
constexpr SimTime kTakeoverBackoffUs = 50'000;

// The accepted value of `participant`'s instance in an acceptor's `accepted`
// (ascending by participant). With `insert`, an instance that has none gets
// one in its place (ballot -1, no vote) for the caller to fill in.
InstanceValue* Accepted(sim::SmallList<InstanceValue>& accepted, NodeId participant, bool insert) {
  InstanceValue* at =
      std::ranges::lower_bound(accepted, participant, {}, &InstanceValue::participant);
  if (at != accepted.end() && at->participant == participant) {
    return at;
  }
  if (!insert) {
    return nullptr;
  }
  std::ptrdiff_t i = at - accepted.begin();
  accepted.push_back(InstanceValue{participant, -1, Vote::kNone});
  std::rotate(accepted.begin() + i, accepted.end() - 1, accepted.end());
  return accepted.begin() + i;
}
}  // namespace

CommitMode DefaultCommitMode() {
  const char* mode = std::getenv("TABS_COMMIT_MODE");
  if (mode != nullptr && std::strcmp(mode, "paxos") == 0) {
    return CommitMode::kPaxosCommit;
  }
  return CommitMode::kTwoPhase;
}

// --- PaxosCommit helpers -----------------------------------------------------

NodeId PaxosCommit::self() const { return tm_.node_.id(); }

Ballot PaxosCommit::NextBallot() {
  ++takeover_round_;
  return static_cast<Ballot>(takeover_round_) * kBallotStride +
         static_cast<Ballot>(self() % kBallotStride);
}

sim::SmallList<NodeId> PaxosCommit::ChooseAcceptors(const TransactionId& tid) const {
  const auto& members = *tm_.peers_;  // includes dead nodes: pure function of membership
  size_t want = std::min(static_cast<size_t>(2 * f_ + 1), members.size());
  if (want % 2 == 0) {
    --want;  // an even set tolerates no more failures than the next odd one down
  }
  size_t start = (tid.counter() + tid.node) % members.size();
  auto it = std::next(members.begin(), static_cast<std::ptrdiff_t>(start));
  sim::SmallList<NodeId> out;
  while (out.size() < want) {
    out.push_back(it->first);
    if (++it == members.end()) {
      it = members.begin();
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Lsn PaxosCommit::AppendRecord(RecordType type, const TransactionId& tid, Ballot ballot,
                              std::span<const InstanceValue> values) {
  assert(!values.empty());
  LogRecord& rec = record_;
  rec.type = type;
  rec.owner = tid;
  rec.top = tid;
  rec.paxos_ballot = ballot;
  rec.paxos_participant = values.front().participant;
  rec.paxos_vote = static_cast<std::int8_t>(values.front().vote);
  rec.paxos_extra.clear();
  for (const InstanceValue& v : values.subspan(1)) {
    rec.paxos_extra.push_back({v.participant, static_cast<std::int8_t>(v.vote)});
  }
  AcceptorState& st = states_[tid];
  if (type == RecordType::kPaxosAccept) {
    for (const InstanceValue& v : values) {
      *Accepted(st.accepted, v.participant, true) = InstanceValue{v.participant, ballot, v.vote};
    }
  }
  Lsn lsn = tm_.rm_.log().Append(rec);
  if (st.first_lsn == kNullLsn) {
    st.first_lsn = lsn;
  }
  return lsn;
}

// --- leader side ---------------------------------------------------------------

int PaxosCommit::Decide(const TransactionId& tid, std::span<const NodeId> participants,
                        std::span<const NodeId> acceptors, Vote local,
                        std::span<const VoteMsg> votes, Lsn prepare_lsn, bool* learn) {
  sim::Substrate& sub = tm_.node_.substrate();
  bool any_prepared = local == Vote::kPrepared;
  bool any_aborted = false;
  for (const VoteMsg& v : votes) {
    any_prepared = any_prepared || v.vote == Vote::kPrepared;
    any_aborted = any_aborted || v.vote == Vote::kAborted;
  }
  if (votes.size() + 1 == participants.size()) {  // every vote arrived
    if (!any_prepared) {
      // Read-only fast path (see paxos_commit.h): nothing is Prepared
      // anywhere, so no instance needs deciding and no acceptor a force.
      FAULT_POINT(sub, "paxos.readonly-skip");
      return any_aborted ? -1 : 1;
    }
    // The accept round, coalesced: one bundle datagram per acceptor carries
    // every instance's ballot-0 value. ReadOnly instances ride along too — a
    // takeover derives its value list from the same participant set, so
    // every instance must be decidable from any acceptance quorum.
    sim::SmallList<InstanceValue> values;
    for (NodeId p : participants) {
      Vote v = local;
      for (const VoteMsg& m : votes) {
        v = m.from == p ? m.vote : v;
      }
      values.push_back(InstanceValue{p, 0, v});
    }
    sim::Scheduler& sched = sub.scheduler();
    auto replies = sim::MakeShared<sim::Replies<PaxosAccepted>>(sched, sched);
    size_t sent = SendAcceptBundles(tid, values, acceptors, replies, prepare_lsn);
    // F+1 distinct acceptors decide; a duplicated reply counts once.
    const size_t quorum = Quorum(acceptors);
    SimTime deadline = sched.Now() + tm_.vote_timeout_;
    while (replies->senders() < std::min(sent, quorum)) {
      std::optional<PaxosAccepted> a = replies->Next(deadline);
      if (!a) {
        break;
      }
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM: 2b arrived
      replies->First(a->from);
    }
    if (replies->senders() >= quorum) {
      // The decision point: F+1 acceptors hold a durable acceptance of EVERY
      // instance (a bundle is atomic at its acceptor), so any future
      // takeover quorum intersects them and must choose the same values —
      // commit when every vote is Prepared/ReadOnly, abort when an Aborted
      // vote rode along.
      *learn = true;
      return any_aborted ? -1 : 1;
    }
    // Timed out short of a quorum. Presumed abort is UNSOUND here: F+1
    // acceptors may have logged the bundle while their replies were lost,
    // making the transaction committed at the acceptors.
  }
  // A vote never arrived (its participant may be crashed holding a durable
  // prepare), or the round fell short of a quorum. Either way the outcome is
  // decided and learned at the acceptors, where a crashed participant's
  // recovery will look for it.
  return Resolve(tid, participants, acceptors);
}

size_t PaxosCommit::SendAcceptBundles(const TransactionId& tid,
                                      const sim::SmallList<InstanceValue>& values,
                                      std::span<const NodeId> acceptors,
                                      const sim::RepliesPtr<PaxosAccepted>& replies,
                                      Lsn prepare_lsn) {
  sim::Substrate& sub = tm_.node_.substrate();
  NodeId me = self();
  // The local acceptor runs first, before anything reaches the wire: its
  // forced acceptance covers the caller's deferred prepare record (lower
  // LSN, same stable write), upholding the invariant that no remote quorum
  // can decide Prepared for this coordinator's instance while the
  // coordinator's redo is volatile.
  bool local = std::find(acceptors.begin(), acceptors.end(), me) != acceptors.end();
  if (local && AcceptBundle(tid, 0, values)) {
    replies->Push(PaxosAccepted{me, 0, true});
  } else if (prepare_lsn != kNullLsn) {
    // No local acceptance to ride on (or a stale one): force it directly.
    tm_.ForceLsn(prepare_lsn);
  }
  return tm_.ToPeers(acceptors, [] {}, [&](NodeId a, TransactionManager* atm) {
    // Crash window: this bundle is about to leave while bundles for other
    // acceptors of the same transaction may already be on the wire.
    FAULT_POINT(sub, "comm.accept-bundle");
    tm_.cm_.SendDatagram(a, "paxos-bundle", [atm, a, tid, values = values, me, replies] {
      if (atm->paxos_->AcceptBundle(tid, 0, values)) {
        atm->cm_.SendDatagram(me, "paxos-accepted",
                              [replies, a] { replies->Push(PaxosAccepted{a, 0, true}); });
      }
    });
  });
}

int PaxosCommit::Resolve(const TransactionId& tid, std::span<const NodeId> participants,
                         std::span<const NodeId> acceptors) {
  // One takeover leader per transaction per node: the crash sweep and a
  // manual ResolveInDoubt would otherwise duel each other with competing
  // ballots from the SAME node. Later callers park until the verdict.
  auto running = takeovers_.find(tid);
  if (running != takeovers_.end()) {
    sim::FuturePtr<int> verdict = running->second;  // the leader erases the entry
    return verdict->Await(tm_.vote_timeout_) ? verdict->value() : 0;
  }
  sim::Scheduler& sched = tm_.node_.substrate().scheduler();
  auto verdict = sim::MakeShared<sim::Future<int>>(sched, sched);
  takeovers_.emplace(tid, verdict);
  int outcome = RunTakeover(tid, participants, acceptors);
  takeovers_.erase(tid);
  verdict->Fulfil(outcome);
  return outcome;
}

int PaxosCommit::RunTakeover(const TransactionId& tid, std::span<const NodeId> participants,
                             std::span<const NodeId> acceptors) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "paxos.takeover",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  // Takeover is starting but nothing durable has happened: a crash here
  // leaves the transaction in doubt for the next standby leader.
  FAULT_POINT(sub, "paxos.takeover");
  NodeId me = self();
  const size_t quorum = Quorum(acceptors);

  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) {
      // Competing takeover leaders on different nodes would otherwise
      // outpromise each other forever. A node-keyed backoff (deterministic:
      // no randomness in the simulation) makes one leader retry strictly
      // before the others, so its round runs uncontended.
      sched.Charge(kTakeoverBackoffUs * static_cast<SimTime>(attempt) *
                   static_cast<SimTime>(1 + self() % kBallotStride));
      sched.Yield();
    }
    Ballot b = NextBallot();

    // ---- phase 1: promises from an acceptor quorum ----
    auto promises = sim::MakeShared<sim::Replies<PaxosPromise>>(sched, sched);
    size_t sent = tm_.ToPeers(
        acceptors, [&] { promises->Push(Promise(tid, b)); },
        [&](NodeId a, TransactionManager* atm) {
          tm_.cm_.SendDatagram(a, "paxos-ballot", [atm, tid, b, me, promises] {
            PaxosPromise p = atm->paxos_->Promise(tid, b);
            atm->cm_.SendDatagram(me, "paxos-promise", [promises, p] { promises->Push(p); });
          });
        });

    // Each acceptor answers once. A duplicated ballot makes an acceptor
    // reply twice: an ok after its promise force, and a nok for the ballot it
    // already promised, which needs no force and so arrives first. That nok
    // is an echo of this round, not a rival's, so it is not counted.
    std::vector<PaxosPromise> oks;
    Ballot highest = b;
    SimTime deadline = sched.Now() + tm_.vote_timeout_;
    while (promises->senders() < sent && oks.size() < quorum) {
      std::optional<PaxosPromise> p = promises->Next(deadline);
      if (!p) {
        break;
      }
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM
      if (p->learned != 0) {
        return p->learned;  // an acceptor already knows the outcome: adopt it
      }
      if ((!p->ok && p->promised == b) || !promises->First(p->from)) {
        continue;
      }
      if (p->ok) {
        oks.push_back(std::move(*p));
      } else {
        highest = std::max(highest, p->promised);
      }
    }
    if (oks.size() < quorum) {
      if (highest <= b) {
        return 0;  // no quorum reachable: still in doubt, locks stay held
      }
      // A competing takeover holds a higher ballot: leapfrog its round.
      takeover_round_ = std::max(takeover_round_, highest / kBallotStride);
      continue;
    }

    // ---- value selection: for each instance the highest-ballot accepted
    // vote anywhere in the quorum; Aborted for instances no quorum member
    // has accepted (quorum intersection: a ballot-0 decision always leaves
    // at least one acceptance in ANY quorum, so a free choice is safe).
    sim::SmallList<InstanceValue> values;
    for (NodeId part : participants) {
      InstanceValue chosen{part, 0, Vote::kAborted};
      bool found = false;
      for (const PaxosPromise& p : oks) {
        for (const InstanceValue& iv : p.accepted) {
          if (iv.participant != part) {
            continue;
          }
          if (!found || iv.ballot > chosen.ballot) {
            chosen.ballot = iv.ballot;
            chosen.vote = iv.vote;
          }
          found = true;
        }
      }
      values.push_back(chosen);
    }

    // ---- phase 2: accept-all at ballot b ----
    auto acks = sim::MakeShared<sim::Replies<PaxosAccepted>>(sched, sched);
    size_t sent2 = tm_.ToPeers(
        acceptors, [&] { acks->Push(PaxosAccepted{me, b, AcceptAll(tid, b, values)}); },
        [&](NodeId a, TransactionManager* atm) {
          tm_.cm_.SendDatagram(a, "paxos-accept", [atm, tid, b, me, a, values, acks] {
            PaxosAccepted r{a, b, atm->paxos_->AcceptAll(tid, b, values)};
            atm->cm_.SendDatagram(me, "paxos-accept-ack", [acks, r] { acks->Push(r); });
          });
        });

    // F+1 distinct acceptors decide; a duplicated ack counts once.
    size_t got = 0;
    bool nacked = false;
    deadline = sched.Now() + tm_.vote_timeout_;
    while (acks->senders() < sent2 && got < quorum) {
      std::optional<PaxosAccepted> r = acks->Next(deadline);
      if (!r) {
        break;
      }
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM
      if (!acks->First(r->from)) {
        continue;
      }
      if (r->ok) {
        ++got;
      } else {
        nacked = true;
      }
    }
    if (got < quorum) {
      if (!nacked) {
        return 0;  // acceptors fell silent mid-phase-2: still in doubt
      }
      continue;  // outpromised between our phases: retry with a fresh ballot
    }

    // ---- decided: F+1 acceptors logged every instance's value ----
    int outcome = 1;
    for (const InstanceValue& v : values) {
      if (v.vote == Vote::kAborted) {
        outcome = -1;
      }
    }
    // The decision stands at the acceptors but no learn/verdict datagram is
    // out yet: a crash here re-resolves to the SAME outcome (phase 1 of the
    // next takeover must see our phase-2 acceptances).
    FAULT_POINT(sub, "paxos.learn");
    BroadcastLearn(tid, outcome, acceptors);
    bool committed = outcome > 0;
    for (NodeId part : participants) {
      if (part == me) {
        continue;
      }
      TransactionManager* ptm = tm_.Peer(part);
      if (ptm == nullptr) {
        continue;  // dead participant learns through ResolveInDoubt at recovery
      }
      tm_.cm_.SendDatagram(part, "paxos-verdict",
                           [ptm, tid, committed] { ptm->ApplyVerdict(tid, committed); });
    }
    return outcome;
  }
  return 0;  // repeatedly outpromised: give up for now, a later sweep retries
}

void PaxosCommit::BroadcastLearn(const TransactionId& tid, int outcome,
                                 std::span<const NodeId> acceptors) {
  for (NodeId a : acceptors) {
    if (a == self()) {
      Learn(tid, outcome);
      continue;
    }
    TransactionManager* atm = tm_.Peer(a);
    if (atm == nullptr) {
      continue;
    }
    PaxosCommit* ap = atm->paxos_.get();
    tm_.cm_.SendDatagram(a, "paxos-learn", [ap, tid, outcome] { ap->Learn(tid, outcome); });
  }
}

// --- acceptor side -----------------------------------------------------------

bool PaxosCommit::AcceptBundle(const TransactionId& tid, Ballot ballot,
                               std::span<const InstanceValue> values) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "paxos.accept",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);  // CM -> TM, TM -> CM
  AcceptorState& st = states_[tid];
  if (st.learned != 0 || st.promised > ballot) {
    // A takeover moved past this ballot (or the outcome is already known):
    // acknowledging a stale bundle now could hand the original leader a
    // quorum that contradicts the takeover's decision. Stay silent — the
    // leader learns the truth through the phase-1 read path instead.
    return false;
  }
  bool duplicate = true;
  for (const InstanceValue& v : values) {
    // Only looks: the fault point below may yield before the record fills
    // the values in, and a promise meanwhile must not report a blank one.
    const InstanceValue* a = Accepted(st.accepted, v.participant, false);
    if (a == nullptr || a->ballot != ballot || a->vote != v.vote) {
      duplicate = false;
      break;
    }
  }
  if (!duplicate) {
    // The acceptances are volatile: a crash here and this acceptor never
    // accepted — takeover still reaches a correct decision from the rest.
    // One forced record covers every instance in the bundle: the per-tid
    // force count on an acceptor is 1 regardless of participant count.
    FAULT_POINT(sub, "paxos.accept-log");
    tm_.ForceLsn(AppendRecord(RecordType::kPaxosAccept, tid, ballot, values));
  }
  // The acceptances are durable but unreported: the leader times out and the
  // takeover path must find them here during phase 1.
  FAULT_POINT(sub, "paxos.accept-send");
  return true;
}

PaxosPromise PaxosCommit::Promise(const TransactionId& tid, Ballot ballot) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);  // CM -> TM, TM -> CM
  AcceptorState& st = states_[tid];
  PaxosPromise p;
  p.from = self();
  if (st.learned != 0) {
    // Decided long ago: short-circuit with the outcome, no ballot movement.
    p.ok = true;
    p.promised = st.promised;
    p.learned = st.learned;
    return p;
  }
  if (ballot <= st.promised) {
    p.ok = false;
    p.promised = st.promised;
    return p;
  }
  st.promised = ballot;
  // The promise must survive this acceptor's crash, or a recovered acceptor
  // could accept a lower ballot it already promised away.
  const InstanceValue promise{kInvalidNode, ballot, Vote::kNone};
  tm_.ForceLsn(AppendRecord(RecordType::kPaxosPromise, tid, ballot, {&promise, 1}));
  p.ok = true;
  p.promised = ballot;
  p.accepted = st.accepted;
  return p;
}

bool PaxosCommit::AcceptAll(const TransactionId& tid, Ballot ballot,
                            std::span<const InstanceValue> values) {
  sim::Substrate& sub = tm_.node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);  // CM -> TM, TM -> CM
  AcceptorState& st = states_[tid];
  if (st.learned != 0) {
    return true;  // decided: any consistent leader proposes the same outcome
  }
  if (ballot < st.promised) {
    return false;
  }
  st.promised = ballot;
  FAULT_POINT(sub, "paxos.accept-log");
  if (!values.empty()) {
    // One multi-instance record, one force — same shape as a ballot-0 bundle.
    tm_.ForceLsn(AppendRecord(RecordType::kPaxosAccept, tid, ballot, values));
  }
  return true;
}

void PaxosCommit::Learn(const TransactionId& tid, int outcome) {
  AcceptorState& st = states_[tid];
  if (st.learned == outcome) {
    return;  // duplicate learn datagram
  }
  st.learned = outcome;
  // Unforced: losing a learn record only costs a takeover round later.
  const InstanceValue learned{kInvalidNode, 0, outcome > 0 ? Vote::kPrepared : Vote::kAborted};
  AppendRecord(RecordType::kPaxosLearn, tid, 0, {&learned, 1});
  tm_.node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);
}

// --- recovery ----------------------------------------------------------------

void PaxosCommit::ObserveRecord(const log::LogRecord& rec) {
  AcceptorState& st = states_[rec.top];
  if (st.first_lsn == kNullLsn && rec.lsn != kNullLsn) {
    st.first_lsn = rec.lsn;
  }
  switch (rec.type) {
    case RecordType::kPaxosPromise:
      st.promised = std::max(st.promised, rec.paxos_ballot);
      break;
    case RecordType::kPaxosAccept: {
      st.promised = std::max(st.promised, rec.paxos_ballot);
      // A batched accept carries one instance in the head fields and the
      // rest in paxos_extra, all at the same ballot: replay each one.
      auto replay = [&st, &rec](NodeId participant, std::int8_t vote) {
        InstanceValue* a = Accepted(st.accepted, participant, true);
        if (a->ballot <= rec.paxos_ballot) {
          *a = InstanceValue{participant, rec.paxos_ballot, static_cast<Vote>(vote)};
        }
      };
      replay(rec.paxos_participant, rec.paxos_vote);
      for (const log::LogRecord::PaxosExtra& e : rec.paxos_extra) {
        replay(e.participant, e.vote);
      }
      break;
    }
    case RecordType::kPaxosLearn:
      st.learned = rec.paxos_vote > 0 ? 1 : -1;
      break;
    default:
      break;
  }
}

std::vector<recovery::RecoveryManager::ActiveTxn> PaxosCommit::PinnedInstances() const {
  std::vector<recovery::RecoveryManager::ActiveTxn> out;
  for (const auto& [tid, st] : states_) {
    if (st.learned != 0 || st.first_lsn == kNullLsn) {
      continue;
    }
    recovery::RecoveryManager::ActiveTxn at;
    at.owner = tid;
    at.top = tid;
    at.prepared = true;  // undecided acceptor state pins like an in-doubt txn
    at.first_lsn = st.first_lsn;
    out.push_back(at);
  }
  return out;
}

}  // namespace tabs::txn
