// The commit engine: tree-structured two-phase commit (Section 3.2.3) for
// both commit modes, plus subtransaction commit/abort propagation.
//
// Every node coordinates its own children in the transaction's spanning tree
// (built by the Communication Managers as operations flowed). Prepares and
// votes travel as datagrams — "TABS has been careful to use datagrams for
// communication during transaction commit" (Section 2.1.2). The protocol
// includes the read-only optimization: a subtree with no updates votes
// read-only, releases its locks at prepare time, and drops out of phase two.
//
// Two-phase commit is Paxos Commit with no acceptors (Gray & Lamport), so one
// engine runs both modes: prepare fan-out, the local prepare, vote
// collection, and the commit and abort tails exist once. The modes differ
// only where the verdict becomes durable — the coordinator's forced commit
// record, or an acceptor quorum (PaxosCommit::Decide) — and where an
// in-doubt participant learns it (ResolveInDoubt). A transaction whose
// coordinator chose an acceptor set is decided at those acceptors.
//
// Under ArchitectureModel::Improved (Section 5.3), phase two of a
// distributed write commit leaves the latency-critical path: the coordinator
// returns to the application as soon as the commit record is stable and the
// commit datagrams are on the wire.

#include <algorithm>
#include <cassert>
#include <memory>

#include "src/sim/fault_injector.h"
#include "src/txn/transaction_manager.h"

namespace tabs::txn {

using log::LogRecord;
using log::RecordType;
using recovery::TxnOutcome;

TransactionManager* TransactionManager::Peer(NodeId node) const {
  auto it = peers_->find(node);
  return it == peers_->end() ? nullptr : it->second;
}

Status TransactionManager::CommitTopLevel(Txn& txn) {
  assert(txn.parent_node == kInvalidNode &&
         "EndTransaction must run at the transaction's birth node");
  sim::Substrate& sub = node_.substrate();
  // Paxos Commit replicates the verdict only when another site could be
  // left in doubt. With no children the participant set is exactly this
  // node, and its own log holds the outcome either way: the commit takes the
  // local path (one forced commit record; none when read-only) instead of a
  // prepare round plus acceptor forces that would buy nothing — the
  // coordinator-local fast path.
  const bool paxos = commit_mode_ == CommitMode::kPaxosCommit;
  const bool leader = paxos && !txn.children.empty();
  if (paxos && !leader) {
    FAULT_POINT(sub, "paxos.local-commit");
  }
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.commit",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  const TransactionId tid = txn.tid;
  const std::uint64_t generation = txn.generation;

  // Open subtransactions commit with their parent (Section 2.1.3).
  for (const TransactionId& s : std::set<TransactionId>(txn.live_subtxns)) {
    Txn* st = Find(s);
    if (st != nullptr) {
      CommitSubtransaction(*st);
    }
  }

  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // app -> TM: commit
  txn.state = TxnState::kPreparing;
  if (!txn.children.empty()) {
    // The CM hands the TM the complete site list (a pointer message).
    sub.Charge(sim::Primitive::kPointerMessage, 1);
  }
  // A leader's participant and acceptor sets, kept here as well as in the
  // entry: Decide, and the takeover it may run, read them across waits that
  // a verdict datagram can forget the entry in.
  sim::SmallList<NodeId> participants;
  sim::SmallList<NodeId> acceptors;
  if (leader) {
    // One Paxos instance per direct participant (this node and each child):
    // a child prepares its own subtree with plain 2PC and votes for it.
    participants.assign(txn.children);
    participants.push_back(node_.id());
    std::sort(participants.begin(), participants.end());
    acceptors = paxos_->ChooseAcceptors(tid);
    txn.siblings.assign(participants.begin(), participants.end());
    txn.acceptors.assign(acceptors.begin(), acceptors.end());
  }

  Tally t = PrepareSubtree(txn, leader);
  if (t.status != Status::kOk) {
    return t.status;
  }
  int outcome = t.vote == Vote::kAborted ? -1 : 1;
  bool learn = false;  // a ballot-0 round decided: teach the acceptors
  if (leader) {
    outcome = paxos_->Decide(tid, participants, acceptors, t.local, t.votes, t.deferred_prepare,
                             &learn);
    if (Find(tid, generation) == nullptr) {
      return outcome > 0 ? Status::kOk : Status::kAborted;  // a verdict raced us
    }
    if (outcome == 0) {
      // No acceptor quorum reachable: genuinely in doubt. Keep the locks —
      // blocking here is the price of consistency; any survivor (or this
      // node after recovery) resolves through the acceptors later.
      return Status::kNodeDown;
    }
    if (!learn) {
      // A takeover sent every participant the verdict itself (and the
      // read-only skip left nobody prepared): phase two has no one to tell.
      txn.update_children.clear();
    }
  } else if (outcome > 0) {
    Status ws = AwaitPredecessors(txn);
    if (ws != Status::kOk) {
      return ws;
    }
  }

  if (outcome < 0) {
    if (learn) {
      // The accept round decided Aborted (an Aborted vote rode the bundles):
      // teach the acceptors so a later standby leader short-circuits.
      FAULT_POINT(sub, "paxos.learn");
      paxos_->BroadcastLearn(txn.top, -1, txn.acceptors);
    }
    // Prepared children learn through AbortSubtree's abort datagrams.
    AbortSubtree(txn);
    return Status::kVoteNo;
  }

  // TABS process CPU time for local transaction management (Section 5.2).
  sub.scheduler().Charge(sub.costs().coordinator_overhead_us);
  // A missing vote committed through a takeover leaves kAborted here: the
  // leader cannot tell read-only apart and logs the record.
  if (t.vote != Vote::kReadOnly) {
    sub.scheduler().Charge(sub.costs().coordinator_write_extra_us);
    if (leader) {
      // Unforced on purpose: the commit point already passed at the
      // acceptors, so this record is a lazy hint that spares a takeover
      // after a coordinator crash — exactly the force 2PC cannot skip.
      AppendTxnRecord(RecordType::kTxnCommit, txn);
    } else {
      // Every participant is prepared but the verdict is not yet durable: a
      // crash here must resolve to abort (presumed abort).
      FAULT_POINT(sub, "2pc.commit.before_record");
      // The commit point: the commit record reaches stable storage. Queue
      // mode decides the outcome the moment the record is appended — the WAL
      // forces in LSN order, so any successor's durable record implies ours —
      // so locks release before the force, untainted, and successors
      // pipeline into the group-commit window.
      MakeDurable(AppendTxnRecord(RecordType::kTxnCommit, txn), txn, /*taint=*/false);
      // Every vote is in and the predecessors decided, so only this task can
      // decide the entry: nothing forgets it during the force.
      assert(Find(tid, generation) == &txn);
      // The verdict is durable but no participant knows it: a crash here
      // must resolve to commit via the in-doubt query.
      FAULT_POINT(sub, "2pc.commit.after_record");
    }
  } else if (!leader) {
    // Read-only fast path: every vote was ReadOnly, so no participant is
    // prepared and nothing needs phase two — no commit record, no force.
    // A crash here is indistinguishable from one before the commit call:
    // there is no in-doubt window by construction.
    FAULT_POINT(sub, "2pc.readonly-skip");
  }
  txn.state = TxnState::kCommitted;
  logged_outcomes_[txn.top] = TxnOutcome::kCommitted;
  if (learn) {
    // Commit stands at the acceptors but no learn datagram is out: a crash
    // here must still commit everywhere via takeover.
    FAULT_POINT(sub, "paxos.learn");
    paxos_->BroadcastLearn(txn.top, 1, txn.acceptors);
  }
  if (op_queue_.enabled()) {
    // Decided: clear a leader's prepare taints and discharge its dependents.
    op_queue_.NoteCommitted(txn.top);
  }
  CommitSubtree(txn, /*is_root=*/true);
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> app: done
  return Status::kOk;
}

TransactionManager::Tally TransactionManager::PrepareSubtree(Txn& txn, bool leader) {
  sim::Substrate& sub = node_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.prepare",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  const size_t children = txn.children.size();
  const TransactionId tid = txn.tid;
  const std::uint64_t generation = txn.generation;
  Tally t;
  for (NodeId child : txn.children) {
    if (Peer(child) == nullptr) {
      // A child crashed: its updates cannot be guaranteed. Abort before any
      // prepare leaves, so no live child forces a record for nothing.
      AbortSubtree(txn);
      t.status = Status::kVoteNo;
      return t;
    }
  }
  FAULT_POINT(sub, "2pc.prepare.begin");

  // Phase one downward: prepare datagrams to every child, in parallel; each
  // child prepares its subtree and sends its vote back. A prepare carries the
  // sibling list, so an in-doubt participant can run cooperative termination
  // if this node later crashes; a Paxos leader's carries the participant and
  // acceptor sets, so any survivor can run a takeover.
  sim::RepliesPtr<VoteMsg> votes;
  sim::SmallList<NodeId> siblings;
  sim::SmallList<NodeId> acceptors;
  if (children > 0) {
    votes = sim::MakeShared<sim::Replies<VoteMsg>>(sched, sched);
    siblings.assign(leader ? txn.siblings : txn.children);
    if (leader) {
      acceptors.assign(txn.acceptors);
    }
  }
  const NodeId self = node_.id();
  ToPeers(txn.children, [] {}, [&](NodeId child, TransactionManager* child_tm) {
    // The lists travel inside the closure, so each delivery, a duplicate
    // included, reads its own copy.
    auto prepare = [child_tm, child, tid, self, votes, siblings, acceptors] {
      const bool paxos = !acceptors.empty();
      Vote v = child_tm->HandlePrepare(tid, self, siblings, acceptors);
      if (v == Vote::kNone) {
        return;  // a repeated prepare: the first delivery votes
      }
      if (paxos) {
        // The vote is computed but not yet on the wire to the leader: a crash
        // here leaves the instance open, decided by takeover as Aborted.
        FAULT_POINT(child_tm->substrate(), "paxos.vote-send");
      }
      child_tm->cm_.SendDatagram(self, paxos ? "paxos-vote" : "2pc-vote",
                                 [votes, child, v] { votes->Push(VoteMsg{child, v}); });
    };
    cm_.SendDatagram(child, leader ? "paxos-prepare" : "2pc-prepare", std::move(prepare));
  });

  if (leader) {
    // A dependent may not vote before its predecessors decide: the leader's
    // prepare record below would otherwise make a dirty read durable. The
    // children prepare in parallel meanwhile.
    t.status = AwaitPredecessors(txn);
    if (t.status != Status::kOk) {
      return t;
    }
  }
  // Local prepare: ask each joined server whether it wrote updates. A server
  // with updates ships its buffered log images to the Recovery Manager with
  // its prepare work (one large message).
  for (CommitParticipant* s : txn.servers) {
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: prepare
    if (s->HasUpdates(txn.tid)) {
      t.local = Vote::kPrepared;
      sub.ChargeSystemMessage(sim::Primitive::kLargeMessage, 1);
    }
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // server -> TM: vote
  }
  if (!leader) {
    // Prepares are on the wire (and the local vote is computed) but no
    // remote vote has been consumed yet.
    FAULT_POINT(sub, "2pc.prepare.before_votes");
  } else if (t.local == Vote::kPrepared) {
    // The leader's own instance is a participant vote like any other, so its
    // prepare record goes first, overlapping the children's prepares. A
    // co-located acceptor's forced acceptance (later in the WAL) makes the
    // record stable in the same write; SendAcceptBundles forces it directly
    // if that acceptance is skipped, before anything reaches the wire.
    bool self_acceptor =
        std::find(txn.acceptors.begin(), txn.acceptors.end(), self) != txn.acceptors.end();
    if (!PrepareLocally(txn, self_acceptor ? &t.deferred_prepare : nullptr)) {
      t.status = Status::kAborted;  // aborted (or being aborted) during the force
      return t;
    }
  }

  // One deadline across all votes: children prepared in parallel, so the
  // wait budget must not scale with the child count. A vote already queued
  // consumes none of it. Each child counts once: the datagram layer may
  // deliver a vote twice, and a repeat must never fill a lost vote's slot.
  t.vote = t.local;
  SimTime vote_deadline = sched.Now() + vote_timeout_;
  while (t.votes.size() < children) {
    std::optional<VoteMsg> m = votes->Next(vote_deadline);
    if (!m) {
      t.vote = Vote::kAborted;  // lost vote or crashed child: abort is always safe
      break;
    }
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM: vote arrived
    if (!votes->First(m->from)) {
      continue;
    }
    t.votes.push_back(*m);
    if (m->vote == Vote::kAborted) {
      t.vote = Vote::kAborted;
    } else if (m->vote == Vote::kPrepared && t.vote != Vote::kAborted) {
      t.vote = Vote::kPrepared;
    }
  }
  // An abort may have forgotten the entry while this node waited for votes:
  // the parent's, a cascade's, a called-back child's, or at a Paxos leader a
  // takeover's (before Decide, no acceptor holds this node's instance).
  if (Find(tid, generation) == nullptr) {
    t.status = Status::kAborted;
    return t;
  }
  for (const VoteMsg& v : t.votes) {
    if (v.vote == Vote::kPrepared) {
      txn.update_children.push_back(v.from);
    }
  }
  std::sort(txn.update_children.begin(), txn.update_children.end());
  return t;
}

Status TransactionManager::AwaitPredecessors(Txn& txn) {
  if (!op_queue_.enabled()) {
    return Status::kOk;
  }
  // Wait out every commit dependency picked up from early-released locks,
  // then re-resolve — a predecessor's abort may have cascaded to this
  // transaction while we slept (the entry is then owned by the cascade, or
  // already gone; `txn` must not be touched until the re-resolve proves it
  // alive).
  const TransactionId tid = txn.tid;
  const std::uint64_t generation = txn.generation;
  Status ws = op_queue_.AwaitPredecessors(txn.top, vote_timeout_);
  Txn* again = Find(tid, generation);
  if (again == nullptr || again->state == TxnState::kAborted || AbortInProgress(*again)) {
    return Status::kAborted;
  }
  if (ws != Status::kOk) {
    AbortSubtree(txn);
    return Status::kVoteNo;
  }
  return Status::kOk;
}

bool TransactionManager::PrepareLocally(Txn& txn, Lsn* deferred) {
  sim::Substrate& sub = node_.substrate();
  const TransactionId tid = txn.tid;
  const std::uint64_t generation = txn.generation;
  sub.scheduler().Charge(sub.costs().participant_prepare_overhead_us);
  // The subtree voted yes but the prepare record is still volatile: a crash
  // here means this participant never prepared, and presumed abort applies.
  FAULT_POINT(sub, "2pc.vote.before_record");
  // The record pins the log from here on, through the force below.
  txn.prepare_lsn = AppendTxnRecord(RecordType::kTxnPrepare, txn);
  if (deferred != nullptr && !op_queue_.enabled()) {
    *deferred = txn.prepare_lsn;
  } else {
    // In doubt until the verdict: a queue-mode early release is tainted.
    MakeDurable(txn.prepare_lsn, txn, /*taint=*/true);
  }
  // Prepared and in doubt: a crash here must leave the updates locked until
  // the verdict is learned.
  FAULT_POINT(sub, "2pc.vote.after_record");
  Txn* after_force = Find(tid, generation);
  if (after_force == nullptr || AbortInProgress(*after_force)) {
    return false;  // aborted (or being aborted) during the prepare force
  }
  txn.state = TxnState::kPrepared;
  logged_outcomes_[tid] = TxnOutcome::kPrepared;
  return true;
}

Vote TransactionManager::HandlePrepare(const TransactionId& tid, NodeId parent_node,
                                       std::span<const NodeId> siblings,
                                       std::span<const NodeId> acceptors) {
  sim::Substrate& sub = node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.handle-prepare",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  Txn* found = Find(tid);
  if (found == nullptr) {
    // We never saw an operation for this transaction: read-only by vacuity.
    // But a transaction this node aborted and rolled back (an orphan sweep
    // after the coordinator's crash can beat its last prepare datagram here)
    // must vote Aborted: its updates are undone, so a ReadOnly vote could
    // commit a transaction missing them.
    return OutcomeOf(tid) == TxnOutcome::kAborted ? Vote::kAborted : Vote::kReadOnly;
  }
  Txn& txn = *found;
  if (txn.parent_node != parent_node) {
    // A later caller (or a called-back root) listed this node as a child too;
    // only the tree parent, whose Admit recorded it first, prepares it.
    return Vote::kReadOnly;
  }
  if (txn.state == TxnState::kAborted) {
    return Vote::kAborted;
  }
  if (txn.state != TxnState::kActive) {
    // A repeated prepare: the first delivery votes. A ReadOnly would count as
    // this node's vote and drop it from phase two.
    return Vote::kNone;
  }
  // CM -> TM: prepare arrived; TM -> CM: vote handed back for the wire.
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  txn.siblings.assign(siblings.begin(), siblings.end());
  txn.acceptors.assign(acceptors.begin(), acceptors.end());
  txn.state = TxnState::kPreparing;

  // PrepareSubtree blocks awaiting child votes, and the waits below block
  // too: each can overlap the coordinator's vote timeout, whose abort
  // message rolls this subtree back and forgets the entry while we sleep.
  // Each finds the entry again by generation — a stale vote must not touch
  // a transaction that was aborted and forgotten, nor a later one that took
  // its node. PrepareSubtree reports a lost entry in its status.
  Tally t = PrepareSubtree(txn, /*leader=*/false);
  if (t.status != Status::kOk) {
    return Vote::kAborted;
  }
  const Vote v = t.vote;
  if (v == Vote::kAborted) {
    AbortSubtree(txn);
    return Vote::kAborted;
  }
  // Even a read-only vote must wait: the subtree may have read a
  // predecessor's early-released (still undecided) state, and voting it
  // through would let the coordinator commit a dirty read.
  if (AwaitPredecessors(txn) != Status::kOk) {
    return Vote::kAborted;
  }
  if (v == Vote::kReadOnly) {
    // Read-only optimization: release locks now and drop out of phase two.
    // Nothing here is prepared, so this node needs no verdict (under Paxos
    // Commit its instance runs only if some other participant prepared).
    sub.scheduler().Charge(sub.costs().participant_read_overhead_us);
    for (CommitParticipant* s : txn.servers) {
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: release
      s->OnCommit(tid);
    }
    ForgetTxn(tid);
    return Vote::kReadOnly;
  }
  // Updates here (or below): become prepared — in doubt until the verdict.
  // The prepare record carries any acceptor set, so this participant can be
  // resolved through the acceptors after any combination of crashes.
  return PrepareLocally(txn, nullptr) ? Vote::kPrepared : Vote::kAborted;
}

void TransactionManager::CommitSubtree(Txn& txn, bool is_root) {
  sim::Substrate& sub = node_.substrate();
  sim::Scheduler& sched = sub.scheduler();
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.commit-subtree",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  bool wait_for_acks = !sub.arch().improved;

  sim::RepliesPtr<NodeId> acks;
  if (!txn.update_children.empty()) {
    acks = sim::MakeShared<sim::Replies<NodeId>>(sched, sched);
  }
  const TransactionId tid = txn.tid;
  const std::uint64_t generation = txn.generation;
  const NodeId self = node_.id();
  // A crashed child resolves via the in-doubt query after recovery.
  size_t expected =
      ToPeers(txn.update_children, [] {}, [&](NodeId child, TransactionManager* child_tm) {
        cm_.SendDatagram(child, "2pc-commit", [child_tm, child, tid, self, acks] {
          child_tm->HandleCommit(tid);
          child_tm->cm_.SendDatagram(self, "2pc-ack", [acks, child] { acks->Push(child); });
        });
      });

  for (CommitParticipant* s : txn.servers) {
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: commit
    bool had_updates = s->HasUpdates(txn.tid);  // OnCommit clears the flag
    s->OnCommit(txn.tid);
    if (had_updates) {
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // server -> TM: done
    }
  }

  if (wait_for_acks) {
    if (is_root && expected > 0) {
      // Commit datagrams are on the wire, acks outstanding: the commit
      // already stands, so a crash here must still commit everywhere.
      FAULT_POINT(sub, "2pc.commit.before_acks");
    }
    // Each child counts once: a repeated ack must never stand in for a lost
    // one, and the end record claims every child's.
    size_t acked = 0;
    while (acked < expected) {
      std::optional<NodeId> ack = acks->Next(sched.Now() + vote_timeout_);
      if (!ack) {
        break;  // a child will resolve via in-doubt query; commit stands
      }
      sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // CM -> TM: ack arrived
      acked += acks->First(*ack) ? 1 : 0;
    }
    if (is_root && expected > 0) {
      FAULT_POINT(sub, "2pc.commit.after_acks");
      if (acked == expected && Find(tid, generation) != nullptr) {
        AppendTxnRecord(RecordType::kTxnEnd, txn);
      }
    }
  }
  if (Find(tid, generation) != nullptr) {  // still this transaction's after the acks
    ForgetTxn(tid);
  }
}

void TransactionManager::HandleCommit(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr || txn->state != TxnState::kPrepared) {
    return;  // a duplicate: the first delivery committed, and may still wait for acks
  }
  sim::Substrate& sub = node_.substrate();
  sim::PhaseScope commit_phase(sub.metrics(), sim::Phase::kCommit);
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.handle-commit",
                      sub.tracer().enabled() ? ToString(tid) : std::string());
  // CM -> TM: commit arrived; TM -> CM: acknowledgement handed back.
  sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  sub.scheduler().Charge(sub.costs().participant_commit_overhead_us);
  // The verdict arrived but this participant's commit record is volatile: a
  // crash here re-enters in-doubt and must resolve to commit again.
  FAULT_POINT(sub, "2pc.participant.before_commit");
  AppendTxnRecord(RecordType::kTxnCommit, *txn);
  txn->state = TxnState::kCommitted;
  logged_outcomes_[tid] = TxnOutcome::kCommitted;
  if (op_queue_.enabled()) {
    // Decided: clear this transaction's taints and discharge its dependents.
    op_queue_.NoteCommitted(txn->top);
  }
  CommitSubtree(*txn, /*is_root=*/false);
  FAULT_POINT(sub, "2pc.participant.after_commit");
}

void TransactionManager::AbortSubtree(Txn& txn) {
  sim::Substrate& sub = node_.substrate();
  sim::SpanGuard span(sub.tracer(), sim::Component::kTransactionManager, "2pc.abort",
                      sub.tracer().enabled() ? ToString(txn.top) : std::string());
  const TransactionId tid = txn.tid;  // ForgetTxn below erases `txn`
  txn.abort_started = true;  // this task owns the abort through ForgetTxn
  if (op_queue_.enabled()) {
    // Arm the grant veto first: no lock on this transaction's tainted
    // objects may be granted into the undo window below. Then cascade to
    // the queued successors — their undo must run BEFORE ours, because
    // their before-images are our after-images.
    op_queue_.BeginAbort(txn.top);
    FAULT_POINT(sub, "queue.cascade");
    for (const TransactionId& d : op_queue_.TakeDependents(txn.top)) {
      CascadeAbort(d);
    }
  }
  for (NodeId child : txn.children) {
    TransactionManager* child_tm = Peer(child);
    if (child_tm == nullptr) {
      continue;
    }
    TransactionId top = txn.top;
    cm_.SendDatagram(child, "2pc-abort", [child_tm, top] { child_tm->HandleAbortMsg(top); });
  }
  // Undo local effects (backward chain through the Recovery Manager), then
  // release locks.
  rm_.UndoTransaction(txn.tid);
  for (CommitParticipant* s : txn.servers) {
    sub.ChargeSystemMessage(sim::Primitive::kSmallMessage, 1);  // TM -> server: abort
    s->OnAbort(txn.tid);
  }
  // Undo is applied but the abort record is volatile: a crash here must
  // reach the same rolled-back state by replaying the undo at recovery.
  FAULT_POINT(sub, "2pc.abort.before_record");
  AppendTxnRecord(RecordType::kTxnAbort, txn);
  FAULT_POINT(sub, "2pc.abort.after_record");
  txn.state = TxnState::kAborted;
  logged_outcomes_[txn.top] = TxnOutcome::kAborted;
  if (op_queue_.enabled()) {
    // Undo complete: lift the veto, wake anything parked on this
    // transaction, and re-run the grant sweep for waiters the veto held.
    op_queue_.FinishAbort(txn.top);
    for (CommitParticipant* s : txn.servers) {
      s->OnAbortSettled(txn.tid);
    }
  }
  ForgetTxn(tid);
}

void TransactionManager::HandleAbortMsg(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr || AbortInProgress(*txn)) {
    return;  // unknown, or another task already owns this abort
  }
  AbortSubtree(*txn);
}

void TransactionManager::CommitSubtransaction(Txn& txn) {
  assert(!txn.parent.IsNull());
  Txn* parent = Find(txn.parent);
  assert(parent != nullptr && "subtransaction outlived its parent");

  // Grandchildren commit into this subtransaction first.
  for (const TransactionId& s : std::set<TransactionId>(txn.live_subtxns)) {
    Txn* st = Find(s);
    if (st != nullptr) {
      CommitSubtransaction(*st);
    }
  }

  for (CommitParticipant* s : txn.servers) {
    if (std::find(parent->servers.begin(), parent->servers.end(), s) ==
        parent->servers.end()) {
      parent->servers.push_back(s);
    }
  }
  LogRecord rec;
  rec.type = RecordType::kSubtxnCommit;
  rec.owner = txn.tid;
  rec.top = txn.top;
  rec.parent_tid = txn.parent;
  rm_.log().Append(rec);

  const TransactionId tid = txn.tid;
  SettleSubtxn(tid, txn.parent, txn.top, tid);
  parent->live_subtxns.erase(tid);
  EraseTxn(tid);
}

void TransactionManager::SettleSubtxn(const TransactionId& child, const TransactionId& parent,
                                      const TransactionId& top, const TransactionId& holder) {
  const bool committed = !parent.IsNull();
  if (committed) {
    rm_.MergeChild(child, parent);
  } else {
    rm_.UndoTransaction(child);
  }
  // Looked up after the undo, which may block on paging.
  const Txn* txn = Find(holder);
  if (txn == nullptr) {
    return;
  }
  for (CommitParticipant* s : txn->servers) {
    if (committed) {
      s->OnSubtxnCommit(child, parent);
    } else {
      s->OnAbort(child);
    }
  }
  const Txn* tree = Find(top);
  if (tree == nullptr) {
    return;
  }
  for (NodeId node : tree->children) {
    TransactionManager* tm = Peer(node);
    if (tm == nullptr) {
      continue;
    }
    cm_.SendDatagram(node, committed ? "subtxn-commit" : "subtxn-abort",
                     [tm, child, parent, top] { tm->SettleSubtxn(child, parent, top, top); });
  }
}

}  // namespace tabs::txn
