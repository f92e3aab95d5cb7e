#include "src/txn/transaction_manager.h"

#include <algorithm>
#include <cassert>

#include "src/log/group_commit.h"
#include "src/sim/fault_injector.h"

namespace tabs::txn {

using log::LogRecord;
using log::RecordType;
using recovery::TxnOutcome;

TransactionManager::TransactionManager(kernel::Node& node, recovery::RecoveryManager& rm,
                                       comm::CommManager& cm)
    : node_(node), rm_(rm), cm_(cm), paxos_(std::make_unique<PaxosCommit>(*this)) {
  cm_.SetListener(this);
}

// Out of line so the unique_ptr<PaxosCommit> destructor sees a complete type.
TransactionManager::~TransactionManager() = default;

TransactionManager::Txn* TransactionManager::Find(const TransactionId& tid) {
  auto it = txns_.find(tid);
  return it == txns_.end() ? nullptr : &it->second;
}

const TransactionManager::Txn* TransactionManager::Find(const TransactionId& tid) const {
  auto it = txns_.find(tid);
  return it == txns_.end() ? nullptr : &it->second;
}

TransactionManager::Txn* TransactionManager::Find(const TransactionId& tid,
                                                  std::uint64_t generation) {
  Txn* txn = Find(tid);
  return txn != nullptr && txn->generation == generation ? txn : nullptr;
}

void TransactionManager::Txn::clear() {
  tid = parent = top = kNullTransaction;
  generation = 0;
  state = TxnState::kActive;
  parent_node = kInvalidNode;
  children.clear();
  servers.clear();
  live_subtxns.clear();
  update_children.clear();
  siblings.clear();
  acceptors.clear();
  prepare_lsn = kNullLsn;
  abort_started = false;
}

TransactionManager::Txn& TransactionManager::NewTxn(const TransactionId& tid) {
  Txn& txn = txn_nodes_.Get(txns_, tid)->second;
  txn.tid = tid;
  txn.generation = next_generation_++;
  return txn;
}

void TransactionManager::EraseTxn(const TransactionId& tid) {
  txn_nodes_.Keep(txns_.extract(tid));
}

TransactionId TransactionManager::Begin(const TransactionId& parent) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kTransactionManager,
                      "txn.begin");
  // Application -> TM request and reply (two small local messages).
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  TransactionId tid{node_.id(), (incarnation_ << kIncarnationShift) | next_sequence_++};
  TransactionId top = tid;
  if (!parent.IsNull()) {
    Txn* p = Find(parent);
    assert(p != nullptr && "BeginTransaction with unknown parent");
    top = p->top;
    p->live_subtxns.insert(tid);
  }
  Txn& txn = NewTxn(tid);
  txn.parent = parent;
  txn.top = top;
  return tid;
}

void TransactionManager::JoinServer(const TransactionId& tid, const TransactionId& top,
                                    CommitParticipant* server) {
  Txn* txn = Find(tid);
  if (txn == nullptr) {
    txn = Find(top);
  }
  assert(txn != nullptr && "operation on behalf of unknown transaction");
  if (std::find(txn->servers.begin(), txn->servers.end(), server) != txn->servers.end()) {
    return;
  }
  // "...sent by a data server the first time it is asked to perform an
  // operation on behalf of a particular transaction" — plus the TM's ack.
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  txn->servers.push_back(server);
}

std::vector<TransactionId> TransactionManager::TransactionsInvolving(
    const CommitParticipant* server) const {
  std::vector<TransactionId> out;
  for (const auto& [tid, txn] : txns_) {
    if (std::find(txn.servers.begin(), txn.servers.end(), server) != txn.servers.end()) {
      out.push_back(tid);
    }
  }
  return out;
}

void TransactionManager::DetachParticipant(const CommitParticipant* server) {
  for (auto& [tid, txn] : txns_) {
    auto& s = txn.servers;
    s.erase(std::remove(s.begin(), s.end(), server), s.end());
  }
}

bool TransactionManager::OnRemoteParentObserved(const TransactionId& tid, NodeId parent) {
  if (Find(tid) != nullptr) {
    return false;
  }
  Txn& txn = NewTxn(tid);
  txn.top = tid;  // remote entries are tracked under the identifier used on the wire
  txn.parent_node = parent;
  return true;
}

bool TransactionManager::OnChildObserved(const TransactionId& tid, NodeId child) {
  Txn* txn = Find(tid);
  if (txn == nullptr || std::binary_search(txn->children.begin(), txn->children.end(), child)) {
    return false;
  }
  txn->children.insert(std::upper_bound(txn->children.begin(), txn->children.end(), child), child);
  return true;
}

TxnState TransactionManager::StateOf(const TransactionId& tid) const {
  const Txn* txn = Find(tid);
  if (txn != nullptr) {
    return txn->state;
  }
  auto it = logged_outcomes_.find(tid);
  if (it != logged_outcomes_.end()) {
    switch (it->second) {
      case TxnOutcome::kCommitted:
        return TxnState::kCommitted;
      case TxnOutcome::kPrepared:
        return TxnState::kPrepared;
      default:
        return TxnState::kAborted;
    }
  }
  return TxnState::kAborted;  // forgotten implies resolved; presume abort
}

bool TransactionManager::IsAborted(const TransactionId& tid) const {
  return StateOf(tid) == TxnState::kAborted;
}

TransactionId TransactionManager::TopOf(const TransactionId& tid) const {
  const Txn* txn = Find(tid);
  return txn == nullptr ? tid : txn->top;
}

Status TransactionManager::End(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr || txn->state == TxnState::kAborted) {
    return Status::kAborted;
  }
  if (AbortInProgress(*txn)) {
    // An abort is consuming this transaction right now (e.g. a cascade abort
    // while this task ran the body to completion). The abort's driver owns
    // the entry; just report the outcome.
    return Status::kAborted;
  }
  if (!txn->parent.IsNull()) {
    CommitSubtransaction(*txn);
    return Status::kOk;
  }
  return CommitTopLevel(*txn);
}

void TransactionManager::Abort(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr) {
    return;
  }
  if (AbortInProgress(*txn)) {
    return;  // another task owns this abort; double-undo would corrupt
  }
  AbortImpl(*txn);
}

void TransactionManager::AbortImpl(Txn& txn) {
  txn.abort_started = true;
  // Abort live subtransactions first (deepest effects unwind first).
  for (const TransactionId& sub : std::set<TransactionId>(txn.live_subtxns)) {
    Txn* st = Find(sub);
    if (st != nullptr && !st->abort_started) {
      AbortImpl(*st);
    }
  }
  if (txn.parent.IsNull()) {
    AbortSubtree(txn);
    return;
  }
  // Independent subtransaction abort: unwind only the subtransaction's own
  // effects — here and at remote participants — leaving the parent intact.
  const TransactionId tid = txn.tid;
  SettleSubtxn(tid, kNullTransaction, txn.top, tid);
  Txn* p = Find(txn.parent);
  if (p != nullptr) {
    p->live_subtxns.erase(tid);
  }
  EraseTxn(tid);
}

bool TransactionManager::AbortInProgress(const Txn& txn) const {
  if (txn.abort_started) {
    return true;
  }
  const Txn* top = Find(txn.top);
  return top != nullptr && top != &txn && top->abort_started;
}

Lsn TransactionManager::AppendTxnRecord(RecordType type, const Txn& txn) {
  LogRecord& rec = txn_record_;
  rec.type = type;
  rec.owner = txn.tid;
  rec.top = txn.top;
  rec.parent_node = txn.parent_node;
  rec.siblings.assign(txn.siblings.begin(), txn.siblings.end());
  rec.acceptors.assign(txn.acceptors.begin(), txn.acceptors.end());
  rec.children.assign(txn.children.begin(), txn.children.end());
  rec.local_servers.resize(txn.servers.size());
  for (size_t i = 0; i < txn.servers.size(); ++i) {
    rec.local_servers[i] = txn.servers[i]->participant_name();
  }
  return rm_.log().Append(rec);
}

void TransactionManager::ForceLsn(Lsn lsn) {
  // TM -> RM force request and completion (two small messages), then the
  // stable write itself (charged by the log manager).
  node_.substrate().ChargeSystemMessage(sim::Primitive::kSmallMessage, 2);
  // Group commit: block until a shared force covers this record. With the
  // daemon disabled (window 0) this degenerates to ForceAll and the
  // paper-faithful per-transaction force is preserved. Either way this call
  // does not return until the record is stable, so every state transition
  // that follows it (kPrepared, kCommitted, logged_outcomes_) happens only
  // after durability — which is exactly the crash guarantee: a node killed
  // mid-batch unwinds here via TaskKilled before anything claims the outcome.
  group_commit_->WaitStable(lsn);
}

void TransactionManager::MakeDurable(Lsn lsn, Txn& txn, bool taint) {
  if (op_queue_.enabled()) {
    FAULT_POINT(node_.substrate(),
                taint ? "queue.prepare.early-release" : "queue.commit.early-release");
    for (CommitParticipant* s : txn.servers) {
      s->OnEarlyRelease(txn.tid, taint);
    }
  }
  ForceLsn(lsn);
}

bool TransactionManager::RefusesOps(const TransactionId& tid) const {
  if (!op_queue_.enabled()) {
    return false;
  }
  const Txn* txn = Find(tid);
  if (txn == nullptr) {
    // A transaction the application still drives but the TM no longer knows
    // was consumed by a cascade (its abort is already logged). Refuse; the
    // application's End/Abort will observe kAborted.
    return true;
  }
  return txn->state == TxnState::kAborted || AbortInProgress(*txn);
}

void TransactionManager::CascadeAbort(const TransactionId& tid) {
  Txn* txn = Find(tid);
  if (txn == nullptr || txn->state == TxnState::kAborted || AbortInProgress(*txn)) {
    return;
  }
  // A dependent with an undischarged commit dependency cannot have appended
  // its own prepare/commit record (AwaitPredecessors runs first), so the
  // cascade can never reach a decided — let alone durable — transaction.
  assert(txn->state != TxnState::kCommitted && txn->state != TxnState::kPrepared &&
         "cascade abort reached a decided transaction");
  // Wake any lock or escrow wait the victim's task is parked in: it unwinds
  // with kAborted instead of being granted a lock under a dead transaction.
  for (CommitParticipant* s : txn->servers) {
    s->CancelLockWaits(tid);
  }
  AbortImpl(*txn);
}

void TransactionManager::ForgetTxn(const TransactionId& tid) {
  cm_.Forget(tid);
  rm_.ForgetTransaction(tid);
  EraseTxn(tid);
}

// --- crash recovery ---------------------------------------------------------

void TransactionManager::ObserveTxnRecord(const LogRecord& rec) {
  switch (rec.type) {
    case RecordType::kTxnCommit:
      logged_outcomes_[rec.top] = TxnOutcome::kCommitted;
      break;
    case RecordType::kTxnAbort:
      logged_outcomes_[rec.top] = TxnOutcome::kAborted;
      break;
    case RecordType::kTxnPrepare: {
      if (!logged_outcomes_.contains(rec.top)) {
        logged_outcomes_[rec.top] = TxnOutcome::kPrepared;
      }
      Txn& prepared = logged_prepares_[rec.top];
      prepared.tid = prepared.top = rec.top;
      prepared.state = TxnState::kPrepared;
      prepared.prepare_lsn = rec.lsn;
      prepared.parent_node = rec.parent_node;
      prepared.siblings = rec.siblings;
      prepared.acceptors = rec.acceptors;
      // A relay passes the verdict down once it learns it, so its logged
      // children come back. A root's takeover tells every participant.
      if (rec.parent_node != kInvalidNode) {
        prepared.children = rec.children;
        prepared.update_children = rec.children;
      }
      break;
    }
    case RecordType::kPaxosPromise:
    case RecordType::kPaxosAccept:
    case RecordType::kPaxosLearn:
      paxos_->ObserveRecord(rec);
      break;
    case RecordType::kTxnEnd:
      // Fully acknowledged; the outcome entry may be garbage-collected, but
      // keeping it is harmless and answers stragglers.
      break;
    case RecordType::kSubtxnCommit:
    default:
      break;
  }
  // Sequence numbers must stay unique across restarts: track the highest
  // (incarnation, counter) this node is known to have minted. Only ids born
  // here matter — a participant's log is full of remote coordinators' ids,
  // which live in those nodes' sequence spaces.
  auto note = [this](const TransactionId& t) {
    if (t.node != node_.id()) {
      return;
    }
    if (t.incarnation() > incarnation_) {
      incarnation_ = t.incarnation();
      next_sequence_ = t.counter() + 1;
    } else if (t.incarnation() == incarnation_) {
      next_sequence_ = std::max(next_sequence_, t.counter() + 1);
    }
  };
  note(rec.owner);
  note(rec.top);
}

TxnOutcome TransactionManager::OutcomeOf(const TransactionId& top) {
  auto it = logged_outcomes_.find(top);
  return it == logged_outcomes_.end() ? TxnOutcome::kActive : it->second;
}

void TransactionManager::PostRecovery(
    const recovery::RecoveryStats& stats,
    const std::map<std::string, CommitParticipant*>& participants) {
  for (const TransactionId& tid : stats.in_doubt) {
    // After a single-server crash the transaction is still live, and keeps
    // its generation.
    auto [it, recovered] = txns_.try_emplace(tid, std::move(logged_prepares_[tid]));
    Txn& txn = it->second;
    if (recovered) {
      txn.generation = next_generation_++;
    }
    // Rebuild lock state: every object the in-doubt transaction updated
    // stays inaccessible until the verdict releases it through the entry.
    for (Lsn lsn : rm_.UndoListOf(tid)) {
      auto rec = rm_.log().ReadRecord(lsn);
      if (!rec.has_value()) {
        continue;
      }
      auto it = participants.find(rec->server);
      if (it == participants.end()) {
        continue;
      }
      it->second->RelockForRecovery(tid, *rec);
      if (std::find(txn.servers.begin(), txn.servers.end(), it->second) == txn.servers.end()) {
        txn.servers.push_back(it->second);
      }
    }
  }
  logged_prepares_.clear();
  for (const TransactionId& loser : stats.losers) {
    logged_outcomes_[loser] = TxnOutcome::kAborted;
  }
}

void TransactionManager::BeginNewIncarnation() {
  ++incarnation_;
  next_sequence_ = 1;
  // Durable before the first new id is minted: if this node crashes again
  // before logging anything else, the next recovery still replays this
  // record and starts at incarnation_ + 1.
  LogRecord rec;
  rec.type = RecordType::kNodeEpoch;
  rec.owner = TransactionId{node_.id(), incarnation_ << kIncarnationShift};
  rec.top = rec.owner;
  rm_.log().Append(rec);
  rm_.log().ForceAll();
}

void TransactionManager::ResolveOrphansOf(NodeId dead) {
  sim::Scheduler& sched = node_.substrate().scheduler();
  const SimTime start = sched.Now();
  std::vector<TransactionId> doomed;
  for (const auto& [tid, txn] : txns_) {
    if (txn.state == TxnState::kActive && txn.parent_node == dead) {
      doomed.push_back(tid);
    }
  }
  for (const TransactionId& tid : doomed) {
    Abort(tid);  // undo through the RM, release locks, notify our children
  }
  if (commit_mode_ != CommitMode::kPaxosCommit) {
    return;  // no acceptors: in doubt until the coordinator answers
  }
  // The non-blocking guarantee. Survivors take over in node order, so the
  // usual case is one uncontended takeover whose verdict the later sweeps
  // find already learned, rather than competing ballots.
  sched.AdvanceTo(start + 10'000 * static_cast<SimTime>(node_.id()));
  sched.Yield();
  std::vector<TransactionId> prepared;
  for (const auto& [tid, txn] : txns_) {
    if (txn.state == TxnState::kPrepared && !txn.acceptors.empty() && txn.parent_node == dead) {
      prepared.push_back(tid);
    }
  }
  for (const TransactionId& tid : prepared) {
    // ResolveInDoubt routes every acceptor-backed transaction through the
    // consensus read path.
    ResolveInDoubt(tid);
  }
}

std::vector<TransactionId> TransactionManager::InDoubt() const {
  std::vector<TransactionId> out;
  for (const auto& [tid, txn] : txns_) {
    if (txn.state == TxnState::kPrepared) {
      out.push_back(tid);
    }
  }
  return out;
}

Status TransactionManager::ResolveInDoubt(const TransactionId& tid) {
  sim::SpanGuard span(node_.substrate().tracer(), sim::Component::kTransactionManager,
                      "txn.resolve-in-doubt",
                      node_.substrate().tracer().enabled() ? ToString(tid) : std::string());
  const Txn* txn = Find(tid);
  if (txn == nullptr || txn->state != TxnState::kPrepared) {
    return Status::kNotFound;
  }
  // Where the verdict lives, as this node's prepare recorded it (copied: the
  // queries block, and a verdict arriving meanwhile erases the entry).
  const NodeId parent = txn->parent_node;
  const std::vector<NodeId> siblings = txn->siblings;
  const std::vector<NodeId> acceptors = txn->acceptors;

  int outcome = 0;
  if (!acceptors.empty()) {
    // Paxos Commit: the acceptors are authoritative, never the parent. In
    // particular the parent's presumed abort does NOT apply — a recovered,
    // locally-read-only coordinator has no commit record even for a
    // transaction the acceptors decided to commit, so asking it would split
    // the brain. The consensus read path is the only sound source.
    outcome = paxos_->Resolve(tid, siblings, acceptors);
  } else {
    // The parent is authoritative (presumed abort applies); if it is
    // unreachable, the sibling participants recorded in the prepare may
    // already know the verdict — Dwork/Skeen-style cooperative termination,
    // which shrinks the blocking window the paper notes plain two-phase
    // commit has.
    auto ask = [&](NodeId node, bool presume_abort) -> int {
      TransactionManager* tm = Peer(node);
      if (tm == nullptr || !cm_.network().Reachable(node_.id(), node)) {
        return 0;
      }
      auto verdict = cm_.network().SessionCall<int>(
          node_.id(), node, presume_abort ? "resolve-in-doubt" : "cooperative-termination",
          [tm, tid, presume_abort]() { return tm->KnownOutcome(tid, presume_abort); });
      return verdict.ok() ? verdict.value() : 0;
    };
    outcome = ask(parent, /*presume_abort=*/true);
    for (size_t i = 0; outcome == 0 && i < siblings.size(); ++i) {
      if (siblings[i] != node_.id()) {
        outcome = ask(siblings[i], /*presume_abort=*/false);
      }
    }
  }
  if (outcome == 0) {
    return Status::kNodeDown;  // still in doubt; locks stay held
  }
  // The queries block, so a verdict datagram may have resolved `tid`
  // meanwhile; ApplyVerdict then leaves it alone.
  ApplyVerdict(tid, outcome > 0);
  return outcome > 0 ? Status::kOk : Status::kAborted;
}

void TransactionManager::ApplyVerdict(const TransactionId& tid, bool committed) {
  sim::PhaseScope commit_phase(node_.substrate().metrics(), sim::Phase::kCommit);
  const Txn* txn = Find(tid);
  if (txn != nullptr && txn->state == TxnState::kPrepared) {
    if (committed) {
      HandleCommit(tid);
    } else {
      HandleAbortMsg(tid);
    }
  }
}

int TransactionManager::KnownOutcome(const TransactionId& tid, bool presume_abort) const {
  if (Find(tid) == nullptr && !logged_outcomes_.contains(tid)) {
    return presume_abort ? -1 : 0;  // forgotten here
  }
  TxnState state = StateOf(tid);  // active, preparing or in doubt: undecided
  return state == TxnState::kCommitted ? 1 : state == TxnState::kAborted ? -1 : 0;
}

std::vector<recovery::RecoveryManager::ActiveTxn> TransactionManager::ActiveTransactions()
    const {
  std::vector<recovery::RecoveryManager::ActiveTxn> out;
  for (const auto& [tid, txn] : txns_) {
    if (txn.state == TxnState::kCommitted || txn.state == TxnState::kAborted) {
      continue;
    }
    recovery::RecoveryManager::ActiveTxn at;
    at.owner = tid;
    at.top = txn.top;
    at.prepared = txn.state == TxnState::kPrepared;
    at.first_lsn = rm_.FirstLsnOf(tid);
    if (at.first_lsn == kNullLsn) {
      at.first_lsn = txn.prepare_lsn;  // a relay: no updates here, only the prepare
    }
    out.push_back(at);
  }
  // Undecided Paxos instances this node accepts for pin the log exactly like
  // in-doubt transactions: a takeover may still need their accept records.
  for (auto& at : paxos_->PinnedInstances()) {
    out.push_back(at);
  }
  return out;
}

}  // namespace tabs::txn
