// Log record formats.
//
// TABS bases recovery on write-ahead logging with a single common log per
// node shared by all data servers and the Transaction Manager (Sections
// 2.1.3, 3.2.2). Two update-record families co-exist in that log:
//
//  * Value records carry the old and new values of at most one page of an
//    object's representation. Crash recovery for value-logged objects is a
//    single backward pass.
//  * Operation records carry an operation name and enough information to
//    invoke its redo/undo. Crash recovery is three passes (analysis, redo,
//    undo) guarded by the page sequence numbers the modified kernel stamps
//    into each sector header; redo shares analysis's forward read, and undo
//    reads back only as far as the earliest update it rolls back.
//
// Every update record carries two transaction identifiers: `owner`, the
// (sub)transaction that wrote it, and `top`, the top-level ancestor whose
// commit outcome decides redo-vs-undo at crash recovery (subtransactions
// commit only with their top-level parent, Section 2.1.3). Its `prev_lsn` is
// the previous entry of the owner's undo list when it was written, which
// after a subtransaction commit may be a merged child's record.
//
// Compensation records (written while undoing) belong to the owner of the
// record they compensate and carry `undo_next_lsn`, that record's prev_lsn,
// so that an abort interrupted by a crash never undoes the same update twice.

#ifndef TABS_LOG_LOG_RECORD_H_
#define TABS_LOG_LOG_RECORD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/types.h"

namespace tabs::log {

enum class RecordType : std::uint8_t {
  kValueUpdate = 1,     // old/new images of one object (≤ 1 page)
  kOperationUpdate,     // redoable/undoable operation description
  kCompensation,        // value-style compensation written during undo
  kOpCompensation,      // operation-style compensation written during undo
  kTxnPrepare,          // participant prepared (2PC phase one)
  kTxnCommit,           // commit decided
  kTxnAbort,            // abort decided
  kTxnEnd,              // all participants acknowledged; forget the txn
  kSubtxnCommit,        // subtransaction committed into its parent
  kCheckpoint,          // active-txn table + dirty-page table snapshot
  kNodeEpoch,           // new TM incarnation after crash recovery (owner's
                        // sequence carries the incarnation in its high bits)
  // Paxos Commit acceptor state (Gray & Lamport, "Consensus on Transaction
  // Commit"). One Paxos instance per participant vote; an acceptor's promise
  // and acceptance must be durable before its reply, so a crashed acceptor
  // rejoins the same instance without contradicting itself.
  kPaxosPromise,        // acceptor promised `paxos_ballot` for every instance of `top`
  kPaxosAccept,         // acceptor accepted `paxos_vote` for `paxos_participant`'s
                        // instance at `paxos_ballot` (a batched accept covers
                        // further instances through `paxos_extra`)
  kPaxosLearn,          // acceptor learned the decided outcome (paxos_vote: +1/-1)
};

struct LogRecord {
  RecordType type = RecordType::kValueUpdate;
  TransactionId owner;          // writing (sub)transaction
  TransactionId top;            // top-level ancestor (== owner for top-level)
  Lsn prev_lsn = kNullLsn;      // updates: the previous entry of owner's undo list
  Lsn undo_next_lsn = kNullLsn; // compensation records only

  // Update / compensation records.
  std::string server;           // data server the object belongs to
  ObjectId oid;
  Bytes old_value;              // value records: before-image
  Bytes new_value;              // value records: after-image

  // Operation records. `op_name`/`redo_args` re-apply the operation;
  // `undo_op_name`/`undo_args` name the inverse operation that cancels it.
  std::string op_name;
  Bytes redo_args;
  std::string undo_op_name;
  Bytes undo_args;
  std::vector<PageId> pages;    // pages the operation touches (for seqno guard)

  // Transaction-management records.
  NodeId parent_node = kInvalidNode;       // prepare: my 2PC parent in the tree
  std::vector<NodeId> children;            // prepare/commit: my subtree children
  std::vector<NodeId> siblings;            // prepare: my parent's other children
                                           // (for cooperative termination)
  std::vector<std::string> local_servers;  // prepare: servers with updates here
  TransactionId parent_tid;                // subtxn-commit: the parent

  // Checkpoint payload (opaque to the log; recovery interprets it).
  Bytes checkpoint_data;

  // Paxos Commit fields. Serialized as an optional tail: records that carry
  // none of them (every record the default kTwoPhase mode writes) keep their
  // exact historical byte layout, so log sizes — and everything downstream
  // of them, like reclamation timing — are unchanged unless Paxos is on.
  std::vector<NodeId> acceptors;           // prepare: the 2F+1 acceptor set
  NodeId paxos_participant = kInvalidNode; // accept: whose instance
  std::int32_t paxos_ballot = 0;           // promise/accept: the ballot
  std::int8_t paxos_vote = 0;              // accept: 1 prepared, 2 read-only,
                                           // -1 abort; learn: +1/-1 outcome

  // Batched acceptor accepts: a kPaxosAccept record may cover every instance
  // of a transaction in ONE forced record (accept-bundle coalescing). The
  // first instance rides the fields above; the rest ride here, all at the
  // same paxos_ballot. Serialized as a second optional sub-tail after the
  // Paxos tail, so single-instance accept records — and every pre-existing
  // log — keep their exact byte layout.
  struct PaxosExtra {
    NodeId participant = kInvalidNode;
    std::int8_t vote = 0;
  };
  std::vector<PaxosExtra> paxos_extra;

  // Filled in by LogManager on read.
  Lsn lsn = kNullLsn;

  // Appends the record's encoding to `out` (the log frames it in place).
  void AppendTo(Bytes& out) const;
  Bytes Serialize() const {
    Bytes out;
    AppendTo(out);
    return out;
  }
  static std::optional<LogRecord> Deserialize(std::span<const std::uint8_t> data);

  bool IsCompensation() const {
    return type == RecordType::kCompensation || type == RecordType::kOpCompensation;
  }
  bool IsValueStyle() const {
    return type == RecordType::kValueUpdate || type == RecordType::kCompensation;
  }
};

}  // namespace tabs::log

#endif  // TABS_LOG_LOG_RECORD_H_
