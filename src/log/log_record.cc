#include "src/log/log_record.h"

namespace tabs::log {

void LogRecord::AppendTo(Bytes& out) const {
  ByteWriter w(std::move(out));
  w.U8(static_cast<std::uint8_t>(type));
  w.Tid(owner);
  w.Tid(top);
  w.U64(prev_lsn);
  w.U64(undo_next_lsn);
  w.Str(server);
  w.Oid(oid);
  w.Blob(old_value);
  w.Blob(new_value);
  w.Str(op_name);
  w.Blob(redo_args);
  w.Str(undo_op_name);
  w.Blob(undo_args);
  w.U32(static_cast<std::uint32_t>(pages.size()));
  for (const PageId& p : pages) {
    w.U32(p.segment);
    w.U32(p.page);
  }
  w.U32(parent_node);
  w.U32(static_cast<std::uint32_t>(children.size()));
  for (NodeId n : children) {
    w.U32(n);
  }
  w.U32(static_cast<std::uint32_t>(siblings.size()));
  for (NodeId n : siblings) {
    w.U32(n);
  }
  w.U32(static_cast<std::uint32_t>(local_servers.size()));
  for (const std::string& s : local_servers) {
    w.Str(s);
  }
  w.Tid(parent_tid);
  w.Blob(checkpoint_data);
  // Optional Paxos tail: present iff any field is non-default, detected on
  // read by bytes remaining. Records the default commit mode writes carry no
  // tail and keep their exact historical layout.
  if (!acceptors.empty() || paxos_participant != kInvalidNode || paxos_ballot != 0 ||
      paxos_vote != 0 || !paxos_extra.empty()) {
    w.U32(static_cast<std::uint32_t>(acceptors.size()));
    for (NodeId n : acceptors) {
      w.U32(n);
    }
    w.U32(paxos_participant);
    w.U32(static_cast<std::uint32_t>(paxos_ballot));
    w.U8(static_cast<std::uint8_t>(paxos_vote));
    // Second optional sub-tail: the extra instances of a batched accept.
    // Detected on read by bytes remaining, like the tail itself, so
    // single-instance records stay byte-identical.
    if (!paxos_extra.empty()) {
      w.U32(static_cast<std::uint32_t>(paxos_extra.size()));
      for (const PaxosExtra& e : paxos_extra) {
        w.U32(e.participant);
        w.U8(static_cast<std::uint8_t>(e.vote));
      }
    }
  }
  out = w.Take();
}

std::optional<LogRecord> LogRecord::Deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  LogRecord rec;
  rec.type = static_cast<RecordType>(r.U8());
  rec.owner = r.Tid();
  rec.top = r.Tid();
  rec.prev_lsn = r.U64();
  rec.undo_next_lsn = r.U64();
  rec.server = r.Str();
  rec.oid = r.Oid();
  rec.old_value = r.Blob();
  rec.new_value = r.Blob();
  rec.op_name = r.Str();
  rec.redo_args = r.Blob();
  rec.undo_op_name = r.Str();
  rec.undo_args = r.Blob();
  std::uint32_t npages = r.U32();
  for (std::uint32_t i = 0; i < npages && r.ok(); ++i) {
    PageId p;
    p.segment = r.U32();
    p.page = r.U32();
    rec.pages.push_back(p);
  }
  rec.parent_node = r.U32();
  std::uint32_t nchildren = r.U32();
  for (std::uint32_t i = 0; i < nchildren && r.ok(); ++i) {
    rec.children.push_back(r.U32());
  }
  std::uint32_t nsiblings = r.U32();
  for (std::uint32_t i = 0; i < nsiblings && r.ok(); ++i) {
    rec.siblings.push_back(r.U32());
  }
  std::uint32_t nservers = r.U32();
  for (std::uint32_t i = 0; i < nservers && r.ok(); ++i) {
    rec.local_servers.push_back(r.Str());
  }
  rec.parent_tid = r.Tid();
  rec.checkpoint_data = r.Blob();
  if (r.ok() && r.remaining() > 0) {
    std::uint32_t nacceptors = r.U32();
    for (std::uint32_t i = 0; i < nacceptors && r.ok(); ++i) {
      rec.acceptors.push_back(r.U32());
    }
    rec.paxos_participant = r.U32();
    rec.paxos_ballot = static_cast<std::int32_t>(r.U32());
    rec.paxos_vote = static_cast<std::int8_t>(r.U8());
    if (r.ok() && r.remaining() > 0) {
      std::uint32_t nextra = r.U32();
      for (std::uint32_t i = 0; i < nextra && r.ok(); ++i) {
        PaxosExtra e;
        e.participant = r.U32();
        e.vote = static_cast<std::int8_t>(r.U8());
        rec.paxos_extra.push_back(e);
      }
    }
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return rec;
}

}  // namespace tabs::log
