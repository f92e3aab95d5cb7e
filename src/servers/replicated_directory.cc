#include "src/servers/replicated_directory.h"

#include <cassert>
#include <cstdio>
#include <cstring>

namespace tabs::servers {

namespace {

// B-tree value encoding: 8 hex digits of version, 'D'/'L' deleted flag,
// then the data (B-tree values are capped at 64 bytes, leaving 55 for data).
std::string EncodeEntry(const RepEntry& e) {
  char head[16];
  std::snprintf(head, sizeof head, "%08x%c", e.version, e.deleted ? 'D' : 'L');
  return std::string(head) + e.value;
}

RepEntry DecodeEntry(const std::string& s) {
  RepEntry e;
  assert(s.size() >= 9);
  e.version = static_cast<std::uint32_t>(std::strtoul(s.substr(0, 8).c_str(), nullptr, 16));
  e.deleted = s[8] == 'D';
  e.value = s.substr(9);
  return e;
}

server::DataServer::Options RepOptions() {
  server::DataServer::Options o;
  o.pages = 2;  // the representative itself stores nothing; the B-tree does
  return o;
}

}  // namespace

DirectoryRep::DirectoryRep(const server::ServerContext& ctx, BTreeServer* storage, int votes)
    : DataServer(ctx, RepOptions()), storage_(storage), votes_(votes) {
  assert(votes_ > 0);
}

Result<RepEntry> DirectoryRep::RepRead(const server::Tx& tx, const std::string& key) {
  return Call<RepEntry>(tx, "RepRead", [this, tx, key = key]() -> Result<RepEntry> {
    // The representative calls its local B-tree server (a nested data-server
    // call, as in the paper's layering).
    server::Tx local = tx;
    local.origin = node_id();
    local.origin_cm = &cm();
    auto v = storage_->Lookup(local, key);
    if (!v.ok()) {
      if (v.status() == Status::kNotFound) {
        return RepEntry{};  // version 0: never written here
      }
      return v.status();
    }
    return DecodeEntry(v.value());
  });
}

Status DirectoryRep::RepWrite(const server::Tx& tx, const std::string& key,
                              const RepEntry& entry) {
  // The op captures only the transaction's ids, so that the session task
  // carrying it (with the key and the entry) fits its inline buffer.
  auto r = Call<bool>(tx, "RepWrite", [this, tid = tx.tid, top = tx.top, key = key,
                                       entry = entry]() -> Result<bool> {
    server::Tx local{tid, top, node_id(), &cm()};
    Status s = storage_->Upsert(local, key, EncodeEntry(entry));
    if (s != Status::kOk) {
      return s;
    }
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

ReplicatedDirectory::ReplicatedDirectory(std::vector<Replica> replicas, int read_quorum,
                                         int write_quorum)
    : replicas_(std::move(replicas)), read_quorum_(read_quorum), write_quorum_(write_quorum) {
  for (const Replica& r : replicas_) {
    total_votes_ += r.rep->votes();
  }
  // Quorum intersection: any read sees the latest committed write.
  assert(read_quorum_ + write_quorum_ > total_votes_);
  assert(2 * write_quorum_ > total_votes_);  // two writes cannot both succeed blindly
}

Result<ReplicatedDirectory::QuorumRead> ReplicatedDirectory::GatherReadQuorum(
    const server::Tx& tx, const std::string& key) {
  QuorumRead q;
  for (size_t i = 0; i < replicas_.size() && q.votes < read_quorum_; ++i) {
    auto r = replicas_[i].rep->RepRead(tx, key);
    if (!r.ok()) {
      if (r.status() == Status::kNodeDown) {
        continue;  // skip unreachable representatives
      }
      return r.status();
    }
    q.votes += replicas_[i].rep->votes();
    q.reachable.push_back(i);
    if (r.value().version > q.current.version) {
      q.current = r.value();
    }
  }
  if (q.votes < read_quorum_) {
    return Status::kNoQuorum;
  }
  return q;
}

Status ReplicatedDirectory::InstallWrite(const server::Tx& tx, const std::string& key,
                                         const RepEntry& entry) {
  int votes = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    Status s = replicas_[i].rep->RepWrite(tx, key, entry);
    if (s == Status::kOk) {
      votes += replicas_[i].rep->votes();
    } else if (s != Status::kNodeDown) {
      return s;  // a real failure (timeout etc.): let the caller abort
    }
  }
  // Partial installs below quorum are aborted by the caller; the distributed
  // transaction guarantees no representative keeps an unquorate write.
  return votes >= write_quorum_ ? Status::kOk : Status::kNoQuorum;
}

Result<std::string> ReplicatedDirectory::Lookup(const server::Tx& tx, const std::string& key) {
  auto q = GatherReadQuorum(tx, key);
  if (!q.ok()) {
    return q.status();
  }
  const RepEntry& e = q.value().current;
  if (e.version == 0 || e.deleted) {
    return Status::kNotFound;
  }
  return e.value;
}

Status ReplicatedDirectory::Insert(const server::Tx& tx, const std::string& key,
                                   const std::string& value) {
  auto q = GatherReadQuorum(tx, key);
  if (!q.ok()) {
    return q.status();
  }
  const RepEntry& cur = q.value().current;
  if (cur.version != 0 && !cur.deleted) {
    return Status::kConflict;  // already exists
  }
  RepEntry next;
  next.version = cur.version + 1;
  next.deleted = false;
  next.value = value;
  return InstallWrite(tx, key, next);
}

Status ReplicatedDirectory::Update(const server::Tx& tx, const std::string& key,
                                   const std::string& value) {
  auto q = GatherReadQuorum(tx, key);
  if (!q.ok()) {
    return q.status();
  }
  const RepEntry& cur = q.value().current;
  if (cur.version == 0 || cur.deleted) {
    return Status::kNotFound;
  }
  RepEntry next;
  next.version = cur.version + 1;
  next.deleted = false;
  next.value = value;
  return InstallWrite(tx, key, next);
}

Status ReplicatedDirectory::Remove(const server::Tx& tx, const std::string& key) {
  auto q = GatherReadQuorum(tx, key);
  if (!q.ok()) {
    return q.status();
  }
  const RepEntry& cur = q.value().current;
  if (cur.version == 0 || cur.deleted) {
    return Status::kNotFound;
  }
  RepEntry tombstone;
  tombstone.version = cur.version + 1;
  tombstone.deleted = true;
  return InstallWrite(tx, key, tombstone);
}

}  // namespace tabs::servers
