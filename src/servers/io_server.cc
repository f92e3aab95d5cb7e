#include "src/servers/io_server.h"

#include <cstring>
#include <sstream>

namespace tabs::servers {

namespace {
server::DataServer::Options MakeOptions(std::uint32_t area_count) {
  server::DataServer::Options o;
  constexpr std::uint32_t kAreaSize = 24 + 48 * 8 + 2048;
  o.pages = (area_count * kAreaSize + kPageSize - 1) / kPageSize;
  return o;
}
}  // namespace

IoServer::IoServer(const server::ServerContext& ctx, std::uint32_t area_count)
    : DataServer(ctx, MakeOptions(area_count)), area_count_(area_count) {}

std::uint32_t IoServer::ReadU32(const ObjectId& oid) {
  Bytes b = ReadObject(oid);
  std::uint32_t v;
  std::memcpy(&v, b.data(), 4);
  return v;
}

void IoServer::PermanentWriteU32(const server::Tx&, const ObjectId& oid, std::uint32_t v) {
  // A fresh top-level transaction makes the write permanent regardless of
  // what the client transaction later does.
  Status s = ExecuteTransaction([&](const server::Tx& io_tx) {
    if (LockObject(io_tx, oid, lock::kExclusive) != Status::kOk) {
      return Status::kTimeout;
    }
    PinAndBuffer(io_tx, oid);
    std::memcpy(Staged(io_tx, oid).data(), &v, 4);
    LogAndUnPin(io_tx, oid);
    return Status::kOk;
  });
  (void)s;
}

Result<IoAreaId> IoServer::ObtainIOArea(const server::Tx& tx) {
  return Call<IoAreaId>(tx, "ObtainIOArea", [this, tx]() -> Result<IoAreaId> {
    for (IoAreaId area = 0; area < area_count_; ++area) {
      if (IsObjectLocked(StateOid(area))) {
        continue;  // owned by a live transaction
      }
      if (ReadU32(AllocatedOid(area)) != 0) {
        continue;  // still displaying a finished interaction (not destroyed)
      }
      std::uint32_t epoch = ReadU32(EpochOid(area));
      // Start a fresh epoch: clear the area's text, write `aborted` into the
      // state object — all permanent (ExecuteTransaction), then let the
      // CLIENT transaction lock the state object and set `committed`.
      Status s = ExecuteTransaction([&](const server::Tx& io_tx) {
        PermanentWriteU32(io_tx, EpochOid(area), epoch + 1);
        PermanentWriteU32(io_tx, LenOid(area), 0);
        PermanentWriteU32(io_tx, LineCountOid(area), 0);
        PermanentWriteU32(io_tx, AllocatedOid(area), 1);
        PermanentWriteU32(io_tx, StateOid(area), 0);  // aborted
        return Status::kOk;
      });
      if (s != Status::kOk) {
        return Status::kConflict;
      }
      ObjectId state = StateOid(area);
      if (LockObject(tx, state, lock::kExclusive) != Status::kOk) {
        return Status::kTimeout;
      }
      PinAndBuffer(tx, state);
      std::uint32_t committed = 1;
      std::memcpy(Staged(tx, state).data(), &committed, 4);
      LogAndUnPin(tx, state);
      // Now: locked -> in progress; on commit the 1 stays; on abort recovery
      // resets the old value 0 = aborted. Exactly the paper's trick.
      return area;
    }
    return Status::kConflict;  // no free area
  });
}

Status IoServer::DestroyIOArea(const server::Tx& tx, IoAreaId area) {
  auto r = Call<bool>(tx, "DestroyIOArea", [this, tx, area]() -> Result<bool> {
    if (area >= area_count_) {
      return Status::kOutOfRange;
    }
    Status s = ExecuteTransaction([&](const server::Tx& io_tx) {
      PermanentWriteU32(io_tx, LenOid(area), 0);
      PermanentWriteU32(io_tx, LineCountOid(area), 0);
      PermanentWriteU32(io_tx, AllocatedOid(area), 0);  // free for reuse
      return Status::kOk;
    });
    if (s != Status::kOk) {
      return s;
    }
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status IoServer::AppendLine(const server::Tx& tx, IoAreaId area, const std::string& text,
                            bool is_input) {
  if (area >= area_count_) {
    return Status::kOutOfRange;
  }
  // "The IO server displays all output as it occurs": the characters are
  // written in their own top-level transaction so they persist even if the
  // client aborts.
  return ExecuteTransaction([&](const server::Tx& io_tx) {
    std::uint32_t len = ReadU32(LenOid(area));
    std::uint32_t count = ReadU32(LineCountOid(area));
    std::uint32_t n = static_cast<std::uint32_t>(text.size());
    if (count >= kMaxLines || len + n > kTextBytes) {
      return Status::kConflict;  // area full
    }
    // Text bytes, written in fixed 128-byte blocks: logged objects need
    // stable identities (the value algorithm's backward pass tracks them by
    // exact ObjectId), so appends of varying length must not mint
    // varying-shape overlapping objects across epochs.
    constexpr std::uint32_t kBlock = 128;
    std::uint32_t written = 0;
    while (written < n) {
      std::uint32_t pos = len + written;
      std::uint32_t block = pos / kBlock;
      std::uint32_t in_block = pos % kBlock;
      std::uint32_t chunk = std::min(kBlock - in_block, n - written);
      ObjectId text_obj = TextOid(area, block * kBlock, kBlock);
      if (LockObject(io_tx, text_obj, lock::kExclusive) != Status::kOk) {
        return Status::kTimeout;
      }
      PinAndBuffer(io_tx, text_obj);
      std::memcpy(Staged(io_tx, text_obj).data() + in_block, text.data() + written, chunk);
      LogAndUnPin(io_tx, text_obj);
      written += chunk;
    }
    // Line-table entry: {offset u16, len u16, input u8}.
    ObjectId line_obj = LineOid(area, count);
    if (LockObject(io_tx, line_obj, lock::kExclusive) != Status::kOk) {
      return Status::kTimeout;
    }
    PinAndBuffer(io_tx, line_obj);
    Bytes& e = Staged(io_tx, line_obj);
    std::uint16_t off16 = static_cast<std::uint16_t>(len);
    std::uint16_t len16 = static_cast<std::uint16_t>(n);
    std::memcpy(e.data(), &off16, 2);
    std::memcpy(e.data() + 2, &len16, 2);
    e[4] = is_input ? 1 : 0;
    LogAndUnPin(io_tx, line_obj);
    PermanentWriteU32(io_tx, LenOid(area), len + n);
    PermanentWriteU32(io_tx, LineCountOid(area), count + 1);
    return Status::kOk;
  });
}

Status IoServer::WriteToArea(const server::Tx& tx, IoAreaId area, const std::string& text) {
  auto r = Call<bool>(tx, "WriteToArea", [this, tx, area, text = text]() -> Result<bool> {
    if (area >= area_count_) {
      return Status::kOutOfRange;
    }
    partial_line_[area] += text;
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status IoServer::WriteLnToArea(const server::Tx& tx, IoAreaId area, const std::string& text) {
  auto r = Call<bool>(tx, "WriteLnToArea", [this, tx, area, text = text]() -> Result<bool> {
    std::string full = text;
    auto partial = partial_line_.find(area);
    if (partial != partial_line_.end()) {
      full = partial->second + text;
      partial_line_.erase(partial);
    }
    Status s = AppendLine(tx, area, full, /*is_input=*/false);
    if (s != Status::kOk) {
      return s;
    }
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

void IoServer::TypeInput(IoAreaId area, std::string line) {
  pending_input_[area].push_back(std::move(line));
  sim::Scheduler& sched = substrate().scheduler();
  if (sched.in_task()) {
    sched.NotifyAll(input_arrived_);
  }
}

Result<std::string> IoServer::BlockForInput(IoAreaId area) {
  auto& queue = pending_input_[area];
  sim::Scheduler& sched = substrate().scheduler();
  while (queue.empty()) {
    if (!sched.WaitUntil(input_arrived_, sched.Now() + 60'000'000)) {
      return Status::kTimeout;  // conversational patience has limits
    }
  }
  std::string line = std::move(queue.front());
  queue.pop_front();
  return line;
}

Result<char> IoServer::ReadCharFromArea(const server::Tx& tx, IoAreaId area) {
  return Call<char>(tx, "ReadCharFromArea", [this, tx, area]() -> Result<char> {
    auto line = BlockForInput(area);
    if (!line.ok()) {
      return line.status();
    }
    char c = line.value().empty() ? '\n' : line.value()[0];
    // Unconsumed characters go back to the front of the input queue.
    if (line.value().size() > 1) {
      pending_input_[area].push_front(line.value().substr(1));
    }
    Status s = AppendLine(tx, area, std::string(1, c), /*is_input=*/true);
    if (s != Status::kOk) {
      return s;
    }
    return c;
  });
}

Result<std::string> IoServer::ReadLineFromArea(const server::Tx& tx, IoAreaId area) {
  return Call<std::string>(tx, "ReadLineFromArea", [this, tx, area]() -> Result<std::string> {
    auto line = BlockForInput(area);
    if (!line.ok()) {
      return line.status();
    }
    Status s = AppendLine(tx, area, line.value(), /*is_input=*/true);
    if (s != Status::kOk) {
      return s;
    }
    return line.value();
  });
}

std::vector<DisplayLine> IoServer::Render(IoAreaId area) {
  std::vector<DisplayLine> out;
  if (area >= area_count_) {
    return out;
  }
  // Transaction state via the paper's state-object protocol.
  DisplayState state;
  if (IsObjectLocked(StateOid(area))) {
    state = DisplayState::kInProgress;
  } else if (ReadU32(StateOid(area)) == 1) {
    state = DisplayState::kCommitted;
  } else {
    state = DisplayState::kAborted;
  }
  std::uint32_t count = ReadU32(LineCountOid(area));
  for (std::uint32_t i = 0; i < count && i < kMaxLines; ++i) {
    Bytes e = ReadObject(LineOid(area, i));
    std::uint16_t off16;
    std::uint16_t len16;
    std::memcpy(&off16, e.data(), 2);
    std::memcpy(&len16, e.data() + 2, 2);
    DisplayLine line;
    if (len16 > 0) {
      Bytes text = ReadObject(TextOid(area, off16, len16));
      line.text.assign(text.begin(), text.end());
    }
    line.state = state;
    line.is_input = e[4] != 0;
    out.push_back(std::move(line));
  }
  return out;
}

std::string IoServer::RenderScreen() {
  std::ostringstream os;
  for (IoAreaId area = 0; area < area_count_; ++area) {
    auto lines = Render(area);
    if (lines.empty()) {
      continue;
    }
    os << "--- area " << area << " ---\n";
    for (const DisplayLine& l : lines) {
      const char* mark = "";
      switch (l.state) {
        case DisplayState::kInProgress:
          mark = "[gray] ";
          break;
        case DisplayState::kCommitted:
          mark = "[black] ";
          break;
        case DisplayState::kAborted:
          mark = "[struck] ";
          break;
      }
      os << mark << (l.is_input ? "[input] " : "") << l.text << "\n";
    }
  }
  return os.str();
}

}  // namespace tabs::servers
