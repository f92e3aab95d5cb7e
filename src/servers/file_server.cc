#include "src/servers/file_server.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace tabs::servers {

namespace {
server::DataServer::Options MakeOptions(PageNumber data_pages) {
  server::DataServer::Options o;
  o.pages = 1 /*allocator*/ +
            (FileServer::kMaxFiles * (1 + 1 + FileServer::kNameBytes + 8 +
                                      4 * FileServer::kMaxFilePages) +
             kPageSize - 1) /
                kPageSize +
            data_pages;
  return o;
}
}  // namespace

Bytes FileServer::Slot::Serialize() const {
  Bytes b(kSlotSize, 0);
  b[0] = in_use ? 1 : 0;
  assert(name.size() <= kNameBytes);
  b[1] = static_cast<std::uint8_t>(name.size());
  std::memcpy(b.data() + 2, name.data(), name.size());
  std::memcpy(b.data() + 2 + kNameBytes, &size, 4);
  std::uint32_t count = static_cast<std::uint32_t>(pages.size());
  std::memcpy(b.data() + 6 + kNameBytes, &count, 4);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::memcpy(b.data() + 10 + kNameBytes + i * 4, &pages[i], 4);
  }
  return b;
}

FileServer::Slot FileServer::Slot::Deserialize(const Bytes& b) {
  Slot s;
  s.in_use = b[0] != 0;
  std::uint8_t len = b[1];
  s.name.assign(reinterpret_cast<const char*>(b.data() + 2), len);
  std::memcpy(&s.size, b.data() + 2 + kNameBytes, 4);
  std::uint32_t count;
  std::memcpy(&count, b.data() + 6 + kNameBytes, 4);
  for (std::uint32_t i = 0; i < count && i < kMaxFilePages; ++i) {
    PageNumber p;
    std::memcpy(&p, b.data() + 10 + kNameBytes + i * 4, 4);
    s.pages.push_back(p);
  }
  return s;
}

FileServer::FileServer(const server::ServerContext& ctx, PageNumber data_pages)
    : DataServer(ctx, MakeOptions(data_pages)),
      pool_{.map_offset = 0, .first = kFirstDataPage, .end = kFirstDataPage + data_pages} {
  assert(data_pages <= kPageSize && "allocator byte map must fit in page 0");
}

FileServer::Slot FileServer::ReadSlot(std::uint32_t index) {
  return Slot::Deserialize(ReadObject(SlotOid(index)));
}

void FileServer::WriteSlot(const server::Tx& tx, std::uint32_t index, const Slot& slot) {
  ObjectId oid = SlotOid(index);
  PinAndBuffer(tx, oid);
  Staged(tx, oid) = slot.Serialize();
  LogAndUnPin(tx, oid);
}

Result<std::uint32_t> FileServer::FindSlot(const server::Tx& tx, const std::string& name,
                                           lock::LockMode mode) {
  for (std::uint32_t i = 0; i < kMaxFiles; ++i) {
    // Unprotected peek first (weak-queue style), then confirm under lock.
    Slot s = ReadSlot(i);
    if (!s.in_use || s.name != name) {
      continue;
    }
    Status st = LockObject(tx, SlotOid(i), mode);
    if (st != Status::kOk) {
      return st;
    }
    s = ReadSlot(i);
    if (s.in_use && s.name == name) {
      return i;
    }
  }
  return Status::kNotFound;
}

Status FileServer::Create(const server::Tx& tx, const std::string& name) {
  auto r = Call<bool>(tx, "Create", [this, tx, name = name]() -> Result<bool> {
    if (name.empty() || name.size() > kNameBytes) {
      return Status::kOutOfRange;
    }
    if (FindSlot(tx, name, lock::kShared).ok()) {
      return Status::kConflict;  // exists
    }
    for (std::uint32_t i = 0; i < kMaxFiles; ++i) {
      if (ReadSlot(i).in_use || IsObjectLocked(SlotOid(i))) {
        continue;
      }
      if (!ConditionallyLockObject(tx, SlotOid(i), lock::kExclusive)) {
        continue;
      }
      if (ReadSlot(i).in_use) {
        continue;  // raced
      }
      Slot s;
      s.in_use = true;
      s.name = name;
      WriteSlot(tx, i, s);
      return true;
    }
    return Status::kConflict;  // table full
  });
  return r.ok() ? Status::kOk : r.status();
}

Status FileServer::Remove(const server::Tx& tx, const std::string& name) {
  auto r = Call<bool>(tx, "Remove", [this, tx, name = name]() -> Result<bool> {
    auto idx = FindSlot(tx, name, lock::kExclusive);
    if (!idx.ok()) {
      return idx.status();
    }
    Slot s = ReadSlot(idx.value());
    for (PageNumber p : s.pages) {
      FreePage(tx, pool_, p);
    }
    WriteSlot(tx, idx.value(), Slot{});
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status FileServer::Write(const server::Tx& tx, const std::string& name, std::uint32_t offset,
                         const Bytes& data) {
  auto r = Call<bool>(tx, "Write", [this, tx, name = name, offset, &data]() -> Result<bool> {
    if (offset + data.size() > kMaxFileBytes) {
      return Status::kOutOfRange;
    }
    auto idx = FindSlot(tx, name, lock::kExclusive);
    if (!idx.ok()) {
      return idx.status();
    }
    Slot s = ReadSlot(idx.value());
    // Grow the page list to cover the write.
    std::uint32_t end = offset + static_cast<std::uint32_t>(data.size());
    std::uint32_t pages_needed = (end + kPageSize - 1) / kPageSize;
    while (s.pages.size() < pages_needed) {
      auto page = AllocatePage(tx, pool_);
      if (!page.ok()) {
        return page.status();
      }
      s.pages.push_back(page.value());
    }
    // Write page by page. Each data page is one logged object (whole-page
    // value records): logged components need stable identities — the value
    // algorithm's backward pass tracks objects by exact ObjectId, so
    // variable-shaped overlapping regions would alias across reuse.
    std::uint32_t written = 0;
    while (written < data.size()) {
      std::uint32_t pos = offset + written;
      std::uint32_t page_index = pos / kPageSize;
      std::uint32_t in_page = pos % kPageSize;
      std::uint32_t chunk = std::min<std::uint32_t>(
          kPageSize - in_page, static_cast<std::uint32_t>(data.size()) - written);
      ObjectId oid = DataOid(s.pages[page_index], 0, kPageSize);
      PinAndBuffer(tx, oid);
      std::memcpy(Staged(tx, oid).data() + in_page, data.data() + written, chunk);
      LogAndUnPin(tx, oid);
      written += chunk;
    }
    if (end > s.size) {
      s.size = end;
    }
    WriteSlot(tx, idx.value(), s);
    return true;
  });
  return r.ok() ? Status::kOk : r.status();
}

Status FileServer::Append(const server::Tx& tx, const std::string& name, const Bytes& data) {
  auto size = Size(tx, name);
  if (!size.ok()) {
    return size.status();
  }
  return Write(tx, name, size.value(), data);
}

Result<Bytes> FileServer::Read(const server::Tx& tx, const std::string& name,
                               std::uint32_t offset, std::uint32_t length) {
  return Call<Bytes>(tx, "Read", [this, tx, name = name, offset, length]() -> Result<Bytes> {
    auto idx = FindSlot(tx, name, lock::kShared);
    if (!idx.ok()) {
      return idx.status();
    }
    Slot s = ReadSlot(idx.value());
    if (offset >= s.size) {
      return Bytes{};
    }
    std::uint32_t end = std::min(offset + length, s.size);
    Bytes out;
    out.reserve(end - offset);
    std::uint32_t pos = offset;
    while (pos < end) {
      std::uint32_t page_index = pos / kPageSize;
      std::uint32_t in_page = pos % kPageSize;
      std::uint32_t chunk = std::min(kPageSize - in_page, end - pos);
      Bytes piece = ReadObject(DataOid(s.pages[page_index], in_page, chunk));
      out.insert(out.end(), piece.begin(), piece.end());
      pos += chunk;
    }
    return out;
  });
}

Result<std::uint32_t> FileServer::Size(const server::Tx& tx, const std::string& name) {
  return Call<std::uint32_t>(tx, "Size", [this, tx, name = name]() -> Result<std::uint32_t> {
    auto idx = FindSlot(tx, name, lock::kShared);
    if (!idx.ok()) {
      return idx.status();
    }
    return ReadSlot(idx.value()).size;
  });
}

Result<std::vector<std::string>> FileServer::List(const server::Tx& tx) {
  using Names = std::vector<std::string>;
  return Call<Names>(tx, "List", [this, tx]() -> Result<Names> {
    Names out;
    for (std::uint32_t i = 0; i < kMaxFiles; ++i) {
      Status s = LockObject(tx, SlotOid(i), lock::kShared);
      if (s != Status::kOk) {
        return s;
      }
      Slot slot = ReadSlot(i);
      if (slot.in_use) {
        out.push_back(slot.name);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  });
}

std::uint32_t FileServer::AllocatedPages() { return PagesInUse(pool_); }

}  // namespace tabs::servers
