// A transactional file server — the paper's Section 2.2 cites Paxton's
// client-based transactional file system as prior art, and Section 7 names
// file systems first among the applications that "could be based on the
// implementation techniques that our existing servers use". This server is
// that application built on the TABS server library:
//
//  * a fixed table of file slots (name, size, page list) in the recoverable
//    segment, each slot individually lockable — two transactions can work on
//    different files concurrently;
//  * data pages allocated from a weak-queue-style recoverable allocator
//    (same technique as the B-tree server), so an aborted Create or Append
//    returns its pages;
//  * reads take shared slot locks, writes exclusive ones; every mutation
//    goes through PinAndBuffer/LogAndUnPin value logging, so file contents
//    are failure atomic and permanent, and crash recovery is the standard
//    single backward pass.
//
// Limits (documented, not hidden): at most kMaxFiles files, names up to
// kNameBytes, each file up to kMaxFilePages pages (page-granular storage).

#ifndef TABS_SERVERS_FILE_SERVER_H_
#define TABS_SERVERS_FILE_SERVER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/server/data_server.h"

namespace tabs::servers {

class FileServer : public server::DataServer {
 public:
  static constexpr std::uint32_t kMaxFiles = 32;
  static constexpr std::uint32_t kNameBytes = 24;
  static constexpr std::uint32_t kMaxFilePages = 16;
  static constexpr std::uint32_t kMaxFileBytes = kMaxFilePages * kPageSize;

  FileServer(const server::ServerContext& ctx, PageNumber data_pages = 256);

  // kConflict if the name exists or the table is full.
  Status Create(const server::Tx& tx, const std::string& name);
  // Removes the file and frees its pages (reclaimed at commit).
  Status Remove(const server::Tx& tx, const std::string& name);
  // Overwrites [offset, offset+data.size()), growing the file as needed.
  Status Write(const server::Tx& tx, const std::string& name, std::uint32_t offset,
               const Bytes& data);
  Status Append(const server::Tx& tx, const std::string& name, const Bytes& data);
  // Reads up to `length` bytes from `offset` (short reads at end of file).
  Result<Bytes> Read(const server::Tx& tx, const std::string& name, std::uint32_t offset,
                     std::uint32_t length);
  Result<std::uint32_t> Size(const server::Tx& tx, const std::string& name);
  Result<std::vector<std::string>> List(const server::Tx& tx);

  // Allocator introspection for tests.
  std::uint32_t AllocatedPages();

 private:
  // Segment layout:
  //   page 0:   allocator in-use bytes for data pages [kFirstDataPage, end)
  //   pages 1..kSlotPages: the file table, kMaxFiles slots of kSlotSize bytes
  //   pages kFirstDataPage..: file data pages
  // Slot layout: u8 in_use; name[kNameBytes] (len-prefixed); u32 size;
  //              u32 page_count; u32 pages[kMaxFilePages].
  static constexpr std::uint32_t kSlotSize = 1 + 1 + kNameBytes + 4 + 4 + 4 * kMaxFilePages;
  static constexpr std::uint32_t kSlotPages =
      (kMaxFiles * kSlotSize + kPageSize - 1) / kPageSize;
  static constexpr PageNumber kFirstDataPage = 1 + kSlotPages;

  struct Slot {
    bool in_use = false;
    std::string name;
    std::uint32_t size = 0;
    std::vector<PageNumber> pages;

    Bytes Serialize() const;
    static Slot Deserialize(const Bytes& b);
  };

  ObjectId SlotOid(std::uint32_t index) const {
    return CreateObjectId(kPageSize + index * kSlotSize, kSlotSize);
  }
  ObjectId DataOid(PageNumber page, std::uint32_t offset_in_page, std::uint32_t len) const {
    return CreateObjectId(page * kPageSize + offset_in_page, len);
  }

  Slot ReadSlot(std::uint32_t index);
  void WriteSlot(const server::Tx& tx, std::uint32_t index, const Slot& slot);
  // Finds the slot holding `name`; locks it in `mode` first-come.
  Result<std::uint32_t> FindSlot(const server::Tx& tx, const std::string& name,
                                 lock::LockMode mode);
  PagePool pool_;  // page p's in-use byte at offset p - kFirstDataPage
};

}  // namespace tabs::servers

#endif  // TABS_SERVERS_FILE_SERVER_H_
