// Recoverable segments: disk files mapped into a data server's memory.
//
// "The failure atomic and/or permanent data stored by data servers are
// stored in disk files that are mapped into virtual memory... the kernel's
// paging system updates a recoverable segment directly instead of updating
// paging storage." (Section 3.2.1.)
//
// This class reproduces the modified Accent kernel's behaviour:
//  * demand paging with a bounded buffer pool ("volatile storage"); faults
//    charge the random or sequential paged-I/O primitive (auto-detected from
//    the access pattern, as a disk arm would);
//  * pin/unpin paging control (PinObject et al., Table 3-1) — a pinned page
//    is never stolen, guaranteeing an object's permanent representation is
//    not changed before its modifications are logged;
//  * the three kernel→Recovery Manager messages: first-dirty notification,
//    write-permission request (the RM forces the log through the page's last
//    LSN before the write proceeds), and write-completion notification;
//  * the per-sector sequence number atomically written with each page-out —
//    the hook returns the number to stamp (operation logging compares it
//    against log-record LSNs during recovery, Section 3.2.1).

#ifndef TABS_KERNEL_RECOVERABLE_SEGMENT_H_
#define TABS_KERNEL_RECOVERABLE_SEGMENT_H_

#include <cstdint>
#include <list>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/types.h"
#include "src/sim/sim_disk.h"
#include "src/sim/substrate.h"

namespace tabs::kernel {

// Thrown by a page fault when every frame in the buffer pool is pinned: no
// victim can be stolen, so the fault cannot be serviced. Pin discipline bugs
// (a server pinning more pages than its pool holds) surface as this error
// instead of silently evicting a pinned page.
struct BufferPoolExhausted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The kernel→Recovery Manager half of the write-ahead-log protocol.
class WriteAheadHooks {
 public:
  virtual ~WriteAheadHooks() = default;

  // A page backed by a recoverable segment was modified for the first time
  // since it was loaded or cleaned.
  virtual void OnFirstDirty(PageId page, Lsn recovery_lsn) = 0;

  // The kernel wants to copy a modified page back to its segment. The
  // Recovery Manager must make all log records applying to this page stable
  // before returning; the return value is the sequence number to stamp into
  // the sector header.
  virtual std::uint64_t BeforePageWrite(PageId page, Lsn last_lsn) = 0;

  // The page copy finished.
  virtual void AfterPageWrite(PageId page, bool ok) = 0;
};

class RecoverableSegment {
 public:
  // `buffer_frames` bounds volatile storage: the paging benchmarks use an
  // array more than three times larger than physical memory (Section 5.1).
  RecoverableSegment(sim::Substrate& substrate, sim::SimDisk& disk, SegmentId id,
                     PageNumber pages, size_t buffer_frames);

  SegmentId id() const { return id_; }
  PageNumber page_count() const { return page_count_; }
  std::uint32_t size_bytes() const { return page_count_ * kPageSize; }

  void SetHooks(WriteAheadHooks* hooks) { hooks_ = hooks; }

  // Copies an object's current volatile value out (faulting pages as
  // needed). Never dirties.
  void Read(const ObjectId& oid, std::uint8_t* out);
  Bytes Read(const ObjectId& oid);

  // Overwrites an object's volatile value. Every covered page must be
  // pinned (the server library guarantees this via PinAndBuffer). `lsn` is
  // the latest log record covering this modification; it drives the WAL gate
  // and the sector sequence number. Recovery passes the record being
  // replayed; forward processing passes the freshly appended record.
  void Write(const ObjectId& oid, const std::uint8_t* data, Lsn lsn);
  void Write(const ObjectId& oid, const Bytes& data, Lsn lsn) {
    Write(oid, data.data(), lsn);
  }

  // Paging control (PinObject / UnPinObject / UnPinAllObjects, Table 3-1).
  void Pin(const ObjectId& oid);
  void Unpin(const ObjectId& oid);
  void UnpinAll();
  bool IsPinned(PageNumber page) const;

  // Flushes every dirty page through the WAL protocol (recovery completion,
  // checkpoints that force pages, orderly shutdown).
  void FlushAll();

  // --- dirty-page table -------------------------------------------------------
  struct DirtyPage {
    PageNumber page;
    Lsn recovery_lsn;  // first LSN that dirtied the page since clean
    bool pinned;
  };
  // Every dirty frame, in page order: the checkpoint's dirty-page table, the
  // reclamation sweep and, less its pinned entries, the cleaner's candidates.
  std::vector<DirtyPage> DirtyPages() const;

  // Writes the given frames back through the WAL protocol without evicting
  // them. `pages` must be sorted ascending (one elevator sweep): a page whose
  // disk address continues the sweep contiguously is charged the cheaper
  // sequential-write primitive. Frames that are no longer dirty or were
  // evicted are skipped; pinned frames are skipped too unless `write_pinned`
  // — writing (not stealing) a pinned frame is safe because frames only ever
  // hold logged modifications, and reclamation needs it (the triggering
  // update's own page is pinned while it reclaims). `background` marks the
  // write-backs as cleaner work in the metrics (foreground = a transaction
  // paid synchronously). Returns the number of pages written.
  int FlushPages(const std::vector<PageNumber>& pages, bool background,
                 bool write_pinned = false);

  // Eviction policy: with `prefer_clean` set, a page fault steals the
  // least-recently-used *clean* frame and falls back to dirty frames only
  // when no clean one is unpinned — the payoff of background cleaning. Off
  // (the default) keeps the paper-faithful pure-LRU choice.
  void set_prefer_clean_eviction(bool prefer_clean) { prefer_clean_eviction_ = prefer_clean; }

  size_t dirty_page_count() const;

  // Disk sequence number of a page (recovery reads sector headers).
  std::uint64_t DiskSequenceNumber(PageNumber page);

  size_t resident_pages() const { return frames_.size(); }
  std::uint64_t fault_count() const { return faults_; }

 private:
  struct Frame {
    std::vector<std::uint8_t> data;
    bool dirty = false;
    int pin_count = 0;
    Lsn recovery_lsn = kNullLsn;  // first LSN since clean
    Lsn last_lsn = kNullLsn;      // latest LSN affecting the page
    std::uint64_t lru_tick = 0;
    // Write-backs in flight. Each holds the frame across its waits, so
    // EvictOne neither picks nor erases a frame while this is nonzero.
    int writebacks = 0;
  };

  Frame& FaultIn(PageNumber page);
  // Frees one frame, or waits for a write-back to finish when every unpinned
  // frame is mid-write-back; the caller loops until a frame is free.
  void EvictOne();
  void WriteBack(PageNumber page, Frame& frame, bool sequential, bool background);
  void CheckBounds(const ObjectId& oid) const;

  sim::Substrate& substrate_;
  sim::SimDisk& disk_;
  SegmentId id_;
  PageNumber page_count_;
  size_t buffer_frames_;
  WriteAheadHooks* hooks_ = nullptr;
  // Hashed: FaultIn is a point lookup on every object Read/Write. Walks that
  // need an order (FlushAll's write-back sequence, DirtyPages) sort
  // explicitly; the remaining iterations (EvictOne's LRU scan over unique
  // lru_ticks, UnpinAll, dirty_page_count) are order-insensitive.
  std::unordered_map<PageNumber, Frame> frames_;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t faults_ = 0;
  PageNumber last_faulted_ = static_cast<PageNumber>(-2);
  bool prefer_clean_eviction_ = false;
  // Evictors waiting for a write-back in flight to finish.
  sim::WaitQueue writeback_done_;
};

}  // namespace tabs::kernel

#endif  // TABS_KERNEL_RECOVERABLE_SEGMENT_H_
