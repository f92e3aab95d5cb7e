// Simulated non-volatile storage: the Perq disk.
//
// Pages are 512 bytes. Each page carries a sequence number stored in the
// sector's header space — the kernel modification that supports operation
// logging (Section 3.2.1): the recovery algorithm compares a page's sequence
// number against log-record sequence numbers to decide whether an operation's
// effect reached non-volatile storage.
//
// Disk contents survive node crashes (non-volatile) but, as in the paper, we
// do not model media failure ("we do not consider disk failures in this
// work", Section 3.2.2).

#ifndef TABS_SIM_SIM_DISK_H_
#define TABS_SIM_SIM_DISK_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/sim/substrate.h"

namespace tabs::sim {

struct DiskPage {
  std::vector<std::uint8_t> data;  // kPageSize bytes
  std::uint64_t sequence_number = 0;

  DiskPage() : data(kPageSize, 0) {}
};

class SimDisk {
 public:
  explicit SimDisk(Substrate& substrate) : substrate_(substrate) {}

  // Creates (or grows) a segment's backing store; newly created pages are
  // zero-filled. Free (uncharged): segment creation is setup, not workload.
  void EnsureSegment(SegmentId segment, PageNumber pages);
  PageNumber SegmentPages(SegmentId segment) const;

  // Reads a page into `out` (kPageSize bytes). `sequential` selects the
  // cheaper sequential-read primitive. Returns the page's sequence number.
  std::uint64_t ReadPage(PageId page, std::uint8_t* out, bool sequential);

  // Writes a page together with its new header sequence number. `sequential`
  // selects the cheaper sequential-write primitive (the page continues an
  // elevator-ordered sweep, so the arm does not seek); demand write-backs
  // pass false at their call sites — those writes are still random-access,
  // as the single disk interleaves log forces between them (Section 5.1).
  void WritePage(PageId page, const std::uint8_t* data, std::uint64_t sequence_number,
                 bool sequential = false);

  // Reads just the header sequence number (used by crash recovery; charged
  // as a random page I/O since it requires a seek).
  std::uint64_t ReadSequenceNumber(PageId page);

  // Uncharged accessors for tests and for recovery bootstrapping.
  const DiskPage& PeekPage(PageId page) const;

  // Media failure: the segment's non-volatile contents (data and sequence
  // numbers) are lost. The stable log device lives elsewhere and survives.
  void WipeSegment(SegmentId segment);

  // Archive restore: writes a page image including its sequence number,
  // charging one random page I/O (the restore is real disk traffic).
  void RestorePage(PageId page, const DiskPage& image);

  // --- fault injection ------------------------------------------------------
  // After skipping `after` more writes, the next `count` WritePage calls are
  // silently dropped: the disk charges and reports success but the old
  // contents and sequence number remain. Skip+lose models a torn elevator
  // batch (prefix of the sweep durable, tail lost); the page-seqno guard in
  // redo makes recovery repair exactly the lost pages.
  void InjectLostWrites(int count, int after = 0);
  // Scrambles a page's data deterministically and destroys its header
  // sequence number (a damaged sector). Value-logging recovery rewrites the
  // committed images; no virtual-time charge (damage, not I/O).
  void CorruptPage(PageId page);

 private:
  DiskPage& PageRef(PageId page);

  Substrate& substrate_;
  // Hashed: every access is a point lookup (ReadPage/WritePage on the I/O
  // hot path); nothing iterates, so ordering is never protocol-visible.
  std::unordered_map<SegmentId, std::vector<DiskPage>> segments_;
  int lost_writes_pending_ = 0;
  int lost_writes_after_ = 0;
};

}  // namespace tabs::sim

#endif  // TABS_SIM_SIM_DISK_H_
