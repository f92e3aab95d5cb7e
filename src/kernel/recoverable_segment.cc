#include "src/kernel/recoverable_segment.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/sim/fault_injector.h"

namespace tabs::kernel {

RecoverableSegment::RecoverableSegment(sim::Substrate& substrate, sim::SimDisk& disk,
                                       SegmentId id, PageNumber pages, size_t buffer_frames)
    : substrate_(substrate), disk_(disk), id_(id), page_count_(pages),
      buffer_frames_(buffer_frames) {
  assert(buffer_frames_ >= 2 && "need at least two frames for objects spanning a page edge");
  disk_.EnsureSegment(id, pages);
}

void RecoverableSegment::CheckBounds(const ObjectId& oid) const {
  assert(oid.segment == id_);
  assert(oid.offset + oid.length <= size_bytes() && "object outside segment");
}

RecoverableSegment::Frame& RecoverableSegment::FaultIn(PageNumber page) {
  auto it = frames_.find(page);
  if (it != frames_.end()) {
    it->second.lru_tick = ++lru_clock_;
    return it->second;
  }
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kKernel, "page.fault");
  while (frames_.size() >= buffer_frames_) {
    EvictOne();
  }
  // Eviction may have waited, and another task may have faulted the page in.
  it = frames_.find(page);
  if (it != frames_.end()) {
    it->second.lru_tick = ++lru_clock_;
    return it->second;
  }
  Frame frame;
  frame.data.resize(kPageSize);
  // A fault on the page after the previous fault is a sequential read; any
  // other pattern pays a seek (Section 5.1's two paged-I/O primitives).
  bool sequential = page == last_faulted_ + 1;
  disk_.ReadPage({id_, page}, frame.data.data(), sequential);
  last_faulted_ = page;
  ++faults_;
  frame.lru_tick = ++lru_clock_;
  auto [pos, inserted] = frames_.emplace(page, std::move(frame));
  assert(inserted);
  return pos->second;
}

void RecoverableSegment::EvictOne() {
  PageNumber victim = 0;
  // Victim choice: least-recently-used unpinned frame. With clean-preferring
  // eviction (the page cleaner's companion policy), clean frames outrank
  // dirty ones so a fault steals without paying a write-back whenever the
  // cleaner has kept one clean; within each class the order is still LRU.
  bool victim_dirty = false;
  std::uint64_t best = UINT64_MAX;
  bool found = false;
  bool writing = false;
  for (auto& [page, frame] : frames_) {
    if (frame.pin_count > 0) {
      continue;  // pinned pages are never stolen
    }
    if (frame.writebacks > 0) {
      writing = true;  // another task is writing it back
      continue;
    }
    bool better;
    if (prefer_clean_eviction_ && found && victim_dirty != frame.dirty) {
      better = victim_dirty && !frame.dirty;
    } else {
      better = frame.lru_tick < best;
    }
    if (!found || better) {
      best = frame.lru_tick;
      victim = page;
      victim_dirty = frame.dirty;
      found = true;
    }
  }
  if (!found && writing) {
    // Every unpinned frame is mid-write-back: wait for one to finish.
    substrate_.scheduler().Wait(writeback_done_);
    return;
  }
  if (!found) {
    throw BufferPoolExhausted("segment " + std::to_string(id_) + ": all " +
                              std::to_string(frames_.size()) +
                              " buffer frames are pinned; page fault cannot steal a victim");
  }
  Frame& frame = frames_[victim];
  while (frame.dirty) {
    WriteBack(victim, frame, /*sequential=*/false, /*background=*/false);
    // The WAL-gate wait inside WriteBack may have let another task re-dirty
    // this frame; the snapshot on disk doesn't cover those records, so flush
    // again rather than dropping them with the frame.
  }
  if (frame.pin_count > 0 || frame.writebacks > 0) {
    // Pinned during the write-back wait, or another write-back of it is
    // still in flight: not evictable now. The caller's retry loop will find
    // another victim (or this one again later).
    return;
  }
  frames_.erase(victim);
}

void RecoverableSegment::WriteBack(PageNumber page, Frame& frame, bool sequential,
                                   bool background) {
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kKernel, "page.writeback");
  // Snapshot the image and the LSN it is consistent with BEFORE the WAL
  // gate: the log force below (and the disk write after it) are blocking
  // waits, and a concurrent task may keep updating this frame while the
  // writer sleeps. Writing the live frame bytes then would put effects on
  // disk that are newer than the stamped sequence number — recovery's
  // sequence-number guard would skip re-applying their records while still
  // re-applying later compensations, corrupting the page.
  Bytes snapshot = frame.data;
  const Lsn covered = frame.last_lsn;
  // The frame stays put until this write-back finishes: a frame with one in
  // flight is never evicted, and the map keeps its elements in place.
  ++frame.writebacks;
  std::uint64_t seqno = covered;
  if (hooks_ != nullptr) {
    // "The kernel does not write the page until it receives a message from
    // the Recovery Manager indicating that all log records that apply to
    // this page have been written to non-volatile storage." (§3.2.1)
    seqno = hooks_->BeforePageWrite({id_, page}, covered);
  }
  // The WAL gate has passed but the page is still only in the frame: a crash
  // here tests that log records alone reconstruct the page.
  FAULT_POINT(substrate_, "segment.writeback.before_disk");
  disk_.WritePage({id_, page}, snapshot.data(), seqno, sequential);
  FAULT_POINT(substrate_, "segment.writeback.after_disk");
  substrate_.metrics().CountPageWrite(background);
  if (frame.last_lsn == covered) {
    frame.dirty = false;
    frame.recovery_lsn = kNullLsn;
  }
  // else: records landed in the frame during the write-back waits. The disk
  // holds the snapshot (consistent at `covered`); the frame stays dirty with
  // its original recovery_lsn — conservative for log reclamation — and a
  // later write-back picks up the new tail.
  if (hooks_ != nullptr) {
    hooks_->AfterPageWrite({id_, page}, true);
  }
  --frame.writebacks;
  if (!writeback_done_.empty()) {
    substrate_.scheduler().NotifyAll(writeback_done_);
  }
}

void RecoverableSegment::Read(const ObjectId& oid, std::uint8_t* out) {
  CheckBounds(oid);
  std::uint32_t copied = 0;
  for (PageNumber p = oid.FirstPage(); p <= oid.LastPage(); ++p) {
    Frame& frame = FaultIn(p);
    std::uint32_t page_start = p * kPageSize;
    std::uint32_t from = std::max(oid.offset, page_start) - page_start;
    std::uint32_t to = std::min(oid.offset + oid.length, page_start + kPageSize) - page_start;
    std::memcpy(out + copied, frame.data.data() + from, to - from);
    copied += to - from;
  }
  assert(copied == oid.length);
}

Bytes RecoverableSegment::Read(const ObjectId& oid) {
  Bytes out(oid.length);
  Read(oid, out.data());
  return out;
}

void RecoverableSegment::Write(const ObjectId& oid, const std::uint8_t* data, Lsn lsn) {
  CheckBounds(oid);
  std::uint32_t copied = 0;
  for (PageNumber p = oid.FirstPage(); p <= oid.LastPage(); ++p) {
    Frame& frame = FaultIn(p);
    std::uint32_t page_start = p * kPageSize;
    std::uint32_t from = std::max(oid.offset, page_start) - page_start;
    std::uint32_t to = std::min(oid.offset + oid.length, page_start + kPageSize) - page_start;
    std::memcpy(frame.data.data() + from, data + copied, to - from);
    copied += to - from;
    if (!frame.dirty) {
      frame.dirty = true;
      frame.recovery_lsn = lsn;
      if (hooks_ != nullptr) {
        hooks_->OnFirstDirty({id_, p}, lsn);
      }
    }
    frame.last_lsn = std::max(frame.last_lsn, lsn);
  }
  assert(copied == oid.length);
}

void RecoverableSegment::Pin(const ObjectId& oid) {
  CheckBounds(oid);
  for (PageNumber p = oid.FirstPage(); p <= oid.LastPage(); ++p) {
    FaultIn(p).pin_count++;
  }
}

void RecoverableSegment::Unpin(const ObjectId& oid) {
  CheckBounds(oid);
  for (PageNumber p = oid.FirstPage(); p <= oid.LastPage(); ++p) {
    auto it = frames_.find(p);
    assert(it != frames_.end() && it->second.pin_count > 0 && "unpin of unpinned page");
    it->second.pin_count--;
  }
}

void RecoverableSegment::UnpinAll() {
  for (auto& [page, frame] : frames_) {
    frame.pin_count = 0;
  }
}

bool RecoverableSegment::IsPinned(PageNumber page) const {
  auto it = frames_.find(page);
  return it != frames_.end() && it->second.pin_count > 0;
}

void RecoverableSegment::FlushAll() {
  // Ascending page order: the write-back sequence decides which WAL forces
  // are no-ops (forcing through a high LSN first absorbs later ones), so the
  // order must stay deterministic and match the original sorted-map walk.
  // Re-sweeps until nothing is dirty: concurrent updates (or evictions)
  // during a write-back's WAL-gate wait can leave a swept frame dirty again.
  for (;;) {
    std::vector<PageNumber> dirty;
    for (auto& [page, frame] : frames_) {
      if (frame.dirty) {
        dirty.push_back(page);
      }
    }
    if (dirty.empty()) {
      return;
    }
    std::sort(dirty.begin(), dirty.end());
    for (PageNumber page : dirty) {
      auto it = frames_.find(page);
      if (it == frames_.end() || !it->second.dirty) {
        continue;  // evicted or cleaned while an earlier page was writing
      }
      WriteBack(page, it->second, /*sequential=*/false, /*background=*/false);
    }
  }
}

std::vector<RecoverableSegment::DirtyPage> RecoverableSegment::DirtyPages() const {
  std::vector<DirtyPage> out;
  for (const auto& [page, frame] : frames_) {
    if (frame.dirty) {
      out.push_back({page, frame.recovery_lsn, frame.pin_count > 0});
    }
  }
  // Page order, as documented: the cleaner and reclamation flush these as
  // one elevator sweep and FlushPages requires ascending addresses.
  std::sort(out.begin(), out.end(),
            [](const DirtyPage& a, const DirtyPage& b) { return a.page < b.page; });
  return out;
}

int RecoverableSegment::FlushPages(const std::vector<PageNumber>& pages, bool background,
                                   bool write_pinned) {
  int written = 0;
  PageNumber prev = static_cast<PageNumber>(-2);
  for (PageNumber page : pages) {
    auto it = frames_.find(page);
    if (it == frames_.end() || !it->second.dirty ||
        (!write_pinned && it->second.pin_count > 0)) {
      continue;  // evicted, already cleaned, or pinned since selection
    }
    // One elevator sweep: a write whose address continues the previous one
    // contiguously needs no seek, exactly mirroring the sequential-read
    // detection on the fault path.
    bool sequential = page == prev + 1;
    WriteBack(page, it->second, sequential, background);
    prev = page;
    ++written;
  }
  return written;
}

size_t RecoverableSegment::dirty_page_count() const {
  size_t n = 0;
  for (const auto& [page, frame] : frames_) {
    n += frame.dirty ? 1 : 0;
  }
  return n;
}

std::uint64_t RecoverableSegment::DiskSequenceNumber(PageNumber page) {
  return disk_.ReadSequenceNumber({id_, page});
}

}  // namespace tabs::kernel
