#include "src/kernel/page_cleaner.h"

#include <algorithm>
#include <string>

#include "src/kernel/recoverable_segment.h"
#include "src/sim/scheduler.h"
#include "src/sim/tracer.h"

namespace tabs::kernel {

void PageCleaner::AddSegment(RecoverableSegment* segment) {
  segments_.push_back(segment);
}

void PageCleaner::RemoveSegment(RecoverableSegment* segment) {
  std::erase(segments_, segment);
}

void PageCleaner::NotifyDirty() {
  if (!enabled() || pass_scheduled_) {
    return;
  }
  pass_scheduled_ = true;
  sim::Scheduler& sched = substrate_.scheduler();
  SimTime start = (sched.in_task() ? sched.Now() : 0) + options_.interval_us;
  sched.Spawn("page-cleaner", node_, start, [this] { RunPass(); });
}

void PageCleaner::RunPass() {
  pass_scheduled_ = false;
  // Background work: the kernel/RM messages of the WAL gate leave every
  // transaction's primitive counts untouched; the I/O itself is still
  // charged (to the cleaner's own virtual clock).
  sim::Substrate::BackgroundScope background(substrate_);
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kKernel, "cleaner.pass");

  // Select the oldest dirty frames by recovery LSN across all segments —
  // the pages pinning the log tail get cleaned first. Ties break by
  // (segment id, page) so runs are deterministic.
  struct Candidate {
    Lsn recovery_lsn;
    SegmentId segment_id;
    RecoverableSegment* segment;
    PageNumber page;
  };
  std::vector<Candidate> candidates;
  for (RecoverableSegment* seg : segments_) {
    for (const RecoverableSegment::DirtyPage& d : seg->DirtyPages()) {
      if (!d.pinned) {
        candidates.push_back({d.recovery_lsn, seg->id(), seg, d.page});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    return std::tie(a.recovery_lsn, a.segment_id, a.page) <
           std::tie(b.recovery_lsn, b.segment_id, b.page);
  });
  if (candidates.size() > static_cast<size_t>(options_.max_batch_pages)) {
    candidates.resize(static_cast<size_t>(options_.max_batch_pages));
  }

  // Issue the batch in elevator order: one ascending sweep per segment, in
  // registration order, so contiguous dirty runs become sequential writes.
  int written = 0;
  for (RecoverableSegment* seg : segments_) {
    std::vector<PageNumber> pages;
    for (const Candidate& c : candidates) {
      if (c.segment == seg) {
        pages.push_back(c.page);
      }
    }
    if (pages.empty()) {
      continue;
    }
    std::sort(pages.begin(), pages.end());
    written += seg->FlushPages(pages, /*background=*/true);
  }
  if (written > 0) {
    ++passes_;
    pages_cleaned_ += static_cast<std::uint64_t>(written);
    if (substrate_.tracer().enabled()) {
      sim::Scheduler& sched = substrate_.scheduler();
      substrate_.tracer().Record(sched.Now(), node_, "page-clean",
                                 "pages=" + std::to_string(written));
    }
  }

  // Re-arm while dirty unpinned frames remain (more than one batch's worth,
  // or pages that were pinned when this sweep selected). Newly dirtied pages
  // re-arm through NotifyDirty.
  for (RecoverableSegment* seg : segments_) {
    std::vector<RecoverableSegment::DirtyPage> dirty = seg->DirtyPages();
    if (std::any_of(dirty.begin(), dirty.end(),
                    [](const RecoverableSegment::DirtyPage& d) { return !d.pinned; })) {
      NotifyDirty();
      break;
    }
  }
}

}  // namespace tabs::kernel
