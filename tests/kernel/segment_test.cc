#include "src/kernel/recoverable_segment.h"

#include <gtest/gtest.h>

#include <numeric>

#include "src/sim/sim_disk.h"

namespace tabs::kernel {
namespace {

using sim::CostModel;
using sim::Primitive;

// Records the kernel->Recovery Manager WAL messages for inspection.
class RecordingHooks : public WriteAheadHooks {
 public:
  void OnFirstDirty(PageId page, Lsn recovery_lsn) override {
    first_dirty.emplace_back(page, recovery_lsn);
  }
  std::uint64_t BeforePageWrite(PageId page, Lsn last_lsn) override {
    before_write.emplace_back(page, last_lsn);
    return last_lsn;  // stamp the page with its last LSN
  }
  void AfterPageWrite(PageId page, bool ok) override { after_write.emplace_back(page, ok); }

  std::vector<std::pair<PageId, Lsn>> first_dirty;
  std::vector<std::pair<PageId, Lsn>> before_write;
  std::vector<std::pair<PageId, bool>> after_write;
};

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest()
      : substrate_(sched_, CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        disk_(substrate_) {}

  void RunInTask(std::function<void()> fn) {
    sched_.Spawn("test", 1, 0, std::move(fn));
    ASSERT_EQ(sched_.Run(), 0);
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  sim::SimDisk disk_;
};

TEST_F(SegmentTest, ReadFaultsInAndReturnsDiskContents) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 4);
  std::uint8_t page[kPageSize] = {};
  page[10] = 0xab;
  RunInTask([&] {
    disk_.WritePage({1, 0}, page, 0);
    Bytes v = seg.Read({1, 10, 1});
    EXPECT_EQ(v, Bytes{0xab});
    EXPECT_EQ(seg.fault_count(), 1u);
    seg.Read({1, 11, 1});  // same page: no new fault
    EXPECT_EQ(seg.fault_count(), 1u);
  });
}

TEST_F(SegmentTest, WriteReadRoundTripAcrossPageBoundary) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 4);
  RunInTask([&] {
    ObjectId oid{1, kPageSize - 2, 4};  // spans pages 0 and 1
    Bytes v{1, 2, 3, 4};
    seg.Pin(oid);
    seg.Write(oid, v, 100);
    seg.Unpin(oid);
    EXPECT_EQ(seg.Read(oid), v);
  });
}

TEST_F(SegmentTest, FirstDirtySignalsOncePerCleanPage) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 4);
  RecordingHooks hooks;
  seg.SetHooks(&hooks);
  RunInTask([&] {
    ObjectId oid{1, 0, 4};
    seg.Pin(oid);
    seg.Write(oid, Bytes{1, 2, 3, 4}, 10);
    seg.Write(oid, Bytes{5, 6, 7, 8}, 20);
    seg.Unpin(oid);
  });
  ASSERT_EQ(hooks.first_dirty.size(), 1u);
  EXPECT_EQ(hooks.first_dirty[0].first, (PageId{1, 0}));
  EXPECT_EQ(hooks.first_dirty[0].second, 10u);  // recovery LSN = first dirtier
}

TEST_F(SegmentTest, EvictionWritesBackThroughWalGate) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 2);
  RecordingHooks hooks;
  seg.SetHooks(&hooks);
  RunInTask([&] {
    ObjectId a{1, 0, 4};
    seg.Pin(a);
    seg.Write(a, Bytes{9, 9, 9, 9}, 42);
    seg.Unpin(a);
    // Touch two more pages; page 0 must be evicted and written back.
    seg.Read({1, kPageSize, 1});
    seg.Read({1, 2 * kPageSize, 1});
  });
  ASSERT_EQ(hooks.before_write.size(), 1u);
  EXPECT_EQ(hooks.before_write[0].second, 42u);  // gate sees the page's last LSN
  ASSERT_EQ(hooks.after_write.size(), 1u);
  EXPECT_TRUE(hooks.after_write[0].second);
  // The sector header got the sequence number the hook returned.
  EXPECT_EQ(disk_.PeekPage({1, 0}).sequence_number, 42u);
  EXPECT_EQ(disk_.PeekPage({1, 0}).data[0], 9);
}

TEST_F(SegmentTest, PinnedPagesAreNeverEvicted) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 2);
  RunInTask([&] {
    ObjectId a{1, 0, 4};
    seg.Pin(a);
    seg.Write(a, Bytes{1, 1, 1, 1}, 7);
    seg.Read({1, kPageSize, 1});
    seg.Read({1, 2 * kPageSize, 1});  // must evict the *other* page
    EXPECT_TRUE(seg.IsPinned(0));
    // Dirty data still in memory, not on disk.
    EXPECT_EQ(disk_.PeekPage({1, 0}).data[0], 0);
    seg.Unpin(a);
  });
}

TEST_F(SegmentTest, SequentialFaultsChargeSequentialReads) {
  RecoverableSegment seg(substrate_, disk_, 1, 64, 4);
  RunInTask([&] {
    for (PageNumber p = 0; p < 10; ++p) {
      seg.Read({1, p * kPageSize, 1});
    }
  });
  const auto counts = substrate_.metrics().Total();
  // First fault is random (a seek), the following nine are sequential.
  EXPECT_EQ(counts.Of(Primitive::kRandomPageIo), 1.0);
  EXPECT_EQ(counts.Of(Primitive::kSequentialRead), 9.0);
}

TEST_F(SegmentTest, RandomFaultsChargeRandomIo) {
  RecoverableSegment seg(substrate_, disk_, 1, 64, 4);
  RunInTask([&] {
    for (PageNumber p : {5u, 60u, 17u, 33u, 2u}) {
      seg.Read({1, p * kPageSize, 1});
    }
  });
  EXPECT_EQ(substrate_.metrics().Total().Of(Primitive::kRandomPageIo), 5.0);
}

TEST_F(SegmentTest, DirtyPageTableTracksRecoveryLsns) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 4);
  RunInTask([&] {
    ObjectId a{1, 0, 4}, b{1, kPageSize, 4};
    seg.Pin(a);
    seg.Pin(b);
    seg.Write(a, Bytes{1, 0, 0, 0}, 11);
    seg.Write(b, Bytes{2, 0, 0, 0}, 22);
    seg.Write(a, Bytes{3, 0, 0, 0}, 33);
    seg.Unpin(a);
    seg.Unpin(b);
    auto dirty = seg.DirtyPages();
    ASSERT_EQ(dirty.size(), 2u);
    EXPECT_EQ(dirty[0].page, 0u);
    EXPECT_EQ(dirty[0].recovery_lsn, 11u);  // first LSN since clean, not the latest
    EXPECT_EQ(dirty[1].page, 1u);
    EXPECT_EQ(dirty[1].recovery_lsn, 22u);
    seg.FlushAll();
    EXPECT_TRUE(seg.DirtyPages().empty());
  });
}

TEST_F(SegmentTest, FlushAllStampsSequenceNumbers) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 4);
  RunInTask([&] {
    ObjectId a{1, 0, 4};
    seg.Pin(a);
    seg.Write(a, Bytes{1, 2, 3, 4}, 55);
    seg.Unpin(a);
    seg.FlushAll();
  });
  EXPECT_EQ(disk_.PeekPage({1, 0}).sequence_number, 55u);
  EXPECT_EQ(disk_.PeekPage({1, 0}).data[2], 3);
}

TEST_F(SegmentTest, AllFramesPinnedThrowsBufferPoolExhausted) {
  // Regression: a pin-discipline bug (pinning more pages than the pool
  // holds) used to die on an assert; it must surface as a typed error and
  // leave the pinned frames intact.
  RecoverableSegment seg(substrate_, disk_, 1, 8, 2);
  RunInTask([&] {
    ObjectId a{1, 0, 4}, b{1, kPageSize, 4};
    seg.Pin(a);
    seg.Pin(b);  // the whole two-frame pool is now pinned
    EXPECT_THROW(seg.Read({1, 2 * kPageSize, 1}), BufferPoolExhausted);
    EXPECT_TRUE(seg.IsPinned(0));
    EXPECT_TRUE(seg.IsPinned(1));
    seg.Unpin(a);  // one frame released: the same fault now succeeds
    seg.Read({1, 2 * kPageSize, 1});
    seg.Unpin(b);
  });
}

TEST_F(SegmentTest, CleanPreferringEvictionStealsCleanFrameFirst) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 2);
  seg.set_prefer_clean_eviction(true);
  RecordingHooks hooks;
  seg.SetHooks(&hooks);
  RunInTask([&] {
    ObjectId dirty{1, 0, 4};
    seg.Pin(dirty);
    seg.Write(dirty, Bytes{1, 2, 3, 4}, 5);
    seg.Unpin(dirty);            // page 0: dirty and LRU-oldest
    seg.Read({1, kPageSize, 1});  // page 1: clean, more recently used
    // Pure LRU would evict dirty page 0 and pay a write-back; the
    // clean-preferring policy steals clean page 1 instead.
    seg.Read({1, 2 * kPageSize, 1});
    EXPECT_TRUE(hooks.before_write.empty());
    auto dirty_pages = seg.DirtyPages();
    ASSERT_EQ(dirty_pages.size(), 1u);
    EXPECT_EQ(dirty_pages[0].page, 0u);  // page 0 still resident, still dirty
  });
}

TEST_F(SegmentTest, FlushPagesElevatorSweepChargesSequentialWrites) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 8);
  RunInTask([&] {
    for (PageNumber p : {0u, 1u, 2u, 4u}) {
      ObjectId oid{1, p * kPageSize, 4};
      seg.Pin(oid);
      seg.Write(oid, Bytes{1, 1, 1, 1}, 10 + p);
      seg.Unpin(oid);
    }
    EXPECT_EQ(seg.FlushPages({0, 1, 2, 4}, /*background=*/true), 4);
    EXPECT_TRUE(seg.DirtyPages().empty());
    EXPECT_EQ(seg.resident_pages(), 4u);  // cleaned in place, not evicted
  });
  // Page 0 seeks, pages 1 and 2 continue the sweep, page 4 seeks again.
  const auto counts = substrate_.metrics().Total();
  EXPECT_EQ(counts.Of(Primitive::kSequentialWrite), 2.0);
  EXPECT_EQ(substrate_.metrics().page_writes_background(), 4.0);
  EXPECT_EQ(substrate_.metrics().page_writes_foreground(), 0.0);
}

TEST_F(SegmentTest, FlushPagesSkipsPinnedUnlessAsked) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 4);
  RunInTask([&] {
    ObjectId a{1, 0, 4};
    seg.Pin(a);
    seg.Write(a, Bytes{7, 7, 7, 7}, 9);
    // The background cleaner skips pinned frames entirely...
    auto dirty = seg.DirtyPages();
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_TRUE(dirty[0].pinned);
    EXPECT_EQ(seg.FlushPages({0}, /*background=*/true), 0);
    EXPECT_EQ(disk_.PeekPage({1, 0}).data[0], 0);
    // ...while reclamation writes (but does not steal) the pinned frame.
    EXPECT_EQ(seg.FlushPages({0}, /*background=*/false, /*write_pinned=*/true), 1);
    EXPECT_EQ(disk_.PeekPage({1, 0}).data[0], 7);
    EXPECT_TRUE(seg.IsPinned(0));
    EXPECT_TRUE(seg.DirtyPages().empty());
    seg.Unpin(a);
  });
}

TEST_F(SegmentTest, DirtyPagesMarkPinnedFrames) {
  RecoverableSegment seg(substrate_, disk_, 1, 8, 4);
  RunInTask([&] {
    ObjectId a{1, 0, 4}, b{1, kPageSize, 4};
    seg.Pin(a);
    seg.Pin(b);
    seg.Write(a, Bytes{1, 0, 0, 0}, 11);
    seg.Write(b, Bytes{2, 0, 0, 0}, 22);
    seg.Unpin(a);
    seg.Read({1, 2 * kPageSize, 1});  // page 2: resident but clean
    auto dirty = seg.DirtyPages();
    ASSERT_EQ(dirty.size(), 2u);  // pages 0 and 1; page 2 is clean
    EXPECT_EQ(dirty[0].page, 0u);  // the cleaner's only candidate: dirty AND unpinned
    EXPECT_EQ(dirty[0].recovery_lsn, 11u);
    EXPECT_FALSE(dirty[0].pinned);
    EXPECT_EQ(dirty[1].page, 1u);
    EXPECT_TRUE(dirty[1].pinned);
    seg.Unpin(b);
  });
}

TEST_F(SegmentTest, LargeArrayScanStaysWithinBufferBudget) {
  // The paging benchmark shape: an array 3x larger than the pool.
  constexpr PageNumber kPages = 96;
  RecoverableSegment seg(substrate_, disk_, 1, kPages, 32);
  RunInTask([&] {
    for (PageNumber p = 0; p < kPages; ++p) {
      seg.Read({1, p * kPageSize, 4});
    }
    EXPECT_LE(seg.resident_pages(), 32u);
    EXPECT_EQ(seg.fault_count(), kPages);
  });
}

}  // namespace
}  // namespace tabs::kernel
