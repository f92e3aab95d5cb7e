#include "src/log/log_manager.h"

#include <gtest/gtest.h>

#include <deque>

#include "src/log/log_record.h"
#include "src/sim/substrate.h"

namespace tabs::log {
namespace {

using sim::CostModel;
using sim::Primitive;

class LogTest : public ::testing::Test {
 protected:
  LogTest()
      : substrate_(sched_, CostModel::Baseline(), sim::ArchitectureModel::Prototype()),
        log_(substrate_, device_) {}

  void RunInTask(std::function<void()> fn) {
    sched_.Spawn("test", 1, 0, std::move(fn));
    ASSERT_EQ(sched_.Run(), 0);
  }

  static LogRecord ValueRec(TransactionId tid, ObjectId oid, Bytes oldv, Bytes newv) {
    LogRecord r;
    r.type = RecordType::kValueUpdate;
    r.owner = tid;
    r.top = tid;
    r.server = "srv";
    r.oid = oid;
    r.old_value = std::move(oldv);
    r.new_value = std::move(newv);
    return r;
  }

  // The frame the log writes around a record: [u32 len][record][u32 len].
  static Bytes Framed(const LogRecord& r) {
    Bytes body = r.Serialize();
    ByteWriter w;
    w.Blob(body);  // [u32 len][record]
    w.U32(static_cast<std::uint32_t>(body.size()));
    return w.Take();
  }

  // Appends and forces 200-byte value records, the i-th carrying new value
  // {i}, until the device holds at least `bytes`. Returns their LSNs.
  std::vector<Lsn> FillDevice(std::uint64_t bytes) {
    std::vector<Lsn> lsns;
    TransactionId t{1, 1};
    RunInTask([&] {
      while (device_.size() < bytes) {
        auto i = static_cast<std::uint8_t>(lsns.size());
        lsns.push_back(log_.Append(ValueRec(t, {1, 0, 200}, Bytes(200, i), {i})));
        log_.ForceAll();
      }
    });
    return lsns;
  }

  // Host bytes of `chunks` chunks: their data plus one checksum per sector.
  static std::uint64_t ChunkHostBytes(std::uint64_t chunks) {
    return chunks * (StableLogDevice::kChunkBytes + StableLogDevice::kChunkSectors * 4);
  }

  Bytes DeviceBytes(Lsn lsn, std::uint64_t length) const {
    auto s = device_.Read(lsn - 1, length);
    return Bytes(s.begin(), s.end());
  }

  sim::Scheduler sched_;
  sim::Substrate substrate_;
  StableLogDevice device_;
  LogManager log_;
};

TEST(LogRecordTest, SerializeDeserializeRoundTrip) {
  LogRecord r;
  r.type = RecordType::kOperationUpdate;
  r.owner = {2, 7};
  r.top = {2, 3};
  r.prev_lsn = 99;
  r.undo_next_lsn = 55;
  r.server = "btree";
  r.oid = {4, 1024, 16};
  r.old_value = {1, 2, 3};
  r.new_value = {4, 5};
  r.op_name = "insert";
  r.redo_args = {9, 9};
  r.undo_op_name = "delete";
  r.undo_args = {8};
  r.pages = {{4, 2}, {4, 3}};
  r.parent_node = 12;
  r.children = {3, 4, 5};
  r.local_servers = {"a", "b"};
  r.parent_tid = {1, 1};
  r.checkpoint_data = {0xde, 0xad};

  auto back = LogRecord::Deserialize(r.Serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, r.type);
  EXPECT_EQ(back->owner, r.owner);
  EXPECT_EQ(back->top, r.top);
  EXPECT_EQ(back->prev_lsn, r.prev_lsn);
  EXPECT_EQ(back->undo_next_lsn, r.undo_next_lsn);
  EXPECT_EQ(back->server, r.server);
  EXPECT_EQ(back->oid, r.oid);
  EXPECT_EQ(back->old_value, r.old_value);
  EXPECT_EQ(back->new_value, r.new_value);
  EXPECT_EQ(back->op_name, r.op_name);
  EXPECT_EQ(back->redo_args, r.redo_args);
  EXPECT_EQ(back->undo_op_name, r.undo_op_name);
  EXPECT_EQ(back->undo_args, r.undo_args);
  EXPECT_EQ(back->pages, r.pages);
  EXPECT_EQ(back->parent_node, r.parent_node);
  EXPECT_EQ(back->children, r.children);
  EXPECT_EQ(back->local_servers, r.local_servers);
  EXPECT_EQ(back->parent_tid, r.parent_tid);
  EXPECT_EQ(back->checkpoint_data, r.checkpoint_data);
}

TEST(LogRecordTest, DeserializeRejectsTruncatedInput) {
  LogRecord r;
  r.server = "x";
  Bytes b = r.Serialize();
  b.resize(b.size() / 2);
  EXPECT_FALSE(LogRecord::Deserialize(b).has_value());
}

TEST_F(LogTest, AppendAssignsMonotonicLsns) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));
  EXPECT_LT(a, b);
  EXPECT_EQ(a, 1u);
}

TEST_F(LogTest, ReadsBufferedRecordsBeforeForce) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {9}, {1}));
  EXPECT_EQ(log_.durable_lsn(), kNullLsn);
  auto rec = log_.ReadRecord(a);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes{1});
}

TEST_F(LogTest, ForceChargesStableWritesGrouped) {
  TransactionId t{1, 1};
  for (int i = 0; i < 5; ++i) {
    log_.Append(ValueRec(t, {1, static_cast<uint32_t>(i) * 4, 4}, {0}, {1}));
  }
  RunInTask([&] { log_.ForceAll(); });
  // Five small records group into a couple of log pages — far fewer than
  // five stable writes.
  double writes = substrate_.metrics().Total().Of(Primitive::kStableWrite);
  EXPECT_GE(writes, 1.0);
  EXPECT_LE(writes, 3.0);
}

TEST_F(LogTest, ForceIsIdempotent) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  RunInTask([&] {
    log_.Force(a);
    double first = substrate_.metrics().Total().Of(Primitive::kStableWrite);
    log_.Force(a);
    EXPECT_EQ(substrate_.metrics().Total().Of(Primitive::kStableWrite), first);
  });
}

TEST_F(LogTest, ForwardScanVisitsAllRecords) {
  TransactionId t{1, 1};
  std::vector<Lsn> appended;
  for (int i = 0; i < 4; ++i) {
    appended.push_back(log_.Append(ValueRec(t, {1, 0, 4}, {0}, {std::uint8_t(i)})));
  }
  RunInTask([&] { log_.ForceAll(); });
  std::vector<Lsn> scanned;
  for (Lsn l = log_.first_lsn(); l != kNullLsn; l = log_.NextLsn(l)) {
    scanned.push_back(l);
  }
  EXPECT_EQ(scanned, appended);
}

TEST_F(LogTest, BackwardScanVisitsAllRecordsReversed) {
  TransactionId t{1, 1};
  std::vector<Lsn> appended;
  for (int i = 0; i < 4; ++i) {
    appended.push_back(log_.Append(ValueRec(t, {1, 0, 4}, {0}, {std::uint8_t(i)})));
  }
  RunInTask([&] { log_.ForceAll(); });
  std::vector<Lsn> scanned;
  for (Lsn l = log_.LastDurableLsn(); l != kNullLsn; l = log_.PrevLsn(l)) {
    scanned.push_back(l);
  }
  std::reverse(scanned.begin(), scanned.end());
  EXPECT_EQ(scanned, appended);
}

TEST_F(LogTest, SurvivesReattachAfterCrash) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));
  RunInTask([&] { log_.Force(a); });  // forces the whole buffer (group force)

  // Crash: a fresh LogManager binds to the same stable device.
  LogManager after(substrate_, device_);
  EXPECT_EQ(after.LastDurableLsn(), b);
  auto rec = after.ReadRecord(b);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes{2});
}

TEST_F(LogTest, UnforcedRecordsDieWithTheBuffer) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  RunInTask([&] { log_.Force(a); });
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));

  LogManager after(substrate_, device_);  // crash without forcing b
  EXPECT_EQ(after.LastDurableLsn(), a);
  EXPECT_FALSE(after.ReadRecord(b).has_value());
}

TEST_F(LogTest, SectorChecksumsTrackAppendsAndDetectCorruption) {
  TransactionId t{1, 1};
  // Enough records to span several 512-byte sectors.
  for (std::uint32_t i = 0; i < 30; ++i) {
    log_.Append(ValueRec(t, {1, i * 4, 4}, {0}, {static_cast<std::uint8_t>(i)}));
  }
  RunInTask([&] { log_.ForceAll(); });
  ASSERT_GE(device_.SectorCount(), 3u);
  for (std::uint64_t s = 0; s < device_.SectorCount(); ++s) {
    EXPECT_TRUE(device_.SectorValid(s)) << "sector " << s;
  }
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());

  device_.CorruptSector(1);
  EXPECT_FALSE(device_.SectorValid(1));
  EXPECT_TRUE(device_.SectorValid(0));
  EXPECT_EQ(device_.FirstInvalidByte(), StableLogDevice::kSectorBytes);
}

TEST_F(LogTest, TornAppendKeepsOnlyDurableSectors) {
  Bytes big(3 * StableLogDevice::kSectorBytes, 0x7F);
  device_.AppendTorn(big, 1);
  EXPECT_EQ(device_.size(), StableLogDevice::kSectorBytes);
  // The surviving prefix is checksum-valid: a clean tear, not corruption.
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());
}

TEST_F(LogTest, RebindTruncatesTornTailAndCountsIt) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  RunInTask([&] { log_.ForceAll(); });
  std::uint64_t good_size = device_.size();

  // A torn force: half a frame lands past the durable prefix.
  Bytes fragment{9, 0, 0, 0, 1, 2, 3};  // claims 9 payload bytes, delivers 3
  device_.Append(fragment);

  LogManager after(substrate_, device_);  // crash + rebind validates the tail
  EXPECT_EQ(device_.size(), good_size);   // fragment cut, good prefix kept
  EXPECT_EQ(after.LastDurableLsn(), a);
  EXPECT_EQ(substrate_.metrics().log_tail_truncations(), 1);
  EXPECT_EQ(substrate_.metrics().log_tail_bytes_truncated(), fragment.size());
}

TEST_F(LogTest, RebindTruncatesCorruptTailAtTheDamagedSector) {
  TransactionId t{1, 1};
  for (std::uint32_t i = 0; i < 30; ++i) {
    log_.Append(ValueRec(t, {1, i * 4, 4}, {0}, {static_cast<std::uint8_t>(i)}));
  }
  RunInTask([&] { log_.ForceAll(); });
  std::uint64_t last_sector = device_.SectorCount() - 1;
  ASSERT_GE(last_sector, 1u);
  device_.CorruptSector(last_sector);

  LogManager after(substrate_, device_);
  // Nothing at or past the damaged sector survives; everything below does.
  EXPECT_LE(device_.size(), last_sector * StableLogDevice::kSectorBytes);
  EXPECT_GE(substrate_.metrics().log_tail_truncations(), 1);
  EXPECT_EQ(substrate_.metrics().faults_injected(sim::FaultKind::kCorruptSector), 1);
  Lsn durable = after.LastDurableLsn();
  ASSERT_NE(durable, kNullLsn);
  EXPECT_TRUE(after.ReadRecord(durable).has_value());
}

TEST_F(LogTest, TruncationReclaimsSpaceAndBlocksReads) {
  TransactionId t{1, 1};
  Lsn a = log_.Append(ValueRec(t, {1, 0, 4}, {0}, {1}));
  Lsn b = log_.Append(ValueRec(t, {1, 4, 4}, {0}, {2}));
  RunInTask([&] { log_.ForceAll(); });
  std::uint64_t before = log_.StableBytesInUse();
  device_.TruncateBefore(b - 1);
  EXPECT_LT(log_.StableBytesInUse(), before);
  EXPECT_FALSE(log_.ReadRecord(a).has_value());
  EXPECT_TRUE(log_.ReadRecord(b).has_value());
  EXPECT_EQ(log_.first_lsn(), b);
}

// Appends 30 records (7.6 sectors) and reclaims up to record 25, whose
// offset lies inside sector 6. The whole log sits in the device's first
// chunk, which the truncation point still needs, so the device keeps it.
class ReclaimedLogTest : public LogTest {
 protected:
  void SetUp() override {
    TransactionId t{1, 1};
    for (std::uint32_t i = 0; i < 30; ++i) {
      lsns_.push_back(
          log_.Append(ValueRec(t, {1, i * 4, 4}, {0}, {static_cast<std::uint8_t>(i)})));
    }
    RunInTask([&] { log_.ForceAll(); });
    prefix_ = lsns_[25] - 1;
    ASSERT_NE(prefix_ % StableLogDevice::kSectorBytes, 0u);
    ASSERT_EQ(prefix_ / StableLogDevice::kSectorBytes, 6u);
    size_ = device_.size();
    device_.TruncateBefore(prefix_);
  }

  std::vector<Lsn> lsns_;
  std::uint64_t prefix_ = 0;
  std::uint64_t size_ = 0;
};

TEST_F(ReclaimedLogTest, ReleasesDeadSectorsAndKeepsAbsoluteOffsets) {
  const std::uint64_t kSector = StableLogDevice::kSectorBytes;
  EXPECT_EQ(device_.size(), size_);
  EXPECT_EQ(device_.truncated_prefix(), prefix_);
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(1));

  EXPECT_TRUE(device_.Read(prefix_ - 1, 1).empty());
  EXPECT_TRUE(device_.Read(0, 4).empty());
  EXPECT_FALSE(device_.Read(prefix_, 4).empty());
  EXPECT_FALSE(log_.ReadRecord(lsns_[24]).has_value());
  for (std::size_t i = 25; i < lsns_.size(); ++i) {
    auto rec = log_.ReadRecord(lsns_[i]);
    ASSERT_TRUE(rec.has_value()) << "record " << i;
    EXPECT_EQ(rec->new_value, Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(log_.first_lsn(), lsns_[25]);
  EXPECT_EQ(log_.LastDurableLsn(), lsns_.back());

  // Sectors are still numbered from offset 0.
  EXPECT_EQ(device_.SectorCount(), (size_ + kSector - 1) / kSector);
  for (std::uint64_t s = prefix_ / kSector; s < device_.SectorCount(); ++s) {
    EXPECT_TRUE(device_.SectorValid(s)) << "sector " << s;
  }
  EXPECT_EQ(device_.FirstInvalidByte(), size_);
  device_.CorruptSector(6);
  EXPECT_FALSE(device_.SectorValid(6));
  EXPECT_EQ(device_.FirstInvalidByte(), 6 * kSector);
}

// The rebind validates the tail of the rebased device and cuts it there.
TEST_F(ReclaimedLogTest, RebindCutsExactlyTheTornTail) {
  device_.AppendTorn(Bytes(3 * StableLogDevice::kSectorBytes, 0x7F), 1);
  std::uint64_t torn = device_.size() - size_;
  ASSERT_GT(torn, 0u);

  LogManager after(substrate_, device_);
  EXPECT_EQ(device_.size(), size_);
  EXPECT_EQ(substrate_.metrics().log_tail_truncations(), 1);
  EXPECT_EQ(substrate_.metrics().log_tail_bytes_truncated(), torn);
  EXPECT_EQ(after.first_lsn(), lsns_[25]);
  EXPECT_EQ(after.LastDurableLsn(), lsns_.back());
  EXPECT_TRUE(after.ReadRecord(lsns_.back()).has_value());
}

// 10,000 append/force/reclaim cycles with under 4 KiB live: the stream
// passes 5 MB while the device never holds more than 64 KiB.
TEST_F(LogTest, HostMemoryFollowsTheLiveLog) {
  TransactionId t{1, 1};
  std::deque<Lsn> live;
  RunInTask([&] {
    for (std::uint32_t i = 0; i < 10'000; ++i) {
      live.push_back(log_.Append(ValueRec(t, {1, 0, 200}, Bytes(200, 1), Bytes(200, 2))));
      log_.ForceAll();
      if (live.size() > 7) {
        live.pop_front();
        device_.TruncateBefore(live.front() - 1);
      }
      ASSERT_LT(log_.StableBytesInUse(), 4096u) << "cycle " << i;
      ASSERT_LE(device_.resident_bytes(), 64u * 1024) << "cycle " << i;
    }
  });
  EXPECT_GT(device_.size(), 4u * 1024 * 1024);
  auto rec = log_.ReadRecord(live.back());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes(200, 2));
}

// --- the chunked device ------------------------------------------------------

// Appends never move bytes already written, and the device holds no more
// than the chunks the stream needs.
TEST_F(LogTest, DeviceBytesStayPutAsTheLogGrows) {
  FillDevice(1);
  const std::uint8_t* first = device_.Read(0, 4).data();
  ASSERT_NE(first, nullptr);
  FillDevice(device_.size() + (1u << 20));
  EXPECT_EQ(device_.Read(0, 4).data(), first);
  const std::uint64_t kChunk = StableLogDevice::kChunkBytes;
  EXPECT_LE(device_.resident_bytes(), ChunkHostBytes((device_.size() + kChunk - 1) / kChunk));
}

// A frame that crosses a chunk boundary reads back whole, scans in both
// directions, and survives the rebind's tail validation.
TEST_F(LogTest, FrameStraddlingAChunkBoundaryReadsBack) {
  const std::uint64_t kChunk = StableLogDevice::kChunkBytes;
  std::vector<Lsn> lsns = FillDevice(kChunk + 1024);
  std::size_t straddler = 0;
  while (straddler + 1 < lsns.size() && lsns[straddler + 1] - 1 <= kChunk) {
    ++straddler;
  }
  ASSERT_LT(lsns[straddler] - 1, kChunk);
  ASSERT_GT(lsns[straddler + 1] - 1, kChunk);  // the frame ends past the boundary

  auto rec = log_.ReadRecord(lsns[straddler]);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes{static_cast<std::uint8_t>(straddler)});
  EXPECT_EQ(rec->old_value, Bytes(200, static_cast<std::uint8_t>(straddler)));
  EXPECT_EQ(log_.NextLsn(lsns[straddler]), lsns[straddler + 1]);
  EXPECT_EQ(log_.PrevLsn(lsns[straddler + 1]), lsns[straddler]);
  EXPECT_EQ(log_.NextLsn(lsns[straddler - 1]), lsns[straddler]);
  EXPECT_EQ(log_.PrevLsn(lsns[straddler]), lsns[straddler - 1]);

  std::uint64_t size = device_.size();
  LogManager after(substrate_, device_);
  EXPECT_EQ(device_.size(), size);
  EXPECT_EQ(substrate_.metrics().log_tail_truncations(), 0);
  EXPECT_EQ(after.LastDurableLsn(), lsns.back());
  rec = after.ReadRecord(lsns[straddler]);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes{static_cast<std::uint8_t>(straddler)});
}

// A torn append whose durable sectors cross into a new chunk is cut at the
// last whole frame when the log is rebound.
TEST_F(LogTest, TornAppendAcrossAChunkBoundaryIsCutAtRebind) {
  const std::uint64_t kSector = StableLogDevice::kSectorBytes;
  const std::uint64_t kChunk = StableLogDevice::kChunkBytes;
  std::vector<Lsn> lsns = FillDevice(kChunk - 3 * kSector);
  std::uint64_t good = device_.size();
  ASSERT_LT(good, kChunk);
  device_.AppendTorn(Bytes(8 * kSector, 0x7F), 5);
  ASSERT_GT(device_.size(), kChunk);
  EXPECT_EQ(device_.size(), (good / kSector + 5) * kSector);
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(2));

  LogManager after(substrate_, device_);
  EXPECT_EQ(device_.size(), good);
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(1));
  EXPECT_EQ(substrate_.metrics().log_tail_truncations(), 1);
  EXPECT_EQ(substrate_.metrics().log_tail_bytes_truncated(),
            (good / kSector + 5) * kSector - good);
  EXPECT_EQ(after.LastDurableLsn(), lsns.back());
  EXPECT_TRUE(after.ReadRecord(lsns.back()).has_value());
}

// The checksum scan crosses chunks: damage to the first sector of the
// second chunk is found at that sector's offset.
TEST_F(LogTest, CorruptSectorInTheSecondChunkIsFound) {
  const std::uint64_t kChunk = StableLogDevice::kChunkBytes;
  FillDevice(2 * kChunk + 1);
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());
  const std::uint64_t second = StableLogDevice::kChunkSectors;
  device_.CorruptSector(second);
  EXPECT_FALSE(device_.SectorValid(second));
  EXPECT_TRUE(device_.SectorValid(second - 1));
  EXPECT_TRUE(device_.SectorValid(second + 1));
  EXPECT_EQ(device_.FirstInvalidByte(), kChunk);
}

// Truncating into chunk k frees exactly chunks 0..k-1; offsets, sector
// numbers and the records above the truncation point are unchanged.
TEST_F(LogTest, TruncateBeforeReleasesExactlyTheChunksBelow) {
  const std::uint64_t kChunk = StableLogDevice::kChunkBytes;
  std::vector<Lsn> lsns = FillDevice(5 * kChunk + 1);
  const std::uint64_t held = (device_.size() + kChunk - 1) / kChunk;
  ASSERT_EQ(held, 6u);
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(held));

  // The first record starting inside chunk 3, not at its first byte.
  std::size_t i = 0;
  while (lsns[i] - 1 <= 3 * kChunk) {
    ++i;
  }
  ASSERT_LT(lsns[i] - 1, 4 * kChunk);
  device_.TruncateBefore(lsns[i] - 1);
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(held - 3));
  EXPECT_EQ(log_.first_lsn(), lsns[i]);
  EXPECT_FALSE(log_.ReadRecord(lsns[i - 1]).has_value());
  EXPECT_TRUE(device_.Read(lsns[i] - 2, 1).empty());
  for (std::size_t j = i; j < lsns.size(); ++j) {
    auto rec = log_.ReadRecord(lsns[j]);
    ASSERT_TRUE(rec.has_value()) << "record " << j;
    EXPECT_EQ(rec->new_value, Bytes{static_cast<std::uint8_t>(j)});
  }
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());

  // A truncation point on a chunk's first byte frees the chunks below it.
  device_.TruncateBefore(4 * kChunk);
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(held - 4));
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());
}

// Cutting the tail back into an earlier chunk frees the chunks past it, and
// appends then reuse the partial chunk with every checksum kept valid.
TEST_F(LogTest, TruncateAfterIntoAnEarlierChunkThenAppendKeepsChecksums) {
  const std::uint64_t kSector = StableLogDevice::kSectorBytes;
  const std::uint64_t kChunk = StableLogDevice::kChunkBytes;
  std::vector<Lsn> lsns = FillDevice(3 * kChunk + 1);
  ASSERT_EQ(device_.resident_bytes(), ChunkHostBytes(4));
  std::size_t i = 0;
  while (lsns[i] - 1 < kChunk + kSector / 2) {
    ++i;
  }
  std::uint64_t cut = lsns[i] - 1;
  ASSERT_LT(cut, 2 * kChunk);
  ASSERT_NE(cut % kSector, 0u);
  device_.TruncateAfter(cut);
  EXPECT_EQ(device_.size(), cut);
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(2));
  EXPECT_EQ(device_.FirstInvalidByte(), cut);

  LogManager after(substrate_, device_);
  EXPECT_EQ(after.LastDurableLsn(), lsns[i - 1]);
  TransactionId t{1, 2};
  std::vector<Lsn> more;
  RunInTask([&] {
    while (device_.size() < 2 * kChunk + kSector) {
      more.push_back(after.Append(ValueRec(t, {1, 0, 200}, Bytes(200, 9), {9})));
      after.ForceAll();
    }
  });
  EXPECT_EQ(more.front(), lsns[i]);
  for (std::uint64_t s = 0; s < device_.SectorCount(); ++s) {
    EXPECT_TRUE(device_.SectorValid(s)) << "sector " << s;
  }
  EXPECT_EQ(device_.FirstInvalidByte(), device_.size());
  EXPECT_EQ(device_.resident_bytes(), ChunkHostBytes(3));
  auto rec = after.ReadRecord(more.back());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->new_value, Bytes{9});
}

// Pins the frame that Append writes in place: the device holds exactly
// [u32 len][Serialize()][u32 len] for each record, prev_lsn included.
TEST_F(LogTest, AppendFramesTheSerializedRecord) {
  TransactionId t{1, 1};
  LogRecord value = ValueRec(t, {1, 0, 4}, {1, 2, 3, 4}, {5, 6, 7, 8});

  LogRecord op;
  op.type = RecordType::kOperationUpdate;
  op.owner = t;
  op.top = t;
  op.server = "btree";
  op.op_name = "insert";
  op.redo_args = {9, 9};
  op.undo_op_name = "delete";
  op.undo_args = {8};
  op.pages = {{4, 2}, {4, 3}};
  op.prev_lsn = 99;  // set by the caller; the log frames it as given

  LogRecord accept;
  accept.type = RecordType::kPaxosAccept;
  accept.owner = {2, 5};
  accept.top = {2, 5};
  accept.paxos_ballot = 3;
  accept.paxos_participant = 2;
  accept.paxos_vote = 1;
  accept.paxos_extra = {{3, 1}, {4, 2}};

  Lsn value_lsn = log_.Append(value);
  Lsn op_lsn = log_.Append(op);
  Lsn accept_lsn = log_.Append(accept);
  RunInTask([&] { log_.ForceAll(); });

  Bytes value_frame = Framed(value);
  Bytes op_frame = Framed(op);
  Bytes accept_frame = Framed(accept);
  EXPECT_EQ(DeviceBytes(value_lsn, value_frame.size()), value_frame);
  EXPECT_EQ(DeviceBytes(op_lsn, op_frame.size()), op_frame);
  EXPECT_EQ(DeviceBytes(accept_lsn, accept_frame.size()), accept_frame);
  auto op_back = log_.ReadRecord(op_lsn);
  ASSERT_TRUE(op_back.has_value());
  EXPECT_EQ(op_back->prev_lsn, 99u);
  EXPECT_EQ(op_lsn, value_lsn + value_frame.size());
  EXPECT_EQ(accept_lsn, op_lsn + op_frame.size());
  EXPECT_EQ(device_.size(), accept_lsn - 1 + accept_frame.size());
}

}  // namespace
}  // namespace tabs::log
