#include "src/log/log_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/sim/fault_injector.h"

namespace tabs::log {

namespace {

constexpr std::uint64_t kFrameOverhead = 8;  // leading + trailing u32 lengths

std::uint32_t ReadU32(std::span<const std::uint8_t> s) {
  std::uint32_t v;
  assert(s.size() >= sizeof v);
  std::memcpy(&v, s.data(), sizeof v);
  return v;
}

void WriteU32(std::uint8_t* at, std::uint32_t v) { std::memcpy(at, &v, sizeof v); }

// FNV-1a over a sector's valid byte range (the final sector may be partial;
// its checksum covers only the bytes written so far).
std::uint32_t ComputeSum(std::span<const std::uint8_t> bytes) {
  std::uint32_t h = 2166136261u;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

}  // namespace

StableLogDevice::Chunk& StableLogDevice::ChunkAt(std::uint64_t offset) const {
  return *chunks_[offset / kChunkBytes - FirstChunk()];
}

std::span<std::uint8_t> StableLogDevice::SectorBytes(std::uint64_t sector) const {
  std::uint64_t begin = sector * kSectorBytes;
  std::uint64_t end = std::min(begin + kSectorBytes, size_);
  return {ChunkAt(begin).data.data() + begin % kChunkBytes, end - begin};
}

std::span<const std::uint8_t> StableLogDevice::Read(std::uint64_t offset,
                                                    std::uint64_t length) const {
  if (length == 0 || offset < truncated_prefix_ || offset + length > size_) {
    return {};
  }
  std::uint64_t at = offset % kChunkBytes;
  if (at + length <= kChunkBytes) {
    return {ChunkAt(offset).data.data() + at, length};
  }
  // The range crosses a chunk boundary (a straddling frame): gather it.
  straddle_.resize(length);
  for (std::uint64_t done = 0; done < length;) {
    std::uint64_t from = (offset + done) % kChunkBytes;
    std::uint64_t n = std::min(kChunkBytes - from, length - done);
    std::memcpy(straddle_.data() + done, ChunkAt(offset + done).data.data() + from, n);
    done += n;
  }
  return straddle_;
}

void StableLogDevice::ResyncSums(std::uint64_t from) {
  for (std::uint64_t s = from / kSectorBytes; s < SectorCount(); ++s) {
    ChunkAt(s * kSectorBytes).sums[s % kChunkSectors] = ComputeSum(SectorBytes(s));
  }
}

void StableLogDevice::Write(std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    std::uint64_t at = size_ % kChunkBytes;
    if (at == 0) {
      // The held chunks end exactly at size_: the next byte starts a new one.
      // Left uninitialised: nothing reads a chunk's bytes at or past size_,
      // or the checksums of sectors at or past SectorCount().
      chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    std::uint64_t n = std::min<std::uint64_t>(kChunkBytes - at, bytes.size());
    std::memcpy(chunks_.back()->data.data() + at, bytes.data(), n);
    size_ += n;
    bytes = bytes.subspan(n);
  }
}

void StableLogDevice::Append(const Bytes& bytes) {
  std::uint64_t begin = size_;
  Write(bytes);
  ResyncSums(begin);
}

void StableLogDevice::AppendTorn(const Bytes& bytes, int durable_sectors) {
  assert(durable_sectors >= 0);
  std::uint64_t begin = size_;
  std::uint64_t first_sector = begin / kSectorBytes;
  // Only the bytes landing in the first `durable_sectors` sectors touched by
  // this write survive; everything past that sector boundary is lost.
  std::uint64_t keep_limit = (first_sector + static_cast<std::uint64_t>(durable_sectors)) *
                             kSectorBytes;
  std::uint64_t keep = keep_limit <= begin ? 0 : std::min<std::uint64_t>(bytes.size(),
                                                                         keep_limit - begin);
  Write(std::span(bytes).first(keep));
  ResyncSums(begin);
}

void StableLogDevice::CorruptSector(std::uint64_t sector) {
  assert(sector >= FirstChunk() * kChunkSectors && sector < SectorCount() &&
         "corrupting a sector the device does not hold");
  for (std::uint8_t& b : SectorBytes(sector)) {
    b = static_cast<std::uint8_t>((b ^ 0xA5u) + 1);
  }
  // Deliberately no ResyncSums: the stored checksum is now stale, which is
  // exactly how recovery detects the damage.
}

bool StableLogDevice::SectorValid(std::uint64_t sector) const {
  assert(sector >= FirstChunk() * kChunkSectors && sector < SectorCount());
  return ComputeSum(SectorBytes(sector)) ==
         ChunkAt(sector * kSectorBytes).sums[sector % kChunkSectors];
}

std::uint64_t StableLogDevice::FirstInvalidByte() const {
  for (std::uint64_t s = truncated_prefix_ / kSectorBytes; s < SectorCount(); ++s) {
    if (!SectorValid(s)) {
      return s * kSectorBytes;
    }
  }
  return size_;
}

void StableLogDevice::TruncateBefore(std::uint64_t offset) {
  if (offset <= truncated_prefix_) {
    return;
  }
  assert(offset <= size_);
  // Free every chunk wholly below the truncation point's chunk.
  std::uint64_t dead = offset / kChunkBytes - FirstChunk();
  chunks_.erase(chunks_.begin(), chunks_.begin() + static_cast<std::ptrdiff_t>(dead));
  truncated_prefix_ = offset;
}

void StableLogDevice::TruncateAfter(std::uint64_t offset) {
  assert(offset >= truncated_prefix_ && offset <= size_);
  size_ = offset;
  chunks_.resize((size_ + kChunkBytes - 1) / kChunkBytes - FirstChunk());
  // The cut may leave a partial final sector: its checksum now covers a
  // shorter valid range.
  ResyncSums(size_);
}

LogManager::LogManager(sim::Substrate& substrate, StableLogDevice& device)
    : substrate_(substrate), device_(device) {
  // Rebinding to a device that already holds log data (recovery after a
  // crash): validate the stable tail first — a torn force or a corrupt
  // sector must be cut off before anything trusts LastDurableLsn, whose
  // trailer read would otherwise decode garbage. Then the volatile buffer
  // starts empty at the (possibly shortened) stable frontier.
  ValidateStableTail();
  next_lsn_ = device_.size() + 1;
  buffer_start_ = next_lsn_;
  durable_lsn_ = LastDurableLsn();
  last_record_lsn_ = durable_lsn_;
}

void LogManager::ValidateStableTail() {
  std::uint64_t end = device_.size();
  std::uint64_t off = device_.truncated_prefix();
  if (off >= end) {
    return;
  }
  // Bytes at/after the first checksum-failing sector are suspect: a frame is
  // only trusted if it lies entirely below that limit AND its framing is
  // intact AND its payload deserializes. The walk stops at the first record
  // that fails any test; everything from there on is the torn/corrupt tail.
  std::uint64_t trusted_limit = device_.FirstInvalidByte();
  if (trusted_limit < end) {
    // A checksum-failing sector is medium damage (a clean torn tail leaves
    // every durable sector's checksum valid). Counted here, at detection:
    // the device itself has no metrics channel.
    substrate_.metrics().CountFault(sim::FaultKind::kCorruptSector);
  }
  std::uint64_t good = off;
  while (off + kFrameOverhead <= trusted_limit) {
    std::uint32_t len = ReadU32(device_.Read(off, 4));
    std::uint64_t frame_end = off + kFrameOverhead + len;
    if (frame_end > trusted_limit) {
      break;  // frame runs into lost or corrupt sectors: torn tail
    }
    if (ReadU32(device_.Read(off + 4 + len, 4)) != len) {
      break;  // trailer mismatch: the tail of the frame never landed
    }
    if (!LogRecord::Deserialize(device_.Read(off + 4, len))) {
      break;  // framing looks plausible but the payload is garbage
    }
    off = frame_end;
    good = off;
  }
  if (good < end) {
    device_.TruncateAfter(good);
    substrate_.metrics().CountLogTailTruncation(end - good);
  }
}

Lsn LogManager::Append(const LogRecord& rec) {
  Lsn lsn = next_lsn_;
  // Framed in place in the volatile buffer: a length placeholder, the
  // record, then the length patched into the placeholder and repeated as the
  // trailer.
  std::size_t start = buffer_.size();
  buffer_.resize(start + 4);
  rec.AppendTo(buffer_);
  auto len = static_cast<std::uint32_t>(buffer_.size() - start - 4);
  buffer_.resize(buffer_.size() + 4);
  WriteU32(buffer_.data() + start, len);
  WriteU32(buffer_.data() + buffer_.size() - 4, len);
  next_lsn_ += buffer_.size() - start;
  last_record_lsn_ = lsn;
  return lsn;
}

void LogManager::Force(Lsn upto) {
  if (upto == kNullLsn || upto < buffer_start_ || buffer_.empty()) {
    return;
  }
  sim::Scheduler& sched = substrate_.scheduler();
  bool in_task = sched.in_task();
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kLog, "log.force");
  // The log device is one spindle: a force that arrives while an earlier
  // force's write is still spinning queues behind it in virtual time. (A
  // single sequential task never queues — its clock is already past the
  // previous write's completion.)
  if (in_task) {
    sched.AdvanceTo(device_busy_until_);
  }
  FAULT_POINT(substrate_, "log.force.before_write");
  // The buffer is forced as a unit (group force): TABS spools records and
  // writes them together, so one commit typically costs one stable write.
  std::uint64_t bytes = buffer_.size();
  auto pages = static_cast<double>((bytes + kPageSize - 1) / kPageSize);
  if (in_task && substrate_.faults() != nullptr) {
    int durable_sectors = substrate_.faults()->TakeTornLogForce();
    if (durable_sectors >= 0) {
      // Power fails mid-force: a prefix of the write's sectors reaches the
      // platter, the tail is lost, and the node dies with its volatile
      // buffer. Recovery's tail validation finds and cuts the damage.
      substrate_.Charge(sim::Primitive::kStableWrite, pages);
      device_.AppendTorn(buffer_, durable_sectors);
      substrate_.metrics().CountFault(sim::FaultKind::kTornLogWrite);
      substrate_.faults()->CrashCurrentNode(substrate_);
      return;  // reached only when no crash handler is wired (unit tests)
    }
  }
  substrate_.Charge(sim::Primitive::kStableWrite, pages);
  device_.Append(buffer_);
  buffer_.clear();
  buffer_start_ = next_lsn_;
  durable_lsn_ = LastDurableLsn();
  substrate_.metrics().CountForceIssued();
  FAULT_POINT(substrate_, "log.force.after_write");
  // A force is an I/O wait performed by the Recovery Manager process: other
  // processes (and server coroutines) run while the disk spins (Section
  // 2.1.1's wait-driven switching). Page faults, by contrast, suspend the
  // whole server and do NOT yield.
  if (in_task) {
    device_busy_until_ = sched.Now();
    // Wake everything waiting on the durable frontier (group-commit batch
    // members, or a bystander absorbed by a checkpoint's force). Woken
    // tasks re-check their LSN and re-wait if this write missed them.
    sched.NotifyAll(durable_waiters_);
    sched.Yield();
  }
}

void LogManager::WaitDurable(Lsn lsn) {
  sim::Scheduler& sched = substrate_.scheduler();
  assert(sched.in_task() && "WaitDurable outside a task");
  sim::SpanGuard span(substrate_.tracer(), sim::Component::kLog, "log.wait-durable");
  while (durable_lsn_ < lsn) {
    sched.Wait(durable_waiters_);
  }
}

std::optional<LogRecord> LogManager::ReadRecord(Lsn lsn) const {
  if (lsn == kNullLsn || lsn <= device_.truncated_prefix() || lsn >= next_lsn_) {
    return std::nullopt;
  }
  std::span<const std::uint8_t> head;
  std::span<const std::uint8_t> body;
  if (lsn >= buffer_start_) {
    // Still in the volatile buffer.
    std::uint64_t off = lsn - buffer_start_;
    if (off + 4 > buffer_.size()) {
      return std::nullopt;
    }
    head = {buffer_.data() + off, 4};
    std::uint32_t len = ReadU32(head);
    if (off + 4 + len > buffer_.size()) {
      return std::nullopt;
    }
    body = {buffer_.data() + off + 4, len};
  } else {
    std::uint64_t offset = lsn - 1;
    head = device_.Read(offset, 4);
    if (head.empty()) {
      return std::nullopt;
    }
    std::uint32_t len = ReadU32(head);
    body = device_.Read(offset + 4, len);
    if (body.empty() && len != 0) {
      return std::nullopt;
    }
  }
  auto rec = LogRecord::Deserialize(body);
  if (rec) {
    rec->lsn = lsn;
  }
  return rec;
}

Lsn LogManager::NextLsn(Lsn lsn) const {
  if (lsn == kNullLsn) {
    return kNullLsn;
  }
  std::uint64_t offset = lsn - 1;
  auto head = device_.Read(offset, 4);
  if (head.empty()) {
    return kNullLsn;
  }
  std::uint64_t next = offset + kFrameOverhead + ReadU32(head);
  return next >= device_.size() ? kNullLsn : next + 1;
}

Lsn LogManager::LastDurableLsn() const {
  std::uint64_t size = device_.size();
  if (size <= device_.truncated_prefix()) {
    return kNullLsn;
  }
  auto trailer = device_.Read(size - 4, 4);
  if (trailer.empty()) {
    return kNullLsn;
  }
  std::uint32_t len = ReadU32(trailer);
  return size - kFrameOverhead - len + 1;
}

Lsn LogManager::PrevLsn(Lsn lsn) const {
  if (lsn == kNullLsn) {
    return kNullLsn;
  }
  std::uint64_t offset = lsn - 1;
  if (offset < kFrameOverhead || offset - 4 < device_.truncated_prefix()) {
    return kNullLsn;
  }
  auto trailer = device_.Read(offset - 4, 4);
  if (trailer.empty()) {
    return kNullLsn;
  }
  std::uint32_t len = ReadU32(trailer);
  if (offset < kFrameOverhead + len) {
    return kNullLsn;
  }
  std::uint64_t prev = offset - kFrameOverhead - len;
  return prev < device_.truncated_prefix() ? kNullLsn : prev + 1;
}

}  // namespace tabs::log
