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

}  // namespace

std::span<const std::uint8_t> StableLogDevice::Read(std::uint64_t offset,
                                                    std::uint64_t length) const {
  if (offset < truncated_prefix_ || offset + length > size()) {
    return {};
  }
  return {data_.data() + (offset - first_sector_ * kSectorBytes), length};
}

std::uint32_t StableLogDevice::ComputeSum(std::uint64_t sector) const {
  // FNV-1a over the sector's valid byte range (the final sector may be
  // partial; its checksum covers only the bytes written so far).
  std::uint64_t begin = (sector - first_sector_) * kSectorBytes;
  std::uint64_t end = std::min(begin + kSectorBytes, static_cast<std::uint64_t>(data_.size()));
  std::uint32_t h = 2166136261u;
  for (std::uint64_t i = begin; i < end; ++i) {
    h ^= data_[i];
    h *= 16777619u;
  }
  return h;
}

void StableLogDevice::ResyncSums(std::uint64_t begin, std::uint64_t end) {
  if (data_.empty()) {
    sums_.clear();
    return;
  }
  sums_.resize((data_.size() + kSectorBytes - 1) / kSectorBytes);
  std::uint64_t first = begin / kSectorBytes;
  std::uint64_t last = end == 0 ? 0 : (end - 1) / kSectorBytes;
  for (std::uint64_t s = first; s <= last && s < SectorCount(); ++s) {
    sums_[s - first_sector_] = ComputeSum(s);
  }
}

void StableLogDevice::Append(const Bytes& bytes) {
  std::uint64_t begin = size();
  data_.insert(data_.end(), bytes.begin(), bytes.end());
  ResyncSums(begin, size());
}

void StableLogDevice::AppendTorn(const Bytes& bytes, int durable_sectors) {
  assert(durable_sectors >= 0);
  std::uint64_t begin = size();
  std::uint64_t first_sector = begin / kSectorBytes;
  // Only the bytes landing in the first `durable_sectors` sectors touched by
  // this write survive; everything past that sector boundary is lost.
  std::uint64_t keep_limit = (first_sector + static_cast<std::uint64_t>(durable_sectors)) *
                             kSectorBytes;
  std::uint64_t keep = keep_limit <= begin ? 0 : std::min<std::uint64_t>(bytes.size(),
                                                                         keep_limit - begin);
  data_.insert(data_.end(), bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep));
  ResyncSums(begin, size());
}

void StableLogDevice::CorruptSector(std::uint64_t sector) {
  assert(sector >= first_sector_ && sector < SectorCount() &&
         "corrupting a sector the device does not hold");
  std::uint64_t begin = (sector - first_sector_) * kSectorBytes;
  std::uint64_t end = std::min(begin + kSectorBytes, static_cast<std::uint64_t>(data_.size()));
  for (std::uint64_t i = begin; i < end; ++i) {
    data_[i] = static_cast<std::uint8_t>((data_[i] ^ 0xA5u) + 1);
  }
  // Deliberately no ResyncSums: the stored checksum is now stale, which is
  // exactly how recovery detects the damage.
}

bool StableLogDevice::SectorValid(std::uint64_t sector) const {
  assert(sector >= first_sector_ && sector < SectorCount());
  return ComputeSum(sector) == sums_[sector - first_sector_];
}

std::uint64_t StableLogDevice::FirstInvalidByte() const {
  for (std::uint64_t s = truncated_prefix_ / kSectorBytes; s < SectorCount(); ++s) {
    if (!SectorValid(s)) {
      return s * kSectorBytes;
    }
  }
  return size();
}

void StableLogDevice::TruncateBefore(std::uint64_t offset) {
  if (offset <= truncated_prefix_) {
    return;
  }
  assert(offset <= size());
  std::uint64_t base = first_sector_ * kSectorBytes;
  std::fill(data_.begin() + static_cast<std::ptrdiff_t>(truncated_prefix_ - base),
            data_.begin() + static_cast<std::ptrdiff_t>(offset - base), std::uint8_t{0});
  std::uint64_t old_prefix = truncated_prefix_;
  truncated_prefix_ = offset;
  ResyncSums(old_prefix, offset);
  // Release the whole sectors below the truncation point's sector once they
  // outweigh the bytes that stay. Each release copies fewer bytes than it
  // frees, so the copying costs amortised O(1) per appended byte.
  std::uint64_t dead_sectors = offset / kSectorBytes - first_sector_;
  std::uint64_t dead = dead_sectors * kSectorBytes;
  if (dead > data_.size() - dead) {
    data_.erase(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(dead));
    sums_.erase(sums_.begin(), sums_.begin() + static_cast<std::ptrdiff_t>(dead_sectors));
    first_sector_ += dead_sectors;
  }
}

void StableLogDevice::TruncateAfter(std::uint64_t offset) {
  assert(offset >= truncated_prefix_ && offset <= size());
  data_.resize(offset - first_sector_ * kSectorBytes);
  sums_.resize((data_.size() + kSectorBytes - 1) / kSectorBytes);
  if (!data_.empty()) {
    // The cut may leave a partial final sector: its checksum now covers a
    // shorter valid range.
    ResyncSums(offset - 1, offset);
  }
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

Lsn LogManager::Append(LogRecord rec) {
  // Paxos acceptor records join no backward chain: rollback and the undo
  // pass follow prev_lsn only from update records, and an acceptor holding
  // no Txn for the transaction would never ForgetChain the entry.
  bool chained = !rec.owner.IsNull() && !rec.IsPaxosAcceptor();
  rec.prev_lsn = chained ? LastLsnOf(rec.owner) : kNullLsn;
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

  if (chained) {
    chains_[rec.owner] = lsn;
  }
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
      substrate_.faults()->CrashCurrentNode(substrate_, "log.force.torn");
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

Lsn LogManager::LastLsnOf(const TransactionId& owner) const {
  auto it = chains_.find(owner);
  return it == chains_.end() ? kNullLsn : it->second;
}

}  // namespace tabs::log
