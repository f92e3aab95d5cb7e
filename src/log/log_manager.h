// The per-node log: a volatile buffer in front of an append-only stable
// device, with group force.
//
// "All log records are written into a volatile buffer until the buffer fills
// or until the buffer is forced to non-volatile storage by either the
// write-ahead-log or commit protocols." (Section 3.2.2.)
//
// LSNs are 1 + the byte offset of the record in the log stream; kNullLsn (0)
// is no record. Each record is framed as
//   [u32 length][record bytes][u32 length]
// so the log can be scanned in either direction (the value-logging crash
// recovery is a single *backward* pass).

#ifndef TABS_LOG_LOG_MANAGER_H_
#define TABS_LOG_LOG_MANAGER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/log/log_record.h"
#include "src/sim/substrate.h"

namespace tabs::log {

// The stable device. Its contents survive node crashes; the space-reclamation
// low-water mark models the paper's log-space reclamation (Section 3.2.2).
//
// The device is sectored: every kSectorBytes-sized sector carries a checksum
// in its header space (the same out-of-band header area that holds the
// kernel's page sequence numbers on data pages). Appends maintain the
// checksums; fault injection can tear an append (a prefix of its sectors
// durable, the tail lost — power failure mid-write) or scramble a sector in
// place without fixing its checksum. Recovery validates the tail against the
// checksums and the record framing before trusting it (LogManager ctor).
//
// Offsets and sector numbers are absolute in the log stream, but the host
// memory follows the live log: the device holds the stream in fixed-size
// chunks of kChunkSectors sectors, each with its own sectors' checksums.
// An append copies each byte once and never moves bytes already written;
// TruncateBefore frees every chunk wholly below the truncation point's
// chunk.
class StableLogDevice {
 public:
  static constexpr std::uint64_t kSectorBytes = 512;
  // Host memory is held and freed in chunks of this many sectors (16 KiB).
  static constexpr std::uint64_t kChunkSectors = 32;
  static constexpr std::uint64_t kChunkBytes = kChunkSectors * kSectorBytes;

  // Absolute length of the stream: every byte appended, less any tail cut.
  std::uint64_t size() const { return size_; }
  std::uint64_t truncated_prefix() const { return truncated_prefix_; }
  // Host bytes the device holds: its chunks' data plus their checksums.
  std::uint64_t resident_bytes() const {
    return chunks_.size() * (kChunkBytes + kChunkSectors * sizeof(std::uint32_t));
  }

  void Append(const Bytes& bytes);
  // Bytes [offset, offset + length), or an empty span when any of them lies
  // below the truncated prefix or past size(). A range inside one chunk is a
  // view of the device's bytes; one that crosses a chunk boundary is copied
  // into a buffer the device owns. Either way the span is valid only until
  // the next Read or truncation.
  std::span<const std::uint8_t> Read(std::uint64_t offset, std::uint64_t length) const;

  // Logically discards everything before `offset` (checkpoint-driven
  // reclamation). Reads below the prefix fail.
  void TruncateBefore(std::uint64_t offset);

  // Recovery-side tail truncation: everything at/after `offset` is dropped
  // (a torn or corrupt tail must never be replayed).
  void TruncateAfter(std::uint64_t offset);

  // --- fault injection ------------------------------------------------------
  // A torn write: only the first `durable_sectors` sectors touched by this
  // append reach the platter; the rest of the bytes are lost. Models power
  // failure mid-force — the caller is expected to crash the node.
  void AppendTorn(const Bytes& bytes, int durable_sectors);
  // Scrambles a held sector's data in place, leaving its checksum stale, as
  // a failing medium would. No virtual-time charge: this is damage, not I/O.
  void CorruptSector(std::uint64_t sector);

  // --- checksum inspection --------------------------------------------------
  // One past the last sector number (sectors are numbered from offset 0).
  std::uint64_t SectorCount() const { return (size_ + kSectorBytes - 1) / kSectorBytes; }
  // Recomputes held sector `s` over its valid byte range and compares with
  // the stored checksum.
  bool SectorValid(std::uint64_t sector) const;
  // Byte offset of the first sector (at/after the truncated prefix) whose
  // checksum fails, or size() when all sectors verify.
  std::uint64_t FirstInvalidByte() const;

 private:
  struct Chunk {
    std::array<std::uint8_t, kChunkBytes> data;
    std::array<std::uint32_t, kChunkSectors> sums;  // header-space checksums
  };

  // The first held chunk's number: every chunk below it was freed.
  std::uint64_t FirstChunk() const { return truncated_prefix_ / kChunkBytes; }
  // The chunk holding byte `offset`, which must be held.
  Chunk& ChunkAt(std::uint64_t offset) const;
  // The valid bytes of held sector `sector` (the final one may be partial).
  std::span<std::uint8_t> SectorBytes(std::uint64_t sector) const;
  // Copies `bytes` to the end of the stream, adding chunks as it fills them.
  void Write(std::span<const std::uint8_t> bytes);
  // Recomputes the checksums of the sector holding `from` and every later one.
  void ResyncSums(std::uint64_t from);

  std::uint64_t size_ = 0;
  // Held offsets below truncated_prefix_ are unreadable.
  std::uint64_t truncated_prefix_ = 0;
  // chunks_[0] is chunk FirstChunk(); the last one holds byte size_ - 1.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  // Read's copy of a range that crosses a chunk boundary.
  mutable Bytes straddle_;
};

class LogManager {
 public:
  LogManager(sim::Substrate& substrate, StableLogDevice& device);

  // Appends `rec`, exactly as the caller built it, to the volatile buffer.
  // Returns the record's LSN. Does not force.
  Lsn Append(const LogRecord& rec);

  // Forces the buffer through `upto` to the stable device, charging one
  // stable-storage write per page of forced log data (grouped). No-op if
  // already durable. The stable device is a single spindle: concurrent
  // forces from different tasks queue behind each other in virtual time.
  // Every force that advances the durable frontier wakes WaitDurable
  // waiters whose LSN it covered.
  void Force(Lsn upto);
  void ForceAll() { Force(next_lsn_ - 1); }

  // Blocks the calling task until durable_lsn() >= lsn. The caller (or the
  // group-commit daemon on its behalf) must have arranged for a force to
  // happen; this only waits. Callable only from inside a task.
  void WaitDurable(Lsn lsn);

  Lsn durable_lsn() const { return durable_lsn_; }   // everything ≤ this is stable
  // LSN of the most recently appended record (durable or buffered).
  Lsn last_lsn() const { return last_record_lsn_; }
  // First LSN at/after which records exist (moves up with reclamation).
  Lsn first_lsn() const { return device_.truncated_prefix() + 1; }

  // Reads a record by LSN. During normal operation this reads through the
  // volatile buffer (abort processing reads unforced records);
  // after a crash the buffer is empty, so recovery naturally sees only what
  // reached the stable device. Returns nullopt for unknown/reclaimed LSNs.
  std::optional<LogRecord> ReadRecord(Lsn lsn) const;

  // LSN of the record after `lsn`, or kNullLsn at the durable frontier.
  Lsn NextLsn(Lsn lsn) const;
  // LSN of the last durable record, for starting a backward scan.
  Lsn LastDurableLsn() const;
  // LSN of the record preceding `lsn` in the stable log, or kNullLsn.
  Lsn PrevLsn(Lsn lsn) const;

  // Bytes of stable log in use (for reclamation policy tests).
  std::uint64_t StableBytesInUse() const {
    return device_.size() - device_.truncated_prefix();
  }

  StableLogDevice& device() { return device_; }
  sim::Substrate& substrate() { return substrate_; }

 private:
  // Walks the stable tail forward from the truncated prefix, validating
  // sector checksums and record framing; truncates the device at the first
  // damage (torn or corrupt tail must never be replayed). Runs at rebind
  // (crash recovery). Counts a log-tail truncation when it cuts anything.
  void ValidateStableTail();

  sim::Substrate& substrate_;
  StableLogDevice& device_;
  Bytes buffer_;            // volatile: records past durable_lsn_
  Lsn buffer_start_ = 1;    // LSN corresponding to buffer_[0]
  Lsn next_lsn_ = 1;
  Lsn last_record_lsn_ = kNullLsn;
  Lsn durable_lsn_ = kNullLsn;
  // Virtual time at which the stable device finishes its in-flight write;
  // forces queue behind it (it is one spindle, not one per transaction).
  SimTime device_busy_until_ = 0;
  // Tasks blocked in WaitDurable until a force covers their LSN.
  sim::WaitQueue durable_waiters_;
};

}  // namespace tabs::log

#endif  // TABS_LOG_LOG_MANAGER_H_
