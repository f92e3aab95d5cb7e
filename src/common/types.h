// Core identifier types shared by every TABS subsystem.
//
// These correspond to the identifiers the paper's interfaces traffic in:
// node identities, transaction identifiers (Section 3.2.3), log sequence
// numbers, and the ObjectIDs that the server library's address arithmetic
// produces (Section 3.1.1).

#ifndef TABS_COMMON_TYPES_H_
#define TABS_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>

namespace tabs {

// Virtual time, in microseconds. The paper reports primitive times in
// milliseconds; all cost-model entries are stored in microseconds so that
// sub-millisecond projections (Table 5-5) stay exact.
using SimTime = std::int64_t;

constexpr SimTime kMillisecond = 1000;
constexpr SimTime kMicrosecond = 1;

// Identifies one simulated Perq workstation ("node"). Node 0 is reserved as
// the invalid node.
using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0;

// Log sequence number: byte offset of a record in a node's log. 0 = null.
using Lsn = std::uint64_t;
constexpr Lsn kNullLsn = 0;

// Identifies a recoverable segment (a disk file mapped into a data server's
// address space, Section 3.2.1). Unique per node.
using SegmentId = std::uint32_t;
constexpr SegmentId kInvalidSegment = 0;

// Pages are the unit of paging and of value logging (a value log record holds
// at most one page of old/new image, Section 2.1.3).
constexpr std::uint32_t kPageSize = 512;  // Accent pages were 512 bytes.
using PageNumber = std::uint32_t;

struct PageId {
  SegmentId segment = kInvalidSegment;
  PageNumber page = 0;

  friend bool operator==(const PageId&, const PageId&) = default;
  friend auto operator<=>(const PageId&, const PageId&) = default;
};

// A globally unique transaction identifier. The Transaction Manager on each
// node allocates these; `node` is the birth node of the (sub)transaction and
// `sequence` is unique on that node across restarts (Section 3.2.3).
//
// Uniqueness across restarts is load-bearing: the high bits of `sequence`
// carry the minting node's incarnation (its crash-recovery epoch). A
// coordinator that began a transaction, involved only remote servers, and
// crashed before logging anything locally leaves no local trace of the ids
// it handed out — but remote participants still hold locks and undo state
// under them. Restarting the counter alone would re-mint such an id and
// alias the orphan's remote state (its locks grant to the impostor as lock
// conversions; its updates commit with the impostor's 2PC). The incarnation
// is bumped and durably logged on every crash recovery, so re-minting is
// impossible even for ids the crashed incarnation never logged.
//
// The null TID is the special value passed to BeginTransaction to create a
// new top-level transaction (Table 3-2).
constexpr std::uint64_t kIncarnationShift = 32;
constexpr std::uint64_t kSequenceCounterMask = (std::uint64_t{1} << kIncarnationShift) - 1;

struct TransactionId {
  NodeId node = kInvalidNode;
  std::uint64_t sequence = 0;

  bool IsNull() const { return node == kInvalidNode && sequence == 0; }
  std::uint64_t incarnation() const { return sequence >> kIncarnationShift; }
  std::uint64_t counter() const { return sequence & kSequenceCounterMask; }

  friend bool operator==(const TransactionId&, const TransactionId&) = default;
  friend auto operator<=>(const TransactionId&, const TransactionId&) = default;
};

constexpr TransactionId kNullTransaction{};

// The server library's object handle: a (segment, byte offset, length)
// triple. CreateObjectID performs the virtual-address-to-ObjectID arithmetic
// the paper describes; the log manager works in terms of these (Section
// 3.1.1).
struct ObjectId {
  SegmentId segment = kInvalidSegment;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  PageNumber FirstPage() const { return offset / kPageSize; }
  PageNumber LastPage() const { return (offset + length - 1) / kPageSize; }

  friend bool operator==(const ObjectId&, const ObjectId&) = default;
  friend auto operator<=>(const ObjectId&, const ObjectId&) = default;
};

std::string ToString(const TransactionId& tid);
std::string ToString(const ObjectId& oid);
std::string ToString(const PageId& pid);

}  // namespace tabs

namespace std {

template <>
struct hash<tabs::TransactionId> {
  size_t operator()(const tabs::TransactionId& t) const noexcept {
    return std::hash<std::uint64_t>()((std::uint64_t(t.node) << 40) ^ t.sequence);
  }
};

template <>
struct hash<tabs::ObjectId> {
  size_t operator()(const tabs::ObjectId& o) const noexcept {
    return std::hash<std::uint64_t>()((std::uint64_t(o.segment) << 40) ^
                                      (std::uint64_t(o.offset) << 8) ^ o.length);
  }
};

template <>
struct hash<tabs::PageId> {
  size_t operator()(const tabs::PageId& p) const noexcept {
    return std::hash<std::uint64_t>()((std::uint64_t(p.segment) << 32) ^ p.page);
  }
};

}  // namespace std

#endif  // TABS_COMMON_TYPES_H_
