// Byte-level serialization used by the log and by inter-node messages.
//
// Records are encoded little-endian with explicit lengths. A Reader refuses
// to run past the end of its input (truncated log tails after a crash are an
// expected condition, not a bug).

#ifndef TABS_COMMON_BYTES_H_
#define TABS_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace tabs {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  // Continues after the bytes already in `prefix`: move a buffer in, write,
  // and Take() it back to append in place without a copy.
  explicit ByteWriter(Bytes prefix) : buf_(std::move(prefix)) {}

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { Raw(&v, sizeof v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { Raw(&v, sizeof v); }

  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Blob(std::span<const std::uint8_t> b) {
    U32(static_cast<std::uint32_t>(b.size()));
    Raw(b.data(), b.size());
  }
  void Tid(const TransactionId& t) {
    U32(t.node);
    U64(t.sequence);
  }
  void Oid(const ObjectId& o) {
    U32(o.segment);
    U32(o.offset);
    U32(o.length);
  }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t U8() { return ReadScalar<std::uint8_t>(); }
  std::uint16_t U16() { return ReadScalar<std::uint16_t>(); }
  std::uint32_t U32() { return ReadScalar<std::uint32_t>(); }
  std::uint64_t U64() { return ReadScalar<std::uint64_t>(); }
  std::int64_t I64() { return ReadScalar<std::int64_t>(); }

  std::string Str() {
    std::uint32_t n = U32();
    if (!Check(n)) {
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  Bytes Blob() {
    std::uint32_t n = U32();
    if (!Check(n)) {
      return {};
    }
    Bytes b(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return b;
  }
  TransactionId Tid() {
    TransactionId t;
    t.node = U32();
    t.sequence = U64();
    return t;
  }
  ObjectId Oid() {
    ObjectId o;
    o.segment = U32();
    o.offset = U32();
    o.length = U32();
    return o;
  }

 private:
  template <typename T>
  T ReadScalar() {
    if (!Check(sizeof(T))) {
      return T{};
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  bool Check(size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace tabs

#endif  // TABS_COMMON_BYTES_H_
