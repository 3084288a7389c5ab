#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// \file bytes.hpp
/// Little-endian byte-stream serialization used by the transport layer and
/// the ASF container. Deliberately boring: fixed-width integers, doubles via
/// bit copy, and length-prefixed strings/blobs. Readers bound-check every
/// access and throw `std::out_of_range` on truncated input — a malformed
/// packet must never become undefined behaviour.

namespace lod::net {

/// Append-only serializer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put_int(v); }
  void u32(std::uint32_t v) { put_int(v); }
  void u64(std::uint64_t v) { put_int(v); }
  void i64(std::int64_t v) { put_int(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(std::as_bytes(std::span{s.data(), s.size()}));
  }
  /// Length-prefixed (u32) opaque blob.
  void blob(std::span<const std::byte> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }
  /// Unprefixed raw bytes.
  void raw(std::span<const std::byte> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Pre-size the buffer for \p n bytes in total; output is unchanged. A
  /// frame writer that knows its size up front allocates exactly once.
  void reserve(std::size_t n) { buf_.reserve(n); }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::byte>& bytes() const& { return buf_; }
  std::vector<std::byte> take() && { return std::move(buf_); }

 private:
  /// One append per integer, so the buffer grows at most once per field
  /// (not once per byte); a writer reserved to its frame size never does.
  template <typename T>
  void put_int(T v) {
    std::byte le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
    }
    buf_.insert(buf_.end(), le, le + sizeof(T));
  }
  std::vector<std::byte> buf_;
};

/// Bounds-checked deserializer over a borrowed byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return get_int<std::uint16_t>(); }
  std::uint32_t u32() { return get_int<std::uint32_t>(); }
  std::uint64_t u64() { return get_int<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    auto s = take(n);
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }
  std::vector<std::byte> blob() {
    const std::uint32_t n = u32();
    auto s = take(n);
    return std::vector<std::byte>(s.begin(), s.end());
  }
  std::span<const std::byte> raw(std::size_t n) { return take(n); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  /// How many of \p n elements, a count read off the wire, the unread bytes
  /// can hold when each element encodes to at least \p min_bytes. Reserve
  /// this, never \p n itself: a hostile count must not become a huge
  /// allocation before the truncated input is noticed.
  std::size_t bounded_count(std::uint32_t n, std::size_t min_bytes) const {
    return std::min<std::size_t>(n, remaining() / min_bytes);
  }
  /// Bytes consumed so far — lets a caller slice a shared buffer at the
  /// reader's position instead of copying a blob out of it.
  std::size_t offset() const { return pos_; }

 private:
  std::span<const std::byte> take(std::size_t n) {
    if (remaining() < n) throw std::out_of_range("ByteReader: truncated input");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  template <typename T>
  T get_int() {
    auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(s[i])) << (8 * i);
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_{0};
};

}  // namespace lod::net
