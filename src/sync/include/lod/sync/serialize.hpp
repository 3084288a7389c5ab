#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lod/net/bytes.hpp"

/// \file serialize.hpp
/// Versioned binary state serialization for the sync layer (ROADMAP item 3,
/// the foundation item 4's snapshot/migration builds on).
///
/// `StateWriter` / `StateReader` follow the netplay-style serialization
/// idiom: a flat little-endian byte stream of fixed-width fields, with
/// explicit structural MARKERS between sections so a reader that drifts out
/// of phase with its writer fails loudly at the next marker instead of
/// silently reinterpreting bytes. Determinism is the whole point — the same
/// state must serialize to the same bytes on every site and on every pass,
/// because per-block checksums over these bytes are what desync detection
/// compares across machines (state.hpp).
///
/// The writers/readers are thin layers over `net::ByteWriter`/`ByteReader`;
/// every read is bounds-checked and truncated input throws
/// `std::out_of_range` (never undefined behaviour), exactly like the
/// transport's own codecs.

namespace lod::sync {

/// FNV-1a 64-bit over a byte span — the cheap rolling checksum sync epochs
/// gossip between sites. Not cryptographic; collision-resistant enough to
/// flag replica drift (a false match self-corrects at the next epoch).
inline std::uint64_t checksum64(std::span<const std::byte> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

/// Fold one 64-bit value into a running checksum (combining per-block sums
/// into a session checksum in block-id order).
inline std::uint64_t checksum_combine(std::uint64_t seed, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    seed ^= (v >> (8 * i)) & 0xff;
    seed *= 1099511628211ull;
  }
  return seed;
}

/// Append-only serializer for one state block.
class StateWriter {
 public:
  void u8(std::uint8_t v) { w_.u8(v); }
  void u16(std::uint16_t v) { w_.u16(v); }
  void u32(std::uint32_t v) { w_.u32(v); }
  void u64(std::uint64_t v) { w_.u64(v); }
  void i64(std::int64_t v) { w_.i64(v); }
  void f64(double v) { w_.f64(v); }
  void str(std::string_view s) { w_.str(s); }
  void blob(std::span<const std::byte> b) { w_.blob(b); }
  void raw(std::span<const std::byte> b) { w_.raw(b); }

  /// Structural guard: write a section tag the reader must consume with
  /// `expect_marker` — the serialization analogue of an assert.
  void marker(std::uint32_t tag) { w_.u32(tag); }

  std::size_t size() const { return w_.size(); }
  const std::vector<std::byte>& bytes() const& { return w_.bytes(); }
  std::vector<std::byte> take() && { return std::move(w_).take(); }

 private:
  net::ByteWriter w_;
};

/// Bounds-checked deserializer over a borrowed byte span.
class StateReader {
 public:
  explicit StateReader(std::span<const std::byte> data) : r_(data) {}

  std::uint8_t u8() { return r_.u8(); }
  std::uint16_t u16() { return r_.u16(); }
  std::uint32_t u32() { return r_.u32(); }
  std::uint64_t u64() { return r_.u64(); }
  std::int64_t i64() { return r_.i64(); }
  double f64() { return r_.f64(); }
  std::string str() { return r_.str(); }
  std::vector<std::byte> blob() { return r_.blob(); }
  std::span<const std::byte> raw(std::size_t n) { return r_.raw(n); }

  /// Consume a marker written by `StateWriter::marker`; throws
  /// `std::runtime_error` when the stream is out of phase.
  void expect_marker(std::uint32_t tag) {
    const std::uint32_t got = r_.u32();
    if (got != tag) {
      throw std::runtime_error("StateReader: marker mismatch (expected " +
                               std::to_string(tag) + ", got " +
                               std::to_string(got) + ")");
    }
  }

  std::size_t remaining() const { return r_.remaining(); }
  bool done() const { return r_.done(); }
  /// See `net::ByteReader::bounded_count`.
  std::size_t bounded_count(std::uint32_t n, std::size_t min_bytes) const {
    return r_.bounded_count(n, min_bytes);
  }

 private:
  net::ByteReader r_;
};

}  // namespace lod::sync
