#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

/// \file payload.hpp
/// Refcounted immutable byte buffers for the data plane.
///
/// A `Payload` is a view (offset + length) into a shared, immutable byte
/// body. Copying a Payload bumps a refcount; slicing one produces another
/// view of the same body. The contract the hot path is built on:
///
///   a packet's bytes are copied ONCE, at encode, and never again per hop.
///
/// Concretely, from the ASF muxer on: the muxer adopts each access unit's
/// bytes as one body and every fragment of it is a slice, so copying a muxed
/// `asf::File` (publishing it to every shard's server) shares its media
/// instead of duplicating it; `asf::parse_packet` slices the packet it
/// decodes. The transport keeps Payloads in its inflight/out-of-order
/// buffers (retransmissions re-send the same body), the edge tier caches
/// segment fills as slices of the fetched response, and the player's reorder
/// buffer holds slices of received datagrams. The only byte copies left are
/// the initial encode (ByteWriter building a frame) and the terminal decode
/// (joining a unit's fragments when its bytes are read). The refcount is
/// atomic, so threads may share a body; the bytes are never written after
/// adoption.
///
/// `Payload::stats()` counts the byte copies the class itself performs
/// (`copy_of`, `to_vector`); bench_h1_hotpath asserts this stays flat as hop
/// count grows. Stats are thread-local so sharded runs stay race-free.

namespace lod::net {

class Payload {
 public:
  /// Per-thread accounting of actual byte copies made through this class.
  struct Stats {
    std::uint64_t bytes_copied{0};  ///< bytes duplicated (copy_of/to_vector)
    std::uint64_t copies{0};        ///< copy operations
    std::uint64_t adopts{0};        ///< buffers adopted without copying
    std::uint64_t slices{0};        ///< zero-copy views taken
  };

  Payload() = default;

  /// Adopt \p v as the shared body — no byte copy. Implicit on purpose:
  /// `p.payload = std::move(writer).take()` is the canonical encode step.
  Payload(std::vector<std::byte> v)
      : body_(std::make_shared<const std::vector<std::byte>>(std::move(v))),
        off_(0),
        len_(body_->size()) {
    ++tls_stats().adopts;
  }

  /// The one deliberate copy: materialize foreign bytes into a fresh body.
  static Payload copy_of(std::span<const std::byte> b) {
    Stats& st = tls_stats();
    ++st.copies;
    st.bytes_copied += b.size();
    return Payload(std::vector<std::byte>(b.begin(), b.end()));
  }

  /// Zero-copy sub-view. \p off/\p len are clamped to this view's bounds.
  Payload slice(std::size_t off, std::size_t len) const {
    Payload out;
    if (off > len_) off = len_;
    if (len > len_ - off) len = len_ - off;
    out.body_ = body_;
    out.off_ = off_ + off;
    out.len_ = len;
    ++tls_stats().slices;
    return out;
  }

  std::span<const std::byte> view() const {
    return body_ ? std::span<const std::byte>(body_->data() + off_, len_)
                 : std::span<const std::byte>{};
  }
  operator std::span<const std::byte>() const { return view(); }

  const std::byte* data() const { return body_ ? body_->data() + off_ : nullptr; }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// Counted materialization, for callers that genuinely need ownership of a
  /// mutable vector (compat shims, decode staging).
  std::vector<std::byte> to_vector() const {
    Stats& st = tls_stats();
    ++st.copies;
    st.bytes_copied += len_;
    auto v = view();
    return std::vector<std::byte>(v.begin(), v.end());
  }

  /// How many Payload views share this body (0 for a null payload). Tests
  /// use this to prove caches/buffers share rather than duplicate.
  long owners() const { return body_ ? body_.use_count() : 0; }

  static Stats stats() { return tls_stats(); }
  static void reset_stats() { tls_stats() = Stats{}; }

 private:
  static Stats& tls_stats() {
    thread_local Stats s;
    return s;
  }

  std::shared_ptr<const std::vector<std::byte>> body_;
  std::size_t off_{0};
  std::size_t len_{0};
};

}  // namespace lod::net
