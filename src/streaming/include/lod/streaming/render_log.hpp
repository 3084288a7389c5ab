#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "lod/media/object.hpp"
#include "lod/net/time.hpp"

/// \file render_log.hpp
/// The player's render history: one record per rendered access unit, kept
/// for the life of the player, from which the sync, skew and migration
/// figures are read.
///
/// A long session renders millions of units, so records are delta-encoded,
/// about 2 bytes per unit on the benchmark workloads. Every 32nd record
/// starts a chunk whose encoder state is reset, and a `u32` index holds
/// each chunk's byte position, so `operator[]` decodes at most 31 records
/// before the one it returns. A record is one tag byte and up to three
/// zigzag varints:
///
///   tag bits 0-2: slot 0-5 in the chunk's table of (stream_id, type)
///                 pairs; 6 escapes: varint(stream_id << 8 | type) follows
///                 and the pair takes the next free slot; 7 ends the block
///   tag bits 3-4: pts delta-of-delta against the previous unit of the same
///                 slot: 0-2 mean -1, 0, +1; 3 means a varint follows
///   tag bits 5-7: delta of (true_time - pts) against the previous record:
///                 0-6 mean -3..+3; 7 means a varint follows
///
/// A pair's first unit in a chunk is predicted from the previous record's
/// pts with no step; the chunk's first record from pts and offset 0.
///
/// pts and true_time are limited to ±2^47 µs (±4.46 years); a unit outside
/// that range is refused rather than silently wrapped. Bytes live in
/// blocks that never relocate (256 B, growing to 1 KiB in a long log), so
/// there is no doubling slack and no copying; a record that does not fit in
/// the last block starts the next. An empty log allocates nothing.
/// Accessors decode a record into a `RenderEvent` and return it by value;
/// `back()` reads a cached copy of the last event. Each thread keeps the
/// chunk its last `operator[]` read, decoded that far, so reading `log[i]`
/// in order decodes each record once.

namespace lod::streaming {

/// One rendered access unit.
struct RenderEvent {
  media::MediaType type;
  std::uint16_t stream_id;
  net::SimDuration pts;
  net::SimTime true_time;  ///< global simulation time (ground truth)

  friend bool operator==(const RenderEvent&, const RenderEvent&) = default;
};

class RenderLog {
 public:
  /// Inclusive range of a pts or true_time, in µs.
  static constexpr std::int64_t kMaxUs = (std::int64_t{1} << 47) - 1;
  static constexpr std::int64_t kMinUs = -(std::int64_t{1} << 47);
  /// Records per chunk; `operator[]` decodes from the chunk's start.
  static constexpr std::size_t kChunkRecords = 32;

 private:
  /// The predictor of one (stream_id, type) pair: its last pts and step.
  struct Stream {
    std::int64_t pts;
    std::int64_t step;
    std::uint16_t id;
    std::uint8_t type;
  };
  /// Encoder state, and the same state rebuilt by a reader. Reset at every
  /// chunk start.
  struct Codec {
    static constexpr std::size_t kSlots = 6;
    /// One spare past kSlots, where a reader decodes an escaped pair when
    /// the table is full.
    std::array<Stream, kSlots + 1> slots{};
    std::size_t used{0};
    std::int64_t pts{0};     ///< previous record's pts
    std::int64_t offset{0};  ///< previous record's true_time - pts

    void reset() {
      used = 0;
      pts = 0;
      offset = 0;
    }
  };
  /// A read position: the next record's bytes and the state to decode it.
  struct Cursor {
    Codec codec;
    std::size_t block{0};
    const std::uint8_t* p{nullptr};
    const std::uint8_t* end{nullptr};

    RenderEvent next(const RenderLog& log);
  };
  /// The chunk a thread read last, decoded as far as it has read.
  struct ReadCache;

 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = RenderEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RenderEvent;

    iterator() = default;
    RenderEvent operator*() const { return ev_; }
    iterator& operator++() {
      if (++i_ < log_->size_) {
        if (i_ % kChunkRecords == 0) cur_.codec.reset();
        ev_ = cur_.next(*log_);
      }
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class RenderLog;
    iterator(const RenderLog& log, std::size_t i);

    const RenderLog* log_{nullptr};
    std::size_t i_{0};
    Cursor cur_;
    RenderEvent ev_{};
  };

  RenderLog() = default;
  RenderLog(const RenderLog& o);
  /// Leaves \p o empty.
  RenderLog(RenderLog&& o) noexcept;
  RenderLog& operator=(RenderLog o) noexcept;
  friend void swap(RenderLog& a, RenderLog& b) noexcept;

  /// Append one unit. Throws `std::out_of_range`, leaving the log
  /// unchanged, when pts or true_time is outside [kMinUs, kMaxUs], and
  /// `std::length_error` past 2^22 blocks (~4 GiB).
  void push_back(const RenderEvent& ev);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  RenderEvent operator[](std::size_t i) const;
  /// Precondition: !empty().
  RenderEvent front() const { return (*this)[0]; }
  /// Precondition: !empty().
  RenderEvent back() const { return last_; }
  iterator begin() const { return iterator(*this, 0); }
  iterator end() const { return iterator(*this, size_); }

 private:
  Cursor chunk_start(std::size_t chunk) const;
  void add_block();

  /// Names this log's bytes in the per-thread read cache; 0 while empty.
  std::uint64_t id_{0};
  std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
  /// Per chunk: block << 10 | byte within the block.
  std::vector<std::uint32_t> index_;
  std::uint8_t* put_{nullptr};  ///< next free byte of the last block
  std::size_t size_{0};
  Codec codec_;
  RenderEvent last_{};
};

}  // namespace lod::streaming
