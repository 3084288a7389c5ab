#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <stdexcept>

#include "lod/media/object.hpp"
#include "lod/net/time.hpp"

/// \file render_log.hpp
/// The player's render history: one record per rendered access unit, kept
/// for the life of the player, from which the sync, skew and migration
/// figures are read.
///
/// A long session renders millions of units, so each is stored in 16 bytes:
///
///   word 0: pts       as 48-bit two's-complement µs | stream_id << 48
///   word 1: true_time as 48-bit two's-complement µs | type      << 48
///
/// 48 bits cover ±2^47 µs (±4.46 years) of pts or simulation time; a unit
/// outside that range is refused rather than silently wrapped. Records live
/// in a `std::deque`, which never relocates and has no doubling slack, so
/// the log costs 16 bytes per unit plus one map pointer per deque block
/// (32 records in libstdc++'s 512-byte blocks).
/// Accessors decode a record into a `RenderEvent` and return it by value.

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
  struct Record {
    std::uint64_t pts_stream;
    std::uint64_t time_type;
  };

 public:
  static constexpr std::size_t kRecordBytes = sizeof(Record);
  /// Inclusive range of a pts or true_time, in µs.
  static constexpr std::int64_t kMaxUs = (std::int64_t{1} << 47) - 1;
  static constexpr std::int64_t kMinUs = -(std::int64_t{1} << 47);

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = RenderEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RenderEvent;

    iterator() = default;
    RenderEvent operator*() const { return decode(*it_); }
    iterator& operator++() {
      ++it_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++it_;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    friend class RenderLog;
    explicit iterator(std::deque<Record>::const_iterator it) : it_(it) {}
    std::deque<Record>::const_iterator it_;
  };

  /// Append one unit. Throws `std::out_of_range`, leaving the log
  /// unchanged, when pts or true_time is outside [kMinUs, kMaxUs].
  void push_back(const RenderEvent& ev) {
    if (!fits(ev.pts.us) || !fits(ev.true_time.us)) {
      throw std::out_of_range("RenderLog: time outside +-2^47 us");
    }
    records_.push_back(
        Record{pack(ev.pts.us, ev.stream_id),
               pack(ev.true_time.us, static_cast<std::uint16_t>(ev.type))});
  }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  RenderEvent operator[](std::size_t i) const { return decode(records_[i]); }
  /// Precondition: !empty().
  RenderEvent front() const { return decode(records_.front()); }
  /// Precondition: !empty().
  RenderEvent back() const { return decode(records_.back()); }
  iterator begin() const { return iterator(records_.begin()); }
  iterator end() const { return iterator(records_.end()); }

 private:
  static constexpr int kTimeBits = 48;
  static constexpr std::uint64_t kTimeMask =
      (std::uint64_t{1} << kTimeBits) - 1;

  static constexpr bool fits(std::int64_t us) {
    return us >= kMinUs && us <= kMaxUs;
  }
  static constexpr std::uint64_t pack(std::int64_t us, std::uint16_t tag) {
    return (static_cast<std::uint64_t>(us) & kTimeMask) |
           (std::uint64_t{tag} << kTimeBits);
  }
  /// Sign-extend the low 48 bits.
  static constexpr std::int64_t time_of(std::uint64_t word) {
    return static_cast<std::int64_t>(word << (64 - kTimeBits)) >>
           (64 - kTimeBits);
  }
  static constexpr std::uint16_t tag_of(std::uint64_t word) {
    return static_cast<std::uint16_t>(word >> kTimeBits);
  }
  static RenderEvent decode(const Record& r) {
    return RenderEvent{static_cast<media::MediaType>(tag_of(r.time_type)),
                       tag_of(r.pts_stream),
                       net::SimDuration{time_of(r.pts_stream)},
                       net::SimTime{time_of(r.time_type)}};
  }

  std::deque<Record> records_;
};

static_assert(RenderLog::kRecordBytes == 16);

}  // namespace lod::streaming
