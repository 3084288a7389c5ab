#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "lod/media/codec.hpp"

/// \file render_queue.hpp
/// The player's jitter buffer: demuxed units waiting for their render
/// instant, in (pts, arrival) order.
///
/// Units almost always arrive in pts order, so the queue is one contiguous
/// vector with a read cursor: an in-order arrival appends, a straggler is
/// inserted after every unit with the same pts (`upper_bound`), and render
/// pops from the front by moving the cursor. Equal-pts units therefore keep
/// their arrival order, exactly as a `std::multimap<pts, unit>` would.
/// Storage grows and shrinks with the number of queued units (each unit is
/// moved O(1) times on average) and is released when the queue drains, so
/// an idle or stalled player holds no buffer memory.

namespace lod::streaming {

/// What the renderer needs of a demuxed unit: 16 bytes, not the whole
/// `EncodedUnit`, because a playing session buffers hundreds of them.
struct QueuedUnit {
  net::SimDuration pts{};
  std::uint16_t stream_id{0};
  media::MediaType type{media::MediaType::kVideo};
};

class RenderQueue {
 public:
  bool empty() const { return head_ == units_.size(); }
  std::size_t size() const { return units_.size() - head_; }

  /// Lowest-pts unit (the next to render). Precondition: !empty().
  const QueuedUnit& front() const { return units_[head_]; }
  /// Highest-pts unit. Precondition: !empty().
  const QueuedUnit& back() const { return units_.back(); }

  void push(const QueuedUnit& u) {
    if (empty() || units_.back().pts <= u.pts) {
      // When full, reclaim the rendered prefix instead of growing, if it is
      // at least half the storage: each unit is then moved O(1) times.
      if (units_.size() == units_.capacity() && head_ >= units_.size() / 2) {
        compact();
      }
      units_.push_back(u);
      return;
    }
    const auto pos = std::upper_bound(
        units_.begin() + static_cast<std::ptrdiff_t>(head_), units_.end(),
        u.pts, [](net::SimDuration pts, const QueuedUnit& x) {
          return pts < x.pts;
        });
    units_.insert(pos, u);
  }

  /// Drop the front unit. Precondition: !empty(). Storage follows the
  /// live count down: a drained queue releases it, and one that has shrunk
  /// to a quarter of its storage moves into storage of twice its size.
  void pop_front() {
    if (++head_ == units_.size()) {
      clear();
    } else if (size() * 4 <= units_.capacity() &&
               units_.capacity() > kMinCapacity) {
      std::vector<QueuedUnit> live;
      live.reserve(2 * size());
      live.assign(units_.begin() + static_cast<std::ptrdiff_t>(head_),
                  units_.end());
      units_.swap(live);
      head_ = 0;
    }
  }

  /// Drop every unit and release the storage.
  void clear() {
    units_ = {};
    head_ = 0;
  }

 private:
  void compact() {
    units_.erase(units_.begin(),
                 units_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }

  static constexpr std::size_t kMinCapacity = 8;

  std::vector<QueuedUnit> units_;
  std::size_t head_{0};  ///< index of the front unit
};

}  // namespace lod::streaming
