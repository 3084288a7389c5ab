#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

/// \file timing_wheel.hpp
/// Hierarchical timing wheel — the simulator's event queue.
///
/// Four levels of 256 slots each, with slot widths of 2^0, 2^8, 2^16 and
/// 2^24 microseconds, cover events up to 2^32 us (~71.6 minutes) ahead of
/// the cursor; anything farther waits in a small min-heap and refills the
/// wheel as the horizon advances. Scheduling is O(1); popping is O(1)
/// amortised plus a 256-bit bitmap scan per level, against O(log n) per
/// operation for the binary heap this replaces. With hundreds of thousands
/// of pending timers (retransmits, media ticks) the wheel also avoids the
/// heap's cache-hostile sift paths.
///
/// An item's level is the position of the highest bit in which its time
/// differs from the cursor (bits 0-7 -> level 0, 8-15 -> level 1, ...), and
/// its slot is that level's 8-bit field of the absolute time. Two
/// consequences the algorithms below lean on:
///   - at every level, pending items sit strictly ABOVE the cursor's slot
///     (they share all higher fields with the cursor), so scans are linear,
///     never circular, and first-non-empty-slot == level minimum;
///   - when the cursor crosses a slot boundary, that slot's items cascade
///     to lower levels (or to the ready bucket) by re-placement.
///
/// Determinism contract: items pop in strictly ascending (at, seq) order —
/// identical to the binary-heap ordering this replaces — so merged sharded
/// snapshots stay byte-identical across shard counts. Same-instant items
/// ride a `ready_` bucket that is seq-sorted by construction: slot vectors
/// only append in schedule order and cascades move whole slots, preserving
/// the relative order of equal-time items end to end.

namespace lod::net {

class TimingWheel {
 public:
  /// Deliberately trivially copyable: items are re-placed on every cascade,
  /// so any non-trivial payload (e.g. a type-erased handler) would pay an
  /// indirect call per move. Callers keep payloads in a side table
  /// keyed by `id` (the Simulator uses a slot/generation slab).
  struct Item {
    std::int64_t at{0};    ///< absolute microseconds
    std::uint64_t seq{0};  ///< schedule order; ties on `at` break by seq
    std::uint64_t id{0};   ///< caller's event id (for lazy cancellation)
  };

  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;  // 256
  static constexpr std::int64_t kHorizon = std::int64_t{1}
                                           << (kLevels * kSlotBits);  // 2^32 us
  /// A cascaded bucket keeps storage for up to this many items. Keeping all
  /// of it instead raised perfbench's peak RSS by about a tenth on `steady`
  /// and a third on `overload` (docs/PERFORMANCE.md §3).
  static constexpr std::size_t kKeepCapacity = 64;

  /// Cursor: the wheel's notion of "now". Monotonically non-decreasing.
  std::int64_t now() const { return cur_; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Insert an item. Times in the past clamp to the cursor.
  void schedule(Item it) {
    if (it.at < cur_) it.at = cur_;
    ++size_;
    place(std::move(it));
  }

  /// Pop the earliest item in (at, seq) order, advancing the cursor to its
  /// time. Returns false when the wheel is empty.
  bool pop(Item& out) {
    return pop_due(std::numeric_limits<std::int64_t>::max(), out);
  }

  /// Pop the earliest item if its time is <= \p limit; otherwise false,
  /// with the cursor advanced no further than \p limit. This is run_until's
  /// workhorse: deciding "is anything due?" costs bitmap scans only, never
  /// a walk over bucket contents.
  bool pop_due(std::int64_t limit, Item& out) {
    if (ready_head_ < ready_.size() && cur_ > limit) return false;
    while (ready_head_ >= ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
      const std::int64_t t = advance_toward_next(limit);
      if (t < 0 || t > limit) return false;
      advance_to(t);
      collect_current_slot();
    }
    out = std::move(ready_[ready_head_++]);
    if (ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
    --size_;
    return true;
  }

  /// Advance the cursor to \p t without firing anything. Precondition: no
  /// pending item is earlier than \p t (run_until drains them first).
  void fast_forward(std::int64_t t) {
    if (t > cur_) advance_to(t);
  }

 private:
  using Bitmap = std::array<std::uint64_t, kSlots / 64>;

  static void bit_set(Bitmap& bm, int i) {
    bm[static_cast<std::size_t>(i >> 6)] |= std::uint64_t{1} << (i & 63);
  }
  static void bit_clear(Bitmap& bm, int i) {
    bm[static_cast<std::size_t>(i >> 6)] &= ~(std::uint64_t{1} << (i & 63));
  }
  /// First set bit at index >= from, else -1.
  static int bit_find_from(const Bitmap& bm, int from) {
    if (from >= kSlots) return -1;
    int w = from >> 6;
    const std::uint64_t head =
        bm[static_cast<std::size_t>(w)] & (~std::uint64_t{0} << (from & 63));
    if (head) return (w << 6) + std::countr_zero(head);
    for (++w; w < static_cast<int>(bm.size()); ++w) {
      if (bm[static_cast<std::size_t>(w)]) {
        return (w << 6) + std::countr_zero(bm[static_cast<std::size_t>(w)]);
      }
    }
    return -1;
  }

  int cursor_slot(int level) const {
    return static_cast<int>(cur_ >> (kSlotBits * level)) & (kSlots - 1);
  }

  /// Route an item by the highest bit in which its time differs from the
  /// cursor. Also used when cascading (items re-place relative to the new
  /// cursor, trickling down a level or more each crossing).
  void place(Item it) {
    if (it.at <= cur_) {
      // Same-instant: schedule order == seq order, so appending keeps the
      // bucket sorted.
      ready_.push_back(std::move(it));
      return;
    }
    const auto diff = static_cast<std::uint64_t>(it.at ^ cur_);
    const int level = (63 - std::countl_zero(diff)) / kSlotBits;
    if (level >= kLevels) {
      far_.push_back(std::move(it));
      std::push_heap(far_.begin(), far_.end(), FarLater{});
      return;
    }
    const int slot =
        static_cast<int>(it.at >> (kSlotBits * level)) & (kSlots - 1);
    auto& bucket =
        slots_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    if (bucket.empty()) bit_set(bits_[static_cast<std::size_t>(level)], slot);
    bucket.push_back(std::move(it));
  }

  /// Refine the earliest pending time using bitmap information only. Level-0
  /// items share all bits >= 8 with the cursor, so their slot index IS their
  /// exact time within the cursor's 256-us window; upper-level slots expose
  /// their cascade boundary (slot start), a strict lower bound on their
  /// items. While the earliest thing pending is only known as an upper-level
  /// bound, advance the cursor to that boundary (cascading the slot down a
  /// level) and retry — each round trickles the front of the wheel one level
  /// lower until the minimum surfaces at level 0, exact. Never walks bucket
  /// contents, unlike a "scan the first non-empty bucket for its min" peek,
  /// which is O(bucket) per call and quadratic over a run.
  ///
  /// Returns the exact earliest time when it is <= \p limit; a value > limit
  /// (possibly just a bound) once it is known nothing is due by \p limit;
  /// -1 when empty. The cursor never advances past min(earliest, limit).
  std::int64_t advance_toward_next(std::int64_t limit) {
    if (ready_head_ < ready_.size()) return cur_;
    for (;;) {
      std::int64_t best = -1;  // exact, from level 0
      const int s0 = bit_find_from(bits_[0], cursor_slot(0));
      if (s0 >= 0) best = (cur_ & ~std::int64_t{kSlots - 1}) + s0;
      std::int64_t bound = -1;  // lower bound, from upper levels + far heap
      for (int level = 1; level < kLevels; ++level) {
        const int i = bit_find_from(bits_[static_cast<std::size_t>(level)],
                                    cursor_slot(level) + 1);
        if (i < 0) continue;
        const std::int64_t b =
            ((cur_ >> (kSlotBits * level)) + (i - cursor_slot(level)))
            << (kSlotBits * level);
        if (bound < 0 || b < bound) bound = b;
      }
      if (!far_.empty()) {
        const std::int64_t refill = ((cur_ >> (kLevels * kSlotBits)) + 1)
                                    << (kLevels * kSlotBits);
        if (bound < 0 || refill < bound) bound = refill;
      }
      // A level-0 time can never equal an upper-level slot start (equal
      // times share identical bits, hence the same level), so `best < bound`
      // means best is the global minimum.
      if (best >= 0 && (bound < 0 || best < bound)) return best;
      if (bound < 0) return -1;
      if (bound > limit) return bound;
      cur_ = bound;
      if ((cur_ & (kHorizon - 1)) == 0) refill_far();
      for (int level = kLevels - 1; level >= 1; --level) {
        const std::int64_t width = std::int64_t{1} << (kSlotBits * level);
        if ((cur_ & (width - 1)) == 0) cascade(level, cursor_slot(level));
      }
      // Items due exactly AT a boundary cascade straight into ready_ (place
      // routes at == cur_ there). The cursor only ever moves through lower
      // bounds, so anything in ready_ now IS the minimum — stop refining, or
      // the loop would advance past it and strand it.
      if (ready_head_ < ready_.size()) return cur_;
    }
  }

  /// Next boundary <= limit at which cascade/refill work exists, or -1.
  /// Boundaries whose slots are empty are skipped arithmetically.
  std::int64_t next_cascade_boundary(std::int64_t limit) const {
    std::int64_t best = -1;
    for (int level = 1; level < kLevels; ++level) {
      const int i = bit_find_from(bits_[static_cast<std::size_t>(level)],
                                  cursor_slot(level) + 1);
      if (i < 0) continue;
      const std::int64_t boundary =
          ((cur_ >> (kSlotBits * level)) + (i - cursor_slot(level)))
          << (kSlotBits * level);
      if (best < 0 || boundary < best) best = boundary;
    }
    if (!far_.empty()) {
      const std::int64_t refill = ((cur_ >> (kLevels * kSlotBits)) + 1)
                                  << (kLevels * kSlotBits);
      if (best < 0 || refill < best) best = refill;
    }
    if (best < 0 || best > limit) return -1;
    return best;
  }

  /// Move the cursor to \p t, cascading every non-empty slot whose boundary
  /// we cross. A long idle jump costs a few bitmap scans, not one step per
  /// slot.
  void advance_to(std::int64_t t) {
    while (cur_ < t) {
      const std::int64_t nb = next_cascade_boundary(t);
      if (nb < 0) {
        cur_ = t;
        return;
      }
      cur_ = nb;
      if ((cur_ & (kHorizon - 1)) == 0) refill_far();
      for (int level = kLevels - 1; level >= 1; --level) {
        const std::int64_t width = std::int64_t{1} << (kSlotBits * level);
        if ((cur_ & (width - 1)) == 0) cascade(level, cursor_slot(level));
      }
    }
  }

  /// Re-place a crossed slot's items relative to the new cursor. They
  /// share every field at and above \p level with the cursor now, so each
  /// lands strictly below \p level (or in ready_): the bucket is never
  /// appended to while it is walked, and is walked in place. A small bucket
  /// keeps its storage for the next lap round the wheel; a burst's storage
  /// is freed, so one spike does not pin its peak in every slot it crossed.
  void cascade(int level, int slot) {
    auto& bucket =
        slots_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    if (bucket.empty()) return;
    bit_clear(bits_[static_cast<std::size_t>(level)], slot);
    for (const Item& it : bucket) place(it);
    if (bucket.capacity() <= kKeepCapacity) {
      bucket.clear();
    } else {
      std::vector<Item>().swap(bucket);
    }
  }

  void refill_far() {
    while (!far_.empty() && far_.front().at < cur_ + kHorizon) {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      Item it = std::move(far_.back());
      far_.pop_back();
      place(std::move(it));
    }
  }

  /// After advance_to(t), everything due at t sits in the level-0 cursor
  /// slot (cascades route same-instant items straight to ready_). A level-0
  /// slot holds exactly one distinct time, so the whole bucket moves.
  void collect_current_slot() {
    const int slot = cursor_slot(0);
    auto& bucket = slots_[0][static_cast<std::size_t>(slot)];
    if (bucket.empty()) return;
    bit_clear(bits_[0], slot);
    for (Item& it : bucket) ready_.push_back(std::move(it));
    bucket.clear();
  }

  struct FarLater {
    bool operator()(const Item& a, const Item& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  std::int64_t cur_{0};
  std::size_t size_{0};
  std::array<std::array<std::vector<Item>, kSlots>, kLevels> slots_;
  std::array<Bitmap, kLevels> bits_{};
  std::vector<Item> far_;      ///< min-heap on (at, seq)
  std::vector<Item> ready_;    ///< due at cur_, seq-ascending
  std::size_t ready_head_{0};  ///< pop index into ready_
};

}  // namespace lod::net
