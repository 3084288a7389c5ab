#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lod/net/task.hpp"

/// \file timing_wheel.hpp
/// Hierarchical timing wheel — the one timer queue of both transport
/// backends: the simulator's event queue and `RealTransport`'s timers.
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

/// Identifies a scheduled event so it can be cancelled before it fires.
/// Opaque to callers; internally (slot << 32) | generation into the wheel's
/// handler slab, so cancel() is O(1) with no hashing. Never zero, and a
/// default-constructed (zero) or stale id is always rejected harmlessly.
using EventId = std::uint64_t;

class TimingWheel {
 public:
  /// A popped event: its time, its id and its handler.
  struct Due {
    std::int64_t at{0};
    EventId id{0};
    Task task;
  };

  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;  // 256
  static constexpr std::int64_t kHorizon = std::int64_t{1}
                                           << (kLevels * kSlotBits);  // 2^32 us
  /// A level-0 bucket keeps its storage: the cursor sweeps all of them
  /// every 256 us. A cascaded bucket hands storage of up to this many items
  /// to the next upper-level bucket that fills with none, and frees a
  /// burst's larger storage: keeping that raised perfbench's peak RSS by
  /// about a tenth on `steady` and a third on `overload`
  /// (docs/PERFORMANCE.md §3).
  static constexpr std::size_t kKeepCapacity = 64;

  /// Number of events scheduled and neither fired nor cancelled.
  std::size_t pending() const { return live_; }

  /// Schedule \p task at \p at (absolute microseconds). Times in the past
  /// clamp to the cursor. Captures of up to `Task::kInlineBytes` live in the
  /// slab cell: scheduling and firing them allocates nothing once the slab
  /// and the buckets they visit have grown.
  EventId schedule(std::int64_t at, Task task) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
    }
    Cell& c = cells_[slot];
    c.task = std::move(task);
    c.live = true;
    ++live_;
    const EventId id = (std::uint64_t{slot} << 32) | c.gen;
    place(Item{std::max(at, cur_), next_seq_++, id});
    return id;
  }

  /// Cancel a pending event. Returns false for a fired, cancelled or
  /// unknown id. The wheel item stays in place; its generation no longer
  /// matches, so it is swept when its slot drains.
  bool cancel(EventId id) {
    const std::uint32_t slot = id_slot(id);
    if (slot >= cells_.size()) return false;
    const Cell& c = cells_[slot];
    if (!c.live || c.gen != id_gen(id)) return false;
    free_cell(slot);
    return true;
  }

  /// Pop the earliest pending event if its time is <= \p limit, advancing
  /// the cursor to that time and freeing its slab cell before the caller
  /// runs `out.task`; cancelled items met on the way are swept. Otherwise
  /// false, with the cursor advanced no further than \p limit. Deciding
  /// "is anything due?" costs bitmap scans only, never a walk over bucket
  /// contents.
  bool pop_due(std::int64_t limit, Due& out) {
    Item it;
    while (pop_item(limit, it)) {
      const std::uint32_t slot = id_slot(it.id);
      Cell& c = cells_[slot];
      if (!c.live || c.gen != id_gen(it.id)) continue;  // cancelled; sweep
      out.at = it.at;
      out.id = it.id;
      out.task = std::move(c.task);
      free_cell(slot);
      return true;
    }
    return false;
  }

  /// The earliest pending time when it is <= \p limit; otherwise a value
  /// > limit that may be only a lower bound on it; -1 when nothing is
  /// queued. A cancelled item not yet swept counts as pending, so this too
  /// may come early. The cursor never advances past min(earliest, limit).
  ///
  /// Works on bitmap information only. Level-0 items share all bits >= 8
  /// with the cursor, so their slot index IS their exact time within the
  /// cursor's 256-us window; upper-level slots expose their cascade
  /// boundary (slot start), a strict lower bound on their items. While the
  /// earliest thing pending is only known as an upper-level bound, advance
  /// the cursor to that boundary (cascading the slot down a level) and
  /// retry — each round trickles the front of the wheel one level lower
  /// until the minimum surfaces at level 0, exact. Never walks bucket
  /// contents, unlike a "scan the first non-empty bucket for its min" peek,
  /// which is O(bucket) per call and quadratic over a run.
  std::int64_t next_due(std::int64_t limit) {
    if (ready_head_ < ready_.size()) return cur_;
    for (;;) {
      std::int64_t best = -1;  // exact, from level 0
      const int s0 = bit_find_from(bits_[0], cursor_slot(0));
      if (s0 >= 0) best = (cur_ & ~std::int64_t{kSlots - 1}) + s0;
      const std::int64_t bound = next_boundary();  // upper levels + far heap
      // A level-0 time can never equal an upper-level slot start (equal
      // times share identical bits, hence the same level), so `best < bound`
      // means best is the global minimum.
      if (best >= 0 && (bound < 0 || best < bound)) return best;
      if (bound < 0) return -1;
      if (bound > limit) return bound;
      cross_boundary(bound);
      // Items due exactly AT a boundary cascade straight into ready_ (place
      // routes at == cur_ there). The cursor only ever moves through lower
      // bounds, so anything in ready_ now IS the minimum — stop refining, or
      // the loop would advance past it and strand it.
      if (ready_head_ < ready_.size()) return cur_;
    }
  }

  /// Advance the cursor to \p t without firing anything. Precondition: no
  /// pending item is earlier than \p t (the caller drains them first).
  void fast_forward(std::int64_t t) {
    if (t > cur_) advance_to(t);
  }

 private:
  /// Deliberately trivially copyable: items are re-placed on every cascade,
  /// so a type-erased handler inside would pay an indirect call per move.
  /// Handlers live in the slab, keyed by `id`.
  struct Item {
    std::int64_t at{0};    ///< absolute microseconds
    std::uint64_t seq{0};  ///< schedule order; ties on `at` break by seq
    EventId id{0};
  };

  /// One slab cell per in-flight handler. The handler, capture inline, is
  /// moved exactly twice — into its cell at schedule, out at fire. The
  /// generation counter makes stale ids (fired or cancelled, slot since
  /// reused) miss: an id only resolves while its generation matches the
  /// cell's.
  struct Cell {
    Task task;
    std::uint32_t gen{1};
    bool live{false};
  };

  static std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  /// Retire a cell: drop the handler, bump the generation so the id (and
  /// its lazily-remaining wheel item) goes stale, recycle the slot.
  void free_cell(std::uint32_t slot) {
    Cell& c = cells_[slot];
    c.task = nullptr;
    ++c.gen;
    c.live = false;
    free_.push_back(slot);
    --live_;
  }

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
      ready_.push_back(it);
      return;
    }
    const auto diff = static_cast<std::uint64_t>(it.at ^ cur_);
    const int level = (63 - std::countl_zero(diff)) / kSlotBits;
    if (level >= kLevels) {
      far_.push_back(it);
      std::push_heap(far_.begin(), far_.end(), FarLater{});
      return;
    }
    const int slot =
        static_cast<int>(it.at >> (kSlotBits * level)) & (kSlots - 1);
    auto& bucket =
        slots_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    if (bucket.empty()) {
      bit_set(bits_[static_cast<std::size_t>(level)], slot);
      if (level > 0 && bucket.capacity() == 0 && !spare_.empty()) {
        bucket.swap(spare_.back());
        spare_.pop_back();
      }
    }
    bucket.push_back(it);
  }

  /// Pop the earliest item, live or cancelled, if due by \p limit.
  bool pop_item(std::int64_t limit, Item& out) {
    if (ready_head_ < ready_.size() && cur_ > limit) return false;
    while (ready_head_ >= ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
      const std::int64_t t = next_due(limit);
      if (t < 0 || t > limit) return false;
      advance_to(t);
      collect_current_slot();
    }
    out = ready_[ready_head_++];
    if (ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
    return true;
  }

  /// Next boundary above the cursor at which cascade or refill work
  /// exists, or -1. Boundaries whose slots are empty are skipped
  /// arithmetically.
  std::int64_t next_boundary() const {
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
    return best;
  }

  /// Move the cursor onto boundary \p b and cascade what starts there.
  void cross_boundary(std::int64_t b) {
    cur_ = b;
    if ((cur_ & (kHorizon - 1)) == 0) refill_far();
    for (int level = kLevels - 1; level >= 1; --level) {
      const std::int64_t width = std::int64_t{1} << (kSlotBits * level);
      if ((cur_ & (width - 1)) == 0) cascade(level, cursor_slot(level));
    }
  }

  /// Move the cursor to \p t, cascading every non-empty slot whose boundary
  /// we cross. A long idle jump costs a few bitmap scans, not one step per
  /// slot.
  void advance_to(std::int64_t t) {
    while (cur_ < t) {
      const std::int64_t nb = next_boundary();
      if (nb < 0 || nb > t) {
        cur_ = t;
        return;
      }
      cross_boundary(nb);
    }
  }

  /// Re-place a crossed slot's items relative to the new cursor. They
  /// share every field at and above \p level with the cursor now, so each
  /// lands strictly below \p level (or in ready_): the bucket is never
  /// appended to while it is walked, and is walked in place.
  void cascade(int level, int slot) {
    auto& bucket =
        slots_[static_cast<std::size_t>(level)][static_cast<std::size_t>(slot)];
    if (bucket.empty()) return;
    bit_clear(bits_[static_cast<std::size_t>(level)], slot);
    for (const Item& it : bucket) place(it);
    bucket.clear();
    // The wall clock, not a warm-up, decides which upper-level slots a
    // real-time wheel visits, so storage follows the load instead of
    // staying in its slot.
    if (bucket.capacity() > kKeepCapacity) {
      std::vector<Item>().swap(bucket);
    } else {
      spare_.emplace_back().swap(bucket);
    }
  }

  void refill_far() {
    while (!far_.empty() && far_.front().at < cur_ + kHorizon) {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      const Item it = far_.back();
      far_.pop_back();
      place(it);
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
    ready_.insert(ready_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }

  struct FarLater {
    bool operator()(const Item& a, const Item& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  std::int64_t cur_{0};
  std::array<std::array<std::vector<Item>, kSlots>, kLevels> slots_;
  std::array<Bitmap, kLevels> bits_{};
  std::vector<Item> far_;      ///< min-heap on (at, seq)
  std::vector<Item> ready_;    ///< due at cur_, seq-ascending
  std::size_t ready_head_{0};  ///< pop index into ready_
  std::vector<std::vector<Item>> spare_;  ///< storage of cascaded buckets
  std::uint64_t next_seq_{0};
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> free_;  ///< recycled slots, LIFO
  std::size_t live_{0};
};

}  // namespace lod::net
