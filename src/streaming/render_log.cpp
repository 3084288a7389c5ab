#include "lod/streaming/render_log.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace lod::streaming {
namespace {

/// Tag slot values past the table: an explicit (id, type) follows, or the
/// block's records end here.
constexpr unsigned kEscape = 6;
constexpr std::uint8_t kNextBlock = 7;
/// Tag, stream escape (4), pts (8) and offset (8) varints.
constexpr std::size_t kMaxRecordBytes = 21;
constexpr int kPtsShift = 3;
constexpr int kOffsetShift = 5;
/// A pts delta-of-delta in [-1, 1] or an offset delta in [-3, 3] rides in
/// the tag; the all-ones code means a varint follows.
constexpr std::int64_t kPtsBias = 1;
constexpr unsigned kPtsVarint = 3;
constexpr std::int64_t kOffsetBias = 3;
constexpr unsigned kOffsetVarint = 7;
/// Index entries address blocks on a 1 KiB stride.
constexpr int kPosBits = 10;
constexpr std::size_t kMaxBlocks = std::size_t{1} << (32 - kPosBits);

/// Blocks of 256 B, 512 B from the 17th and 1 KiB from the 33rd, less
/// malloc's 8-byte chunk header so each fills its chunk: a log leaves at
/// most one block part-empty, and a long one pays 16 bytes per KiB for the
/// chunk header and its table entry.
constexpr std::size_t block_bytes(std::size_t block) {
  return (std::size_t{256} << (block < 32 ? block / 16 : 2)) - 8;
}

/// Log ids are never reused, so a cached chunk cannot outlive its log.
std::atomic<std::uint64_t> g_next_id{1};

constexpr bool fits(std::int64_t us) {
  return us >= RenderLog::kMinUs && us <= RenderLog::kMaxUs;
}

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t b = *p++;
    v |= std::uint64_t{b & 0x7fu} << shift;
    if (b < 0x80) return v;
  }
}

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// The tag code for \p v: v + bias when it fits below \p varint, otherwise
/// \p varint, and the varint written at \p p.
unsigned put_small(std::uint8_t*& p, std::int64_t v, std::int64_t bias,
                   unsigned varint) {
  if (v >= -bias && v + bias < static_cast<std::int64_t>(varint)) {
    return static_cast<unsigned>(v + bias);
  }
  p = put_varint(p, zigzag(v));
  return varint;
}

std::int64_t get_small(const std::uint8_t*& p, unsigned code,
                       std::int64_t bias, unsigned varint) {
  if (code != varint) return static_cast<std::int64_t>(code) - bias;
  return unzigzag(get_varint(p));
}

}  // namespace

struct RenderLog::ReadCache {
  std::uint64_t log{0};
  std::size_t chunk{0};
  std::size_t decoded{0};
  Cursor cur;
  std::array<RenderEvent, kChunkRecords> events{};
};

RenderLog::RenderLog(const RenderLog& o)
    : id_(o.id_ == 0 ? 0 : g_next_id.fetch_add(1, std::memory_order_relaxed)),
      index_(o.index_),
      size_(o.size_),
      codec_(o.codec_),
      last_(o.last_) {
  blocks_.reserve(o.blocks_.size());
  for (const auto& b : o.blocks_) {
    const std::size_t n = block_bytes(blocks_.size());
    blocks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(n));
    std::memcpy(blocks_.back().get(), b.get(), n);
  }
  if (!blocks_.empty()) {
    put_ = blocks_.back().get() + (o.put_ - o.blocks_.back().get());
  }
}

RenderLog::RenderLog(RenderLog&& o) noexcept
    : id_(std::exchange(o.id_, 0)),
      blocks_(std::move(o.blocks_)),
      index_(std::move(o.index_)),
      put_(std::exchange(o.put_, nullptr)),
      size_(std::exchange(o.size_, 0)),
      codec_(o.codec_),
      last_(o.last_) {
  o.blocks_.clear();
  o.index_.clear();
}

RenderLog& RenderLog::operator=(RenderLog o) noexcept {
  swap(*this, o);
  return *this;
}

void swap(RenderLog& a, RenderLog& b) noexcept {
  using std::swap;
  swap(a.id_, b.id_);
  swap(a.blocks_, b.blocks_);
  swap(a.index_, b.index_);
  swap(a.put_, b.put_);
  swap(a.size_, b.size_);
  swap(a.codec_, b.codec_);
  swap(a.last_, b.last_);
}

void RenderLog::add_block() {
  if (blocks_.size() == kMaxBlocks) {
    throw std::length_error("RenderLog: more than 2^22 blocks");
  }
  const std::size_t n = block_bytes(blocks_.size());
  blocks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(n));
  put_ = blocks_.back().get();
  if (id_ == 0) id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void RenderLog::push_back(const RenderEvent& ev) {
  if (!fits(ev.pts.us) || !fits(ev.true_time.us)) {
    throw std::out_of_range("RenderLog: time outside +-2^47 us");
  }
  const bool chunk_start = size_ % kChunkRecords == 0;
  // A fresh chunk state is harmless if an allocation below throws: the
  // next append starts the same chunk again.
  if (chunk_start) codec_.reset();

  // Encode into a scratch record first; the codec's state changes only
  // once the bytes have a place.
  const auto type = static_cast<std::uint8_t>(ev.type);
  const std::int64_t pts = ev.pts.us;
  const std::int64_t offset = ev.true_time.us - pts;
  std::uint8_t rec[kMaxRecordBytes];
  std::uint8_t* p = rec + 1;
  unsigned slot = 0;
  while (slot < codec_.used && (codec_.slots[slot].id != ev.stream_id ||
                                codec_.slots[slot].type != type)) {
    ++slot;
  }
  const bool escape = slot == codec_.used;
  const Stream prev =
      escape ? Stream{codec_.pts, 0, ev.stream_id, type} : codec_.slots[slot];
  if (escape) {
    p = put_varint(p, std::uint64_t{ev.stream_id} << 8 | type);
    slot = kEscape;
  }
  const std::int64_t step = pts - prev.pts;
  const unsigned pts_code =
      put_small(p, step - prev.step, kPtsBias, kPtsVarint);
  const unsigned offset_code =
      put_small(p, offset - codec_.offset, kOffsetBias, kOffsetVarint);
  rec[0] = static_cast<std::uint8_t>(slot | (pts_code << kPtsShift) |
                                     (offset_code << kOffsetShift));
  const auto n = static_cast<std::size_t>(p - rec);

  // Allocate, so a throw leaves the log as it was: a record that does not
  // fit closes its block with kNextBlock and starts the next one.
  if (blocks_.empty()) {
    add_block();
  } else if (std::uint8_t* const end = blocks_.back().get() +
                                       block_bytes(blocks_.size() - 1);
             static_cast<std::size_t>(end - put_) < n) {
    std::uint8_t* const tail = put_;
    add_block();
    if (tail != end) *tail = kNextBlock;
  }
  if (chunk_start) {
    const auto block = static_cast<std::uint32_t>(blocks_.size() - 1);
    index_.push_back(block << kPosBits |
                     static_cast<std::uint32_t>(put_ - blocks_.back().get()));
  }

  std::memcpy(put_, rec, n);
  put_ += n;
  if (!escape) {
    codec_.slots[slot] = Stream{pts, step, ev.stream_id, type};
  } else if (codec_.used < Codec::kSlots) {
    codec_.slots[codec_.used++] = Stream{pts, step, ev.stream_id, type};
  }
  codec_.pts = pts;
  codec_.offset = offset;
  last_ = ev;
  ++size_;
}

RenderLog::Cursor RenderLog::chunk_start(std::size_t chunk) const {
  const std::uint32_t at = index_[chunk];
  Cursor c;
  c.block = at >> kPosBits;
  const std::uint8_t* base = blocks_[c.block].get();
  c.p = base + (at & ((1u << kPosBits) - 1));
  c.end = base + block_bytes(c.block);
  return c;
}

RenderEvent RenderLog::Cursor::next(const RenderLog& log) {
  const std::uint8_t* q = p;
  if (q == end || *q == kNextBlock) {
    q = log.blocks_[++block].get();
    end = q + block_bytes(block);
  }
  const unsigned tag = *q++;
  unsigned slot = tag & 7u;
  if (slot == kEscape) {
    const std::uint64_t key = get_varint(q);
    // With the table full the pair decodes in the spare last slot.
    slot = static_cast<unsigned>(
        codec.used < Codec::kSlots ? codec.used++ : Codec::kSlots);
    codec.slots[slot] = Stream{codec.pts, 0, static_cast<std::uint16_t>(key >> 8),
                               static_cast<std::uint8_t>(key)};
  }
  Stream& s = codec.slots[slot];
  const std::int64_t step =
      s.step + get_small(q, (tag >> kPtsShift) & 3u, kPtsBias, kPtsVarint);
  const std::int64_t pts = s.pts + step;
  const std::int64_t offset =
      codec.offset +
      get_small(q, tag >> kOffsetShift, kOffsetBias, kOffsetVarint);
  s.step = step;
  s.pts = pts;
  codec.pts = pts;
  codec.offset = offset;
  p = q;
  return RenderEvent{static_cast<media::MediaType>(s.type), s.id,
                     net::SimDuration{pts}, net::SimTime{pts + offset}};
}

RenderEvent RenderLog::operator[](std::size_t i) const {
  thread_local ReadCache cache;
  const std::size_t chunk = i / kChunkRecords;
  const std::size_t k = i % kChunkRecords;
  if (cache.log != id_ || cache.chunk != chunk) {
    cache.log = id_;
    cache.chunk = chunk;
    cache.decoded = 0;
    cache.cur = chunk_start(chunk);
  }
  // Records only ever append, so what the cache decoded stays valid.
  while (cache.decoded <= k) {
    cache.events[cache.decoded++] = cache.cur.next(*this);
  }
  return cache.events[k];
}

RenderLog::iterator::iterator(const RenderLog& log, std::size_t i)
    : log_(&log), i_(i) {
  if (i_ < log.size_) {
    cur_ = log.chunk_start(i_ / kChunkRecords);
    ev_ = cur_.next(log);
    for (std::size_t k = i_ % kChunkRecords; k > 0; --k) ev_ = cur_.next(log);
  }
}

}  // namespace lod::streaming
