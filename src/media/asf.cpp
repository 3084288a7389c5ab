#include "lod/media/asf.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "lod/net/bytes.hpp"

namespace lod::media::asf {

using net::ByteReader;
using net::ByteWriter;

namespace {
// Modeled framing costs inside a fixed-size packet.
constexpr std::uint32_t kPacketHeaderBytes = 12;
constexpr std::uint32_t kPayloadHeaderBytes = 23;
// Don't open a fragment smaller than this at the tail of a packet.
constexpr std::uint32_t kMinFragment = 64;

constexpr std::uint32_t kFileMagic = 0x4c4f4441;    // "LODA"
constexpr std::uint32_t kHeaderMagic = 0x4c4f4448;  // "LODH"
constexpr std::uint32_t kPacketMagic = 0x4c4f4450;  // "LODP"

// Serialized sizes: a packet's fixed header (magic, send time, padding,
// payload count), a payload's fixed header including its data length, and
// the smallest stream-table and index entries.
constexpr std::size_t kPacketWireHeader = 4 + 8 + 4 + 4;
constexpr std::size_t kPayloadWireHeader = 2 + 1 + 8 + 8 + 1 + 4 + 4 + 4 + 4;
constexpr std::size_t kStreamWireMin = 2 + 1 + 4 + 8 + 2 + 2 + 4;
constexpr std::size_t kIndexEntryWire = 8 + 4;

std::uint64_t drm_nonce(std::uint16_t stream, std::uint32_t object) {
  return (static_cast<std::uint64_t>(stream) << 32) | object;
}
}  // namespace

const StreamInfo* Header::find_stream(std::uint16_t id) const {
  for (const auto& s : streams) {
    if (s.stream_id == id) return &s;
  }
  return nullptr;
}

std::size_t File::wire_size() const {
  // Header + fixed-size data packets + 12 bytes per index entry.
  ByteWriter w;
  w.raw(serialize_header(header));
  return w.size() + packets.size() * header.props.packet_bytes +
         index.size() * 12 + 16;
}

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint32_t tag) {
  std::vector<std::byte> out(n);
  std::uint32_t x = tag * 2654435761u + 1u;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    out[i] = static_cast<std::byte>(x >> 24);
  }
  return out;
}

// --- Muxer -------------------------------------------------------------------

Muxer::Muxer(Header header, const DrmSystem* drm)
    : header_(std::move(header)), drm_(drm) {
  if (header_.props.packet_bytes <
      kPacketHeaderBytes + kPayloadHeaderBytes + kMinFragment) {
    throw std::invalid_argument("Muxer: packet size too small");
  }
}

void Muxer::add_unit(const EncodedUnit& unit,
                     std::span<const std::byte> content) {
  PendingUnit p;
  p.meta = unit;
  if (content.empty()) {
    p.content = pattern_bytes(unit.bytes, static_cast<std::uint32_t>(
                                              units_.size() * 31 + unit.bytes));
  } else {
    p.content.assign(content.begin(), content.end());
    p.meta.bytes = static_cast<std::uint32_t>(p.content.size());
  }
  units_.push_back(std::move(p));
}

void Muxer::add_script(const ScriptCommand& cmd) { scripts_.push_back(cmd); }

File Muxer::finalize(SimDuration index_interval) {
  // Script commands become units on the reserved script stream.
  for (const auto& s : scripts_) {
    ByteWriter w;
    w.str(s.type);
    w.str(s.param);
    PendingUnit p;
    p.meta.stream_id = kScriptStreamId;
    p.meta.type = MediaType::kScript;
    p.meta.pts = s.at;
    p.meta.duration = {};
    p.meta.keyframe = true;
    p.content = std::move(w).take();
    p.meta.bytes = static_cast<std::uint32_t>(p.content.size());
    units_.push_back(std::move(p));
  }
  scripts_.clear();

  // Interleave by presentation time (stable: preserves add order at ties).
  std::stable_sort(units_.begin(), units_.end(),
                   [](const PendingUnit& a, const PendingUnit& b) {
                     return a.meta.pts < b.meta.pts;
                   });

  File file;
  file.header = header_;

  const bool encrypt = drm_ && header_.drm.is_protected;
  const std::uint32_t capacity = header_.props.packet_bytes - kPacketHeaderBytes;
  DataPacket cur;
  std::uint32_t used = 0;
  bool cur_open = false;
  // Per-stream object ids, assigned in pts order.
  std::unordered_map<std::uint16_t, std::uint32_t> oid_counter;

  auto close_packet = [&] {
    if (!cur_open) return;
    cur.pad_bytes = capacity - used;
    file.packets.push_back(std::move(cur));
    cur = DataPacket{};
    used = 0;
    cur_open = false;
  };

  for (auto& u : units_) {
    const std::uint32_t oid = oid_counter[u.meta.stream_id]++;
    if (encrypt && u.meta.stream_id != kScriptStreamId) {
      drm_->apply_keystream(header_.drm.key_id,
                            drm_nonce(u.meta.stream_id, oid),
                            std::span<std::byte>(u.content));
    }
    // The unit's (encrypted) bytes become one shared body; every fragment
    // below is a slice of it.
    const net::Payload body(std::move(u.content));
    const std::uint32_t total = static_cast<std::uint32_t>(body.size());
    std::uint32_t offset = 0;
    // Emit at least one (possibly empty) fragment so zero-byte units survive.
    do {
      if (cur_open && used + kPayloadHeaderBytes + kMinFragment > capacity) {
        close_packet();
      }
      if (!cur_open) {
        cur.send_time = u.meta.pts;
        cur_open = true;
      }
      const std::uint32_t space = capacity - used - kPayloadHeaderBytes;
      const std::uint32_t take = std::min(total - offset, space);

      Payload pl;
      pl.stream_id = u.meta.stream_id;
      pl.type = u.meta.type;
      pl.pts = u.meta.pts;
      pl.duration = u.meta.duration;
      pl.keyframe = u.meta.keyframe;
      pl.object_id = oid;
      pl.offset = offset;
      pl.object_size = total;
      pl.data = body.slice(offset, take);
      cur.payloads.push_back(std::move(pl));
      used += kPayloadHeaderBytes + take;
      offset += take;
      if (used + kPayloadHeaderBytes + kMinFragment > capacity) close_packet();
    } while (offset < total);
  }
  close_packet();
  units_.clear();

  build_index(file, index_interval);
  return file;
}

// --- indexing ------------------------------------------------------------------

void build_index(File& f, SimDuration interval) {
  f.index.clear();
  if (f.packets.empty()) return;
  if (interval.us <= 0) interval = net::sec(5);

  const bool has_video = std::any_of(
      f.header.streams.begin(), f.header.streams.end(),
      [](const StreamInfo& s) { return s.type == MediaType::kVideo; });

  // Collect resume points: packets where a video keyframe *starts*
  // (offset 0), or — without video — every packet's first payload.
  struct Point {
    SimDuration pts;
    std::uint32_t packet;
  };
  std::vector<Point> points;
  for (std::uint32_t i = 0; i < f.packets.size(); ++i) {
    for (const auto& pl : f.packets[i].payloads) {
      const bool resume =
          has_video ? (pl.type == MediaType::kVideo && pl.keyframe &&
                       pl.offset == 0)
                    : (&pl == &f.packets[i].payloads.front());
      if (resume) {
        points.push_back({pl.pts, i});
        break;
      }
    }
  }
  if (points.empty()) points.push_back({f.packets.front().send_time, 0});

  const SimDuration end = f.header.props.play_duration.us > 0
                              ? f.header.props.play_duration
                              : points.back().pts;
  for (SimDuration t{0}; t <= end; t += interval) {
    // Latest resume point at or before t.
    std::uint32_t pkt = points.front().packet;
    for (const auto& p : points) {
      if (p.pts <= t) pkt = p.packet;
      else break;
    }
    f.index.push_back({t, pkt});
  }
}

std::uint32_t seek_packet(std::span<const IndexEntry> index, SimDuration t) {
  if (index.empty()) return 0;
  std::uint32_t pkt = index.front().packet;
  for (const auto& e : index) {
    if (e.time <= t) pkt = e.packet;
    else break;
  }
  return pkt;
}

// --- Demuxer -------------------------------------------------------------------

Demuxer::Demuxer(const Header& header)
    : protected_(header.drm.is_protected) {
  assembling_.reserve(header.streams.size() + 1);  // + the script stream
}

void Demuxer::set_license(const DrmSystem* drm, License lic, std::string user) {
  drm_ = drm;
  license_ = std::move(lic);
  user_ = std::move(user);
}

void Demuxer::feed(const net::Payload& packet, net::SimTime local_now) {
  PacketDecoder dec(packet.view());  // throws before anything is fed
  const std::size_t first_ready = ready_units_.size();
  PayloadView pl;
  while (dec.next(pl)) accept(pl, pl.data, {}, local_now);
  // A unit with bytes in more than one packet keeps each of them: one still
  // assembling, and one completed here that began in an earlier packet
  // (only such units have pieces). Units completed inside it borrow it.
  for (Assembly& a : assembling_) {
    if (a.active) a.unit.own(packet);
  }
  for (std::size_t i = first_ready; i < ready_units_.size(); ++i) {
    if (ready_units_[i].pieces_) ready_units_[i].own(packet);
  }
}

void Demuxer::feed(const DataPacket& packet, net::SimTime local_now) {
  for (const auto& pl : packet.payloads) {
    accept(pl, pl.data.view(), pl.data, local_now);
  }
}

void Demuxer::accept(const PayloadHeader& pl, std::span<const std::byte> bytes,
                     net::Payload owner, net::SimTime local_now) {
  auto it = std::find_if(
      assembling_.begin(), assembling_.end(),
      [&](const Assembly& x) { return x.stream_id == pl.stream_id; });
  if (it == assembling_.end()) {
    it = assembling_.insert(assembling_.end(), Assembly{});
    it->stream_id = pl.stream_id;
  }
  Assembly& a = *it;
  if (!a.active || a.object_id != pl.object_id) {
    if (a.active && a.received < a.object_size) ++dropped_incomplete_;
    a.active = true;
    a.object_id = pl.object_id;
    a.object_size = pl.object_size;
    a.received = 0;
    a.unit.clear();
    a.unit.meta = EncodedUnit{pl.stream_id, pl.type,        pl.pts,
                              pl.duration,  pl.object_size, pl.keyframe,
                              1.0f};
  }
  const std::size_t len = bytes.size();
  if (pl.offset + len <= a.object_size) {
    a.unit.add(pl.offset, bytes, std::move(owner));
    a.received += static_cast<std::uint32_t>(len);
  }
  if (a.received >= a.object_size) {
    complete(a, local_now);
    a.active = false;
  }
}

void Demuxer::complete(Assembly& a, net::SimTime local_now) {
  if (a.unit.meta.stream_id == kScriptStreamId) {
    try {
      const std::vector<std::byte> bytes = a.unit.data();
      ByteReader r(bytes);
      ScriptCommand cmd;
      cmd.at = a.unit.meta.pts;
      cmd.type = r.str();
      cmd.param = r.str();
      ready_scripts_.push_back(std::move(cmd));
    } catch (const std::out_of_range&) {
      ++dropped_incomplete_;  // corrupt script payload
    }
    return;
  }
  if (protected_) {
    // Decryption reads the bytes, so a licensed unit is joined here and
    // carries its plaintext as one fragment.
    bool ok = false;
    if (drm_ && license_) {
      std::vector<std::byte> bytes = a.unit.data();
      const std::uint64_t nonce = drm_nonce(a.unit.meta.stream_id, a.object_id);
      ok = drm_->decrypt_with_license(*license_, user_, local_now, nonce,
                                      std::span<std::byte>(bytes));
      if (ok) {
        net::Payload plain(std::move(bytes));
        const auto view = plain.view();
        a.unit.clear();
        a.unit.add(0, view, std::move(plain));
      }
    }
    if (!ok) undecryptable_ = true;  // surfaced encrypted: render will fail
  }
  ready_units_.push_back(std::move(a.unit));
}

// --- DemuxedUnit ----------------------------------------------------------------

static_assert(sizeof(DemuxedUnit) <= 64, "a queued unit fits a cache line");

std::vector<DemuxedUnit::Piece>& DemuxedUnit::pieces() {
  if (!pieces_) {
    pieces_ = std::make_unique<std::vector<Piece>>();
    pieces_->reserve(4);  // a keyframe spans a few packets
  }
  return *pieces_;
}

void DemuxedUnit::add(std::uint32_t offset, std::span<const std::byte> bytes,
                      net::Payload owner) {
  if (bytes.empty()) return;
  const Fragment f{offset, static_cast<std::uint32_t>(bytes.size()),
                   bytes.data()};
  if (!first_.data) {
    first_ = f;
    if (owner.owners() != 0) {
      pieces().push_back({Fragment{}, std::move(owner)});
    }
  } else {
    pieces().push_back({f, std::move(owner)});
  }
}

void DemuxedUnit::own(const net::Payload& packet) {
  const std::less<const std::byte*> before;
  const auto views = [&](const Fragment& f) {
    return f.data && !before(f.data, packet.data()) &&
           before(f.data, packet.data() + packet.size());
  };
  // One reference per packet keeps all of the unit's bytes in it.
  if (views(first_)) {
    pieces().push_back({Fragment{}, packet});
    return;
  }
  if (!pieces_) return;
  for (Piece& p : *pieces_) {
    if (views(p.fragment)) {
      p.owner = packet;
      return;
    }
  }
}

void DemuxedUnit::clear() {
  first_ = Fragment{};
  pieces_.reset();
}

std::vector<std::byte> DemuxedUnit::data() const {
  std::vector<std::byte> out(meta.bytes, std::byte{0});
  auto put = [&out](const Fragment& f) {
    std::copy(f.data, f.data + f.size, out.begin() + f.offset);
  };
  if (first_.data) put(first_);
  if (pieces_) {
    for (const Piece& p : *pieces_) put(p.fragment);
  }
  return out;
}

std::optional<DemuxedUnit> Demuxer::next_unit() {
  if (unit_cursor_ >= ready_units_.size()) {
    if (unit_cursor_ > 0) {
      ready_units_.clear();
      unit_cursor_ = 0;
    }
    return std::nullopt;
  }
  return std::move(ready_units_[unit_cursor_++]);
}

std::optional<ScriptCommand> Demuxer::next_script() {
  if (script_cursor_ >= ready_scripts_.size()) {
    if (script_cursor_ > 0) {
      ready_scripts_.clear();
      script_cursor_ = 0;
    }
    return std::nullopt;
  }
  return std::move(ready_scripts_[script_cursor_++]);
}

// --- serialization ---------------------------------------------------------------

namespace {
void write_stream(ByteWriter& w, const StreamInfo& s) {
  w.u16(s.stream_id);
  w.u8(static_cast<std::uint8_t>(s.type));
  w.str(s.codec);
  w.i64(s.avg_bitrate_bps);
  w.u16(s.width);
  w.u16(s.height);
  w.u32(s.sample_rate);
}
StreamInfo read_stream(ByteReader& r) {
  StreamInfo s;
  s.stream_id = r.u16();
  s.type = static_cast<MediaType>(r.u8());
  s.codec = r.str();
  s.avg_bitrate_bps = r.i64();
  s.width = r.u16();
  s.height = r.u16();
  s.sample_rate = r.u32();
  return s;
}
}  // namespace

std::vector<std::byte> serialize_header(const Header& h) {
  ByteWriter w;
  w.u32(kHeaderMagic);
  w.str(h.props.title);
  w.str(h.props.author);
  w.i64(h.props.play_duration.us);
  w.i64(h.props.preroll.us);
  w.u32(h.props.packet_bytes);
  w.i64(h.props.avg_bitrate_bps);
  w.u8(h.drm.is_protected ? 1 : 0);
  w.str(h.drm.key_id);
  w.str(h.drm.license_url);
  w.u32(static_cast<std::uint32_t>(h.streams.size()));
  for (const auto& s : h.streams) write_stream(w, s);
  return std::move(w).take();
}

Header parse_header(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  if (r.u32() != kHeaderMagic) throw std::runtime_error("asf: bad header magic");
  Header h;
  h.props.title = r.str();
  h.props.author = r.str();
  h.props.play_duration = {r.i64()};
  h.props.preroll = {r.i64()};
  h.props.packet_bytes = r.u32();
  h.props.avg_bitrate_bps = r.i64();
  h.drm.is_protected = r.u8() != 0;
  h.drm.key_id = r.str();
  h.drm.license_url = r.str();
  const std::uint32_t n = r.u32();
  h.streams.reserve(r.bounded_count(n, kStreamWireMin));
  for (std::uint32_t i = 0; i < n; ++i) h.streams.push_back(read_stream(r));
  return h;
}

void write_packet(ByteWriter& w, const DataPacket& p) {
  w.u32(kPacketMagic);
  w.i64(p.send_time.us);
  w.u32(p.pad_bytes);
  w.u32(static_cast<std::uint32_t>(p.payloads.size()));
  for (const auto& pl : p.payloads) {
    w.u16(pl.stream_id);
    w.u8(static_cast<std::uint8_t>(pl.type));
    w.i64(pl.pts.us);
    w.i64(pl.duration.us);
    w.u8(pl.keyframe ? 1 : 0);
    w.u32(pl.object_id);
    w.u32(pl.offset);
    w.u32(pl.object_size);
    w.blob(pl.data.view());
  }
}

std::size_t packet_wire_size(const DataPacket& p) {
  std::size_t n = kPacketWireHeader;
  for (const auto& pl : p.payloads) n += kPayloadWireHeader + pl.data.size();
  return n;
}

std::vector<std::byte> serialize_packet(const DataPacket& p) {
  ByteWriter w;
  w.reserve(packet_wire_size(p));
  write_packet(w, p);
  return std::move(w).take();
}

namespace {
/// A little-endian field at \p p; the caller has bounds-checked it.
template <typename T>
T load_le(const std::byte* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}
}  // namespace

PacketDecoder::PacketDecoder(std::span<const std::byte> bytes) {
  const std::size_t size = bytes.size();
  const std::byte* p = bytes.data();
  if (size < 4) throw std::out_of_range("asf: truncated packet");
  if (load_le<std::uint32_t>(p) != kPacketMagic) {
    throw std::runtime_error("asf: bad packet magic");
  }
  if (size < kPacketWireHeader) {
    throw std::out_of_range("asf: truncated packet");
  }
  send_time_ = {static_cast<std::int64_t>(load_le<std::uint64_t>(p + 4))};
  pad_bytes_ = load_le<std::uint32_t>(p + 12);
  count_ = load_le<std::uint32_t>(p + 16);
  pos_ = p + kPacketWireHeader;
  // One check per payload: its fixed header, then the data length the
  // header's last field declares, must fit in what is left.
  std::size_t at = kPacketWireHeader;
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (size - at < kPayloadWireHeader) {
      throw std::out_of_range("asf: truncated payload header");
    }
    const auto n =
        load_le<std::uint32_t>(p + at + kPayloadWireHeader - 4);
    if (size - at - kPayloadWireHeader < n) {
      throw std::out_of_range("asf: payload runs past the packet");
    }
    at += kPayloadWireHeader + n;
  }
}

bool PacketDecoder::next(PayloadView& out) {
  if (yielded_ == count_) return false;
  const std::byte* p = pos_;
  out.stream_id = load_le<std::uint16_t>(p);
  out.type = static_cast<MediaType>(p[2]);
  out.pts = {static_cast<std::int64_t>(load_le<std::uint64_t>(p + 3))};
  out.duration = {static_cast<std::int64_t>(load_le<std::uint64_t>(p + 11))};
  out.keyframe = p[19] != std::byte{0};
  out.object_id = load_le<std::uint32_t>(p + 20);
  out.offset = load_le<std::uint32_t>(p + 24);
  out.object_size = load_le<std::uint32_t>(p + 28);
  const std::uint32_t n = load_le<std::uint32_t>(p + 32);
  out.data = {p + kPayloadWireHeader, n};
  pos_ = p + kPayloadWireHeader + n;
  ++yielded_;
  return true;
}

DataPacket parse_packet(const net::Payload& bytes) {
  PacketDecoder dec(bytes.view());
  DataPacket p;
  p.send_time = dec.send_time();
  p.pad_bytes = dec.pad_bytes();
  p.payloads.reserve(dec.payload_count());  // checked against the bytes
  PayloadView v;
  while (dec.next(v)) {
    Payload pl;
    static_cast<PayloadHeader&>(pl) = v;
    const auto at = static_cast<std::size_t>(v.data.data() - bytes.data());
    pl.data = bytes.slice(at, v.data.size());
    p.payloads.push_back(std::move(pl));
  }
  return p;
}

std::vector<std::byte> serialize(const File& f) {
  ByteWriter w;
  w.u32(kFileMagic);
  w.blob(serialize_header(f.header));
  w.u32(static_cast<std::uint32_t>(f.packets.size()));
  for (const auto& p : f.packets) {
    w.u32(static_cast<std::uint32_t>(packet_wire_size(p)));
    write_packet(w, p);
  }
  w.u32(static_cast<std::uint32_t>(f.index.size()));
  for (const auto& e : f.index) {
    w.i64(e.time.us);
    w.u32(e.packet);
  }
  return std::move(w).take();
}

File parse(const net::Payload& bytes) {
  ByteReader r(bytes.view());
  if (r.u32() != kFileMagic) throw std::runtime_error("asf: bad file magic");
  File f;
  {
    const auto hb = r.blob();
    f.header = parse_header(hb);
  }
  const std::uint32_t np = r.u32();
  f.packets.reserve(r.bounded_count(np, 4 + kPacketWireHeader));
  for (std::uint32_t i = 0; i < np; ++i) {
    const std::uint32_t n = r.u32();
    const std::size_t at = r.offset();
    r.raw(n);  // bounds-checks the packet before it is sliced
    f.packets.push_back(parse_packet(bytes.slice(at, n)));
  }
  const std::uint32_t ni = r.u32();
  f.index.reserve(r.bounded_count(ni, kIndexEntryWire));
  for (std::uint32_t i = 0; i < ni; ++i) {
    IndexEntry e;
    e.time = {r.i64()};
    e.packet = r.u32();
    f.index.push_back(e);
  }
  return f;
}

}  // namespace lod::media::asf
