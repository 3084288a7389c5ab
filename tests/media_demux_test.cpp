// The client-side decode path: units demuxed from received packet bytes
// (the player's path) must match units demuxed from in-memory packets, and
// every wire parser of the container must survive hostile element counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "lod/media/asf.hpp"
#include "lod/media/drm.hpp"
#include "lod/net/payload.hpp"

namespace lod::media::asf {
namespace {

using net::msec;
using net::sec;
using net::secf;
using net::SimTime;

Header lecture_header() {
  Header h;
  h.props.title = "Demux";
  h.props.play_duration = sec(4);
  h.props.packet_bytes = 1400;
  h.props.avg_bitrate_bps = 250'000;
  h.streams = {
      {1, MediaType::kVideo, "MPEG-4", 186'000, 320, 240, 0},
      {2, MediaType::kAudio, "WMA", 64'000, 0, 0, 44'100},
  };
  return h;
}

/// Four seconds of video (keyframes of 4000 bytes span three packets) and
/// audio, with slide and annotation script commands.
File lecture(const DrmSystem* drm = nullptr, const KeyId& key = {}) {
  Header h = lecture_header();
  if (drm) {
    h.drm.is_protected = true;
    h.drm.key_id = key;
  }
  Muxer mux(h, drm);
  for (int i = 0; i < 60; ++i) {
    EncodedUnit v;
    v.stream_id = 1;
    v.type = MediaType::kVideo;
    v.pts = secf(i / 15.0);
    v.duration = msec(66);
    v.bytes = i % 5 == 0 ? 4000 : 900;
    v.keyframe = i % 5 == 0;
    mux.add_unit(v);
  }
  for (int i = 0; i < 200; ++i) {
    EncodedUnit a;
    a.stream_id = 2;
    a.type = MediaType::kAudio;
    a.pts = secf(i * 0.02);
    a.duration = msec(20);
    a.bytes = 160;
    a.keyframe = true;
    mux.add_unit(a);
  }
  mux.add_script({secf(0.0), "SLIDE", "slides/1"});
  mux.add_script({secf(2.0), "SLIDE", "slides/2"});
  mux.add_script({secf(2.5), "ANNOT", "note"});
  return mux.finalize(sec(1));
}

struct Decoded {
  /// The serialized packets fed; units completed inside one borrow it.
  std::vector<net::Payload> wire;
  std::vector<DemuxedUnit> units;
  std::vector<ScriptCommand> scripts;
  std::uint64_t dropped_incomplete{0};
  bool undecryptable{false};
};

/// Demux \p packets, fed either as in-memory packets or as the serialized
/// bytes a player receives.
Decoded demux(const File& f, const std::vector<DataPacket>& packets,
              bool from_bytes, const DrmSystem* drm = nullptr,
              const std::optional<License>& lic = std::nullopt) {
  Demuxer d(f.header);
  if (lic) d.set_license(drm, *lic, "alice");
  Decoded out;
  for (const auto& p : packets) {
    if (from_bytes) {
      d.feed(out.wire.emplace_back(serialize_packet(p)));
    } else {
      d.feed(p);
    }
    while (auto u = d.next_unit()) out.units.push_back(std::move(*u));
    while (auto s = d.next_script()) out.scripts.push_back(std::move(*s));
  }
  out.dropped_incomplete = d.dropped_incomplete();
  out.undecryptable = d.undecryptable();
  return out;
}

void expect_same(const Decoded& a, const Decoded& b) {
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    const EncodedUnit& x = a.units[i].meta;
    const EncodedUnit& y = b.units[i].meta;
    EXPECT_EQ(x.stream_id, y.stream_id) << i;
    EXPECT_EQ(x.type, y.type) << i;
    EXPECT_EQ(x.pts, y.pts) << i;
    EXPECT_EQ(x.duration, y.duration) << i;
    EXPECT_EQ(x.bytes, y.bytes) << i;
    EXPECT_EQ(x.keyframe, y.keyframe) << i;
    EXPECT_EQ(x.quality, y.quality) << i;
    EXPECT_EQ(a.units[i].data(), b.units[i].data()) << i;
  }
  EXPECT_EQ(a.scripts, b.scripts);
  EXPECT_EQ(a.dropped_incomplete, b.dropped_incomplete);
  EXPECT_EQ(a.undecryptable, b.undecryptable);
}

void expect_bytes_path_matches(
    const File& f, const std::vector<DataPacket>& packets,
    const DrmSystem* drm = nullptr,
    const std::optional<License>& lic = std::nullopt) {
  expect_same(demux(f, packets, /*from_bytes=*/true, drm, lic),
              demux(f, packets, /*from_bytes=*/false, drm, lic));
}

TEST(DemuxPaths, PlainLectureWithScriptsAndFragmentedUnits) {
  const File f = lecture();
  // The fixture really does fragment: some payload is a unit's tail.
  bool fragmented = false;
  for (const auto& p : f.packets) {
    for (const auto& pl : p.payloads) fragmented |= pl.offset > 0;
  }
  ASSERT_TRUE(fragmented);
  const Decoded d = demux(f, f.packets, /*from_bytes=*/true);
  EXPECT_EQ(d.units.size(), 260u);
  EXPECT_EQ(d.scripts.size(), 3u);
  expect_bytes_path_matches(f, f.packets);
}

TEST(DemuxPaths, UnitsSpanningPacketsOutliveThePacketsTheyCameIn) {
  // Each packet is dropped right after it is fed: the 4000-byte keyframes,
  // split over three packets each, must keep the bytes they need.
  const File f = lecture();
  const Decoded ref = demux(f, f.packets, /*from_bytes=*/false);
  Demuxer d(f.header);
  std::vector<DemuxedUnit> kept;
  std::vector<std::size_t> at;
  std::size_t n = 0;
  for (const auto& p : f.packets) {
    d.feed(net::Payload{serialize_packet(p)});
    while (auto u = d.next_unit()) {
      if (u->meta.bytes > f.header.props.packet_bytes) {
        kept.push_back(std::move(*u));
        at.push_back(n);
      }
      ++n;
    }
  }
  ASSERT_EQ(n, ref.units.size());
  ASSERT_EQ(kept.size(), 12u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].data(), ref.units[at[i]].data()) << i;
  }
}

TEST(DemuxPaths, DroppedPacketsDropTheSameUnits) {
  const File f = lecture();
  std::vector<DataPacket> lossy;
  for (std::size_t i = 0; i < f.packets.size(); ++i) {
    if (i % 7 != 3) lossy.push_back(f.packets[i]);
  }
  const Decoded d = demux(f, lossy, /*from_bytes=*/true);
  EXPECT_GT(d.dropped_incomplete, 0u);
  EXPECT_LT(d.units.size(), 260u);
  expect_bytes_path_matches(f, lossy);
}

TEST(DemuxPaths, ProtectedLectureWithLicenseDecrypts) {
  DrmSystem drm;
  const KeyId key = drm.create_key("lecture");
  const File f = lecture(&drm, key);
  const auto lic = drm.issue_license(key, "alice", SimTime::max());
  ASSERT_TRUE(lic);
  const Decoded d = demux(f, f.packets, /*from_bytes=*/true, &drm, lic);
  EXPECT_FALSE(d.undecryptable);
  // The plaintext is the muxer's pattern content, not the ciphertext.
  const File pf = lecture();
  const Decoded plain = demux(pf, pf.packets, /*from_bytes=*/true);
  ASSERT_EQ(d.units.size(), plain.units.size());
  EXPECT_EQ(d.units[5].data(), plain.units[5].data());
  expect_bytes_path_matches(f, f.packets, &drm, lic);
}

TEST(DemuxPaths, ProtectedLectureWithoutLicenseStaysEncrypted) {
  DrmSystem drm;
  const KeyId key = drm.create_key("lecture");
  const File f = lecture(&drm, key);
  const Decoded d = demux(f, f.packets, /*from_bytes=*/true);
  EXPECT_TRUE(d.undecryptable);
  EXPECT_EQ(d.scripts.size(), 3u);  // the script stream is never encrypted
  expect_bytes_path_matches(f, f.packets);
}

TEST(DemuxPaths, BytesPathCopiesNoMediaUntilRead) {
  const File f = lecture();
  std::vector<net::Payload> wire;
  for (const auto& p : f.packets) wire.emplace_back(serialize_packet(p));
  Demuxer d(f.header);
  net::Payload::reset_stats();
  std::size_t units = 0;
  std::uint64_t bytes = 0;
  for (const auto& w : wire) {
    d.feed(w);
    while (auto u = d.next_unit()) {
      ++units;
      bytes += u->meta.bytes;
    }
    while (d.next_script()) {
    }
  }
  EXPECT_EQ(units, 260u);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(net::Payload::stats().bytes_copied, 0u);
  EXPECT_EQ(net::Payload::stats().copies, 0u);
}

// --- one copy of the media bytes ------------------------------------------------

TEST(AsfPayloadSharing, MuxingAndCopyingAFileCopyNoBytes) {
  net::Payload::reset_stats();
  const File f = lecture();
  EXPECT_EQ(net::Payload::stats().bytes_copied, 0u);
  EXPECT_EQ(net::Payload::stats().copies, 0u);
  // One adopted body per unit: 260 media units and 3 script commands.
  EXPECT_EQ(net::Payload::stats().adopts, 263u);

  std::vector<long> before;
  for (const auto& p : f.packets) {
    for (const auto& pl : p.payloads) before.push_back(pl.data.owners());
  }
  const File g = f;  // the copy under test
  EXPECT_EQ(net::Payload::stats().bytes_copied, 0u);
  EXPECT_EQ(net::Payload::stats().copies, 0u);
  std::size_t k = 0;
  for (std::size_t i = 0; i < f.packets.size(); ++i) {
    for (std::size_t j = 0; j < f.packets[i].payloads.size(); ++j, ++k) {
      const net::Payload& mine = f.packets[i].payloads[j].data;
      const net::Payload& copy = g.packets[i].payloads[j].data;
      EXPECT_EQ(copy.data(), mine.data());
      EXPECT_EQ(copy.owners(), 2 * before[k]);
    }
  }
}

TEST(AsfPayloadSharing, FragmentsOfAUnitShareOneBody) {
  Muxer mux(lecture_header());
  EncodedUnit v;
  v.stream_id = 1;
  v.type = MediaType::kVideo;
  v.bytes = 10'000;
  v.keyframe = true;
  mux.add_unit(v);
  const File f = mux.finalize();
  std::vector<const Payload*> frags;
  for (const auto& p : f.packets) {
    for (const auto& pl : p.payloads) frags.push_back(&pl);
  }
  ASSERT_GE(frags.size(), 7u);
  const std::byte* base = frags.front()->data.data();
  for (const Payload* pl : frags) {
    EXPECT_EQ(pl->data.owners(), static_cast<long>(frags.size()));
    EXPECT_EQ(pl->data.data(), base + pl->offset);
  }
}

TEST(AsfPayloadSharing, ParsePacketAndFeedCopyNoBytes) {
  const File f = lecture();
  std::vector<net::Payload> wire;
  for (const auto& p : f.packets) wire.emplace_back(serialize_packet(p));
  net::Payload::reset_stats();
  for (const net::Payload& w : wire) {
    const DataPacket q = parse_packet(w);
    for (const auto& pl : q.payloads) {
      EXPECT_GE(pl.data.data(), w.data());
      EXPECT_LE(pl.data.data() + pl.data.size(), w.data() + w.size());
    }
    if (!q.payloads.empty()) {
      EXPECT_EQ(w.owners(), 1 + static_cast<long>(q.payloads.size()));
    }
  }
  Demuxer d(f.header);
  std::size_t units = 0;
  for (const auto& p : f.packets) {
    d.feed(p);
    while (d.next_unit()) ++units;
    while (d.next_script()) {
    }
  }
  EXPECT_EQ(units, 260u);
  EXPECT_EQ(net::Payload::stats().bytes_copied, 0u);
  EXPECT_EQ(net::Payload::stats().copies, 0u);
}

void put_u32(std::vector<std::byte>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::byte>(v >> (8 * i));
}

/// \p bytes must throw \p E from every entry point, and feed nothing.
template <typename E>
void expect_rejected(const std::vector<std::byte>& bytes,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_THROW(PacketDecoder{bytes}, E);
  EXPECT_THROW(parse_packet(bytes), E);
  Demuxer d(lecture_header());
  EXPECT_THROW(d.feed(net::Payload{bytes}), E);
  EXPECT_FALSE(d.next_unit().has_value());
  EXPECT_FALSE(d.next_script().has_value());
  EXPECT_EQ(d.dropped_incomplete(), 0u);
}

TEST(DemuxPaths, MalformedPacketIsRejectedBeforeAnythingIsFed) {
  const File f = lecture();
  Demuxer d(f.header);
  // Truncate a packet whose first payload is a whole unit inside its last
  // payload: the whole unit must not be fed either.
  const auto it = std::find_if(
      f.packets.begin(), f.packets.end(), [](const DataPacket& p) {
        const Payload& first = p.payloads.front();
        return p.payloads.size() >= 2 && first.offset == 0 &&
               first.data.size() == first.object_size;
      });
  ASSERT_NE(it, f.packets.end());
  auto bytes = serialize_packet(*it);
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(d.feed(net::Payload{std::move(bytes)}), std::out_of_range);
  EXPECT_FALSE(d.next_unit().has_value());
  EXPECT_FALSE(d.next_script().has_value());
  EXPECT_EQ(d.dropped_incomplete(), 0u);

  // Hostile rows, all on that multi-payload packet. Payload i's header
  // starts at `at[i]`; its data length is the header's last field.
  const std::vector<std::byte> good = serialize_packet(*it);
  std::vector<std::size_t> at{20};
  for (const Payload& pl : it->payloads) {
    at.push_back(at.back() + 36 + pl.data.size());
  }
  ASSERT_EQ(at.back(), good.size());
  const std::size_t last = it->payloads.size() - 1;
  const std::size_t len_at = at[last] + 32;

  // Every truncation point.
  for (std::size_t n = 0; n < good.size(); ++n) {
    const std::vector<std::byte> cut(good.begin(), good.begin() + n);
    expect_rejected<std::out_of_range>(cut, "cut at " + std::to_string(n));
  }
  // A payload length that runs one byte past the end.
  auto past = good;
  put_u32(past, len_at,
          static_cast<std::uint32_t>(it->payloads[last].data.size() + 1));
  expect_rejected<std::out_of_range>(past, "length past the end");
  // Lengths near UINT32_MAX, where offset + length wraps in 32 bits.
  const std::uint32_t max = 0xFFFFFFFFu;
  for (const std::uint32_t n :
       {max, max - 35u, max - static_cast<std::uint32_t>(at[last])}) {
    const std::string what = "length " + std::to_string(n);
    auto wrap = good;
    put_u32(wrap, len_at, n);
    expect_rejected<std::out_of_range>(wrap, "last payload's " + what);
    auto first = good;
    put_u32(first, at[0] + 32, n);
    expect_rejected<std::out_of_range>(first, "first payload's " + what);
  }
  // A payload count one larger than the payloads present.
  auto count = good;
  put_u32(count, 16, static_cast<std::uint32_t>(it->payloads.size() + 1));
  expect_rejected<std::out_of_range>(count, "count + 1");
}

TEST(PacketCodec, WriterAndSizeAgreeWithSerialize) {
  const File f = lecture();
  for (const auto& p : f.packets) {
    const auto bytes = serialize_packet(p);
    EXPECT_EQ(packet_wire_size(p), bytes.size());
    net::ByteWriter w;
    write_packet(w, p);
    EXPECT_EQ(w.bytes(), bytes);
  }
}

TEST(PacketCodec, DecoderYieldsViewsIntoThePacket) {
  const File f = lecture();
  const DataPacket& p = f.packets.front();
  const auto bytes = serialize_packet(p);
  PacketDecoder dec(bytes);
  EXPECT_EQ(dec.send_time(), p.send_time);
  EXPECT_EQ(dec.pad_bytes(), p.pad_bytes);
  ASSERT_EQ(dec.payload_count(), p.payloads.size());
  PayloadView v;
  for (const auto& pl : p.payloads) {
    ASSERT_TRUE(dec.next(v));
    EXPECT_EQ(v.object_id, pl.object_id);
    EXPECT_EQ(v.offset, pl.offset);
    const auto want = pl.data.view();
    EXPECT_TRUE(std::equal(v.data.begin(), v.data.end(), want.begin(),
                           want.end()));
    EXPECT_GE(v.data.data(), bytes.data());
    EXPECT_LE(v.data.data() + v.data.size(), bytes.data() + bytes.size());
  }
  EXPECT_FALSE(dec.next(v));
}

// --- hostile element counts ---------------------------------------------------------

constexpr std::uint32_t kHostile = 0xFFFFFFFF;

TEST(HostileCounts, DataPacketPayloadCount) {
  // 20 bytes: magic, send time, padding and a payload count of 2^32 - 1.
  DataPacket empty;
  auto bytes = serialize_packet(empty);
  ASSERT_EQ(bytes.size(), 20u);
  put_u32(bytes, 16, kHostile);
  EXPECT_THROW(parse_packet(bytes), std::out_of_range);
  EXPECT_THROW(PacketDecoder{bytes}, std::out_of_range);
  Demuxer d(lecture_header());
  EXPECT_THROW(d.feed(net::Payload{bytes}), std::out_of_range);
}

TEST(HostileCounts, HeaderStreamCount) {
  Header h = lecture_header();
  h.streams.clear();
  auto bytes = serialize_header(h);
  put_u32(bytes, bytes.size() - 4, kHostile);  // stream count is last
  EXPECT_THROW(parse_header(bytes), std::out_of_range);
}

TEST(HostileCounts, FilePacketAndIndexCounts) {
  File f;
  f.header = lecture_header();
  const auto bytes = serialize(f);  // no packets, no index
  // Layout tail: ..., u32 packet count, u32 index count.
  auto packets = bytes;
  put_u32(packets, packets.size() - 8, kHostile);
  EXPECT_THROW(parse(packets), std::out_of_range);
  auto index = bytes;
  put_u32(index, index.size() - 4, kHostile);
  EXPECT_THROW(parse(index), std::out_of_range);
}

}  // namespace
}  // namespace lod::media::asf
