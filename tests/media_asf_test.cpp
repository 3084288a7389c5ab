#include "lod/media/asf.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "lod/media/profile.hpp"
#include "lod/media/sources.hpp"
#include "lod/net/rng.hpp"
#include "lod/streaming/encoder.hpp"

namespace lod::media::asf {
namespace {

using net::msec;
using net::sec;
using net::secf;

Header make_header(std::uint32_t packet_bytes = 1400) {
  Header h;
  h.props.title = "Test Lecture";
  h.props.author = "Prof. X";
  h.props.play_duration = sec(10);
  h.props.packet_bytes = packet_bytes;
  h.props.avg_bitrate_bps = 250'000;
  h.streams = {
      {1, MediaType::kVideo, "MPEG-4", 186'000, 320, 240, 0},
      {2, MediaType::kAudio, "WMA", 64'000, 0, 0, 44'100},
  };
  return h;
}

EncodedUnit video_unit(double t, std::uint32_t bytes, bool key) {
  EncodedUnit u;
  u.stream_id = 1;
  u.type = MediaType::kVideo;
  u.pts = secf(t);
  u.duration = msec(66);
  u.bytes = bytes;
  u.keyframe = key;
  return u;
}

EncodedUnit audio_unit(double t, std::uint32_t bytes = 160) {
  EncodedUnit u;
  u.stream_id = 2;
  u.type = MediaType::kAudio;
  u.pts = secf(t);
  u.duration = msec(20);
  u.bytes = bytes;
  u.keyframe = true;
  return u;
}

/// Mux a small synthetic stream: video keyframe every 5 frames, audio blocks,
/// a couple of script commands.
File make_small_file(std::uint32_t packet_bytes = 1400) {
  Muxer mux(make_header(packet_bytes));
  for (int i = 0; i < 30; ++i) {
    mux.add_unit(video_unit(i / 15.0, i % 5 == 0 ? 4000 : 900, i % 5 == 0));
  }
  for (int i = 0; i < 100; ++i) mux.add_unit(audio_unit(i * 0.02));
  mux.add_script({secf(0.0), "SLIDE", "slides/1"});
  mux.add_script({secf(1.0), "SLIDE", "slides/2"});
  mux.add_script({secf(1.5), "ANNOT", "note: remember this"});
  return mux.finalize(sec(1));
}

/// Run every packet of \p f through a demuxer and collect the output.
struct DemuxResult {
  std::vector<DemuxedUnit> units;
  std::vector<ScriptCommand> scripts;
};
DemuxResult demux_all(const File& f) {
  Demuxer d(f.header);
  DemuxResult out;
  for (const auto& p : f.packets) {
    d.feed(p);
    while (auto u = d.next_unit()) out.units.push_back(std::move(*u));
    while (auto s = d.next_script()) out.scripts.push_back(std::move(*s));
  }
  return out;
}

// --- muxing -----------------------------------------------------------------

TEST(Muxer, PacketsRespectFixedSize) {
  const File f = make_small_file(1400);
  ASSERT_FALSE(f.packets.empty());
  for (const auto& p : f.packets) {
    std::uint32_t used = 0;
    for (const auto& pl : p.payloads) {
      used += 23 + static_cast<std::uint32_t>(pl.data.size());
    }
    EXPECT_LE(used + p.pad_bytes, 1400u - 12u);
    EXPECT_EQ(used + p.pad_bytes, 1400u - 12u);
  }
}

TEST(Muxer, SendTimesMonotone) {
  const File f = make_small_file();
  for (std::size_t i = 1; i < f.packets.size(); ++i) {
    EXPECT_GE(f.packets[i].send_time, f.packets[i - 1].send_time);
  }
}

TEST(Muxer, LargeUnitsFragmentAcrossPackets) {
  Muxer mux(make_header(1400));
  mux.add_unit(video_unit(0.0, 10'000, true));  // ~8 packets worth
  const File f = mux.finalize();
  EXPECT_GE(f.packets.size(), 7u);
  // All fragments must share the object and tile it exactly.
  std::uint32_t covered = 0;
  for (const auto& p : f.packets) {
    for (const auto& pl : p.payloads) {
      EXPECT_EQ(pl.object_size, 10'000u);
      covered += static_cast<std::uint32_t>(pl.data.size());
    }
  }
  EXPECT_EQ(covered, 10'000u);
}

TEST(Muxer, SmallUnitsPackTogether) {
  Muxer mux(make_header(1400));
  for (int i = 0; i < 10; ++i) mux.add_unit(audio_unit(i * 0.02, 100));
  const File f = mux.finalize();
  // 10 * (100+23) = 1230 < 1388: everything fits in one packet.
  ASSERT_EQ(f.packets.size(), 1u);
  EXPECT_EQ(f.packets[0].payloads.size(), 10u);
}

TEST(Muxer, InterleavesStreamsByPts) {
  const File f = make_small_file();
  SimDuration last{-1000000};
  for (const auto& p : f.packets) {
    for (const auto& pl : p.payloads) {
      if (pl.offset == 0) {
        EXPECT_GE(pl.pts.us, last.us);
        last = pl.pts;
      }
    }
  }
}

TEST(Muxer, TooSmallPacketSizeRejected) {
  Header h = make_header(64);
  EXPECT_THROW(Muxer{h}, std::invalid_argument);
}

TEST(Muxer, ZeroByteUnitSurvives) {
  Muxer mux(make_header());
  EncodedUnit u = audio_unit(0.0, 0);
  mux.add_unit(u, {});
  const File f = mux.finalize();
  const auto r = demux_all(f);
  ASSERT_EQ(r.units.size(), 1u);
  EXPECT_TRUE(r.units[0].data().empty());
}

TEST(Muxer, ExplicitContentPreserved) {
  Muxer mux(make_header());
  const auto content = pattern_bytes(500, 42);
  EncodedUnit u = video_unit(0.0, 500, true);
  mux.add_unit(u, content);
  const auto r = demux_all(mux.finalize());
  ASSERT_EQ(r.units.size(), 1u);
  EXPECT_EQ(r.units[0].data(), content);
}

// --- demuxing ----------------------------------------------------------------

TEST(Demuxer, RoundTripsAllUnitsAndScripts) {
  const File f = make_small_file();
  const auto r = demux_all(f);
  EXPECT_EQ(r.units.size(), 130u);  // 30 video + 100 audio
  ASSERT_EQ(r.scripts.size(), 3u);
  EXPECT_EQ(r.scripts[0].type, "SLIDE");
  EXPECT_EQ(r.scripts[0].param, "slides/1");
  EXPECT_EQ(r.scripts[1].at, secf(1.0));
  EXPECT_EQ(r.scripts[2].type, "ANNOT");
}

TEST(Demuxer, ReassembledSizesMatchMeta) {
  const auto r = demux_all(make_small_file());
  for (const auto& u : r.units) {
    EXPECT_EQ(u.data().size(), u.meta.bytes);
  }
}

TEST(Demuxer, MissingPacketDropsOnlyAffectedUnits) {
  File f = make_small_file();
  // Remove one mid-file packet to simulate datagram loss.
  const std::size_t victim = f.packets.size() / 2;
  f.packets.erase(f.packets.begin() + static_cast<std::ptrdiff_t>(victim));
  Demuxer d(f.header);
  std::size_t units = 0;
  for (const auto& p : f.packets) {
    d.feed(p);
    while (d.next_unit()) ++units;
    while (d.next_script()) {
    }
  }
  EXPECT_LT(units, 130u);
  EXPECT_GT(units, 100u);  // most of the stream still plays
}

TEST(Demuxer, PtsPreservedThroughMuxDemux) {
  const auto r = demux_all(make_small_file());
  for (const auto& u : r.units) {
    if (u.meta.stream_id == 1) {
      // video frames at i/15s
      const double t = u.meta.pts.seconds();
      const double frames = t * 15.0;
      EXPECT_NEAR(frames, std::round(frames), 1e-3);
    }
  }
}

// --- serialization ---------------------------------------------------------------

TEST(Serialization, FileRoundTrip) {
  const File f = make_small_file();
  const auto bytes = serialize(f);
  const File g = parse(bytes);
  EXPECT_EQ(g.header.props.title, "Test Lecture");
  EXPECT_EQ(g.header.props.author, "Prof. X");
  EXPECT_EQ(g.header.streams.size(), 2u);
  EXPECT_EQ(g.header.streams[0].codec, "MPEG-4");
  ASSERT_EQ(g.packets.size(), f.packets.size());
  for (std::size_t i = 0; i < f.packets.size(); ++i) {
    EXPECT_EQ(g.packets[i].send_time, f.packets[i].send_time);
    ASSERT_EQ(g.packets[i].payloads.size(), f.packets[i].payloads.size());
    for (std::size_t j = 0; j < f.packets[i].payloads.size(); ++j) {
      EXPECT_TRUE(std::ranges::equal(g.packets[i].payloads[j].data.view(),
                                     f.packets[i].payloads[j].data.view()));
      EXPECT_EQ(g.packets[i].payloads[j].pts, f.packets[i].payloads[j].pts);
    }
  }
  ASSERT_EQ(g.index.size(), f.index.size());
}

TEST(Serialization, HeaderRoundTrip) {
  Header h = make_header();
  h.drm.is_protected = true;
  h.drm.key_id = "lecture#1";
  h.drm.license_url = "rpc://license/acquire";
  const Header g = parse_header(serialize_header(h));
  EXPECT_TRUE(g.drm.is_protected);
  EXPECT_EQ(g.drm.key_id, "lecture#1");
  EXPECT_EQ(g.drm.license_url, "rpc://license/acquire");
  EXPECT_EQ(g.props.packet_bytes, 1400u);
}

TEST(Serialization, PacketRoundTrip) {
  const File f = make_small_file();
  const auto& p = f.packets.front();
  const DataPacket q = parse_packet(serialize_packet(p));
  EXPECT_EQ(q.send_time, p.send_time);
  EXPECT_EQ(q.pad_bytes, p.pad_bytes);
  ASSERT_EQ(q.payloads.size(), p.payloads.size());
  EXPECT_TRUE(std::ranges::equal(q.payloads[0].data.view(),
                                 p.payloads[0].data.view()));
}

TEST(Serialization, BadMagicThrows) {
  auto bytes = serialize(make_small_file());
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(parse(bytes), std::runtime_error);
}

TEST(Serialization, TruncatedFileThrows) {
  auto bytes = serialize(make_small_file());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(parse(bytes), std::out_of_range);
}

TEST(Serialization, FindStream) {
  const Header h = make_header();
  ASSERT_NE(h.find_stream(1), nullptr);
  EXPECT_EQ(h.find_stream(1)->codec, "MPEG-4");
  EXPECT_EQ(h.find_stream(99), nullptr);
}

// --- indexing --------------------------------------------------------------------

TEST(Indexing, EntriesCoverDuration) {
  const File f = make_small_file();
  ASSERT_FALSE(f.index.empty());
  EXPECT_EQ(f.index.front().time.us, 0);
  // Entries every second up to the 10 s play duration.
  EXPECT_EQ(f.index.size(), 11u);
}

TEST(Indexing, SeekLandsOnKeyframeStart) {
  const File f = make_small_file();
  const std::uint32_t pkt = seek_packet(f, secf(1.0));
  // The packet we land on must contain a keyframe start at pts <= 1.0 s.
  bool found = false;
  for (const auto& pl : f.packets[pkt].payloads) {
    if (pl.type == MediaType::kVideo && pl.keyframe && pl.offset == 0) {
      EXPECT_LE(pl.pts, secf(1.0));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Indexing, SeekBeyondEndReturnsLastEntry) {
  const File f = make_small_file();
  const std::uint32_t pkt = seek_packet(f, sec(100));
  EXPECT_EQ(pkt, f.index.back().packet);
}

TEST(Indexing, SeekZeroIsStart) {
  const File f = make_small_file();
  EXPECT_EQ(seek_packet(f, {}), 0u);
}

TEST(Indexing, EmptyIndexSeeksToZero) {
  File f = make_small_file();
  f.index.clear();
  EXPECT_EQ(seek_packet(f, sec(3)), 0u);
}

TEST(Indexing, AudioOnlyFileIndexable) {
  Header h = make_header();
  h.streams = {{2, MediaType::kAudio, "WMA", 64'000, 0, 0, 44'100}};
  Muxer mux(h);
  for (int i = 0; i < 500; ++i) mux.add_unit(audio_unit(i * 0.02));
  const File f = mux.finalize(sec(2));
  ASSERT_FALSE(f.index.empty());
  const auto pkt = seek_packet(f, sec(5));
  EXPECT_GT(pkt, 0u);
  EXPECT_LT(pkt, f.packets.size());
}

TEST(Indexing, RebuildWithDifferentGranularity) {
  File f = make_small_file();
  build_index(f, msec(500));
  EXPECT_EQ(f.index.size(), 21u);
  build_index(f, sec(5));
  EXPECT_EQ(f.index.size(), 3u);  // t = 0, 5, 10
}

TEST(File, WireSizeAccountsPacketsAndHeader) {
  const File f = make_small_file();
  const std::size_t ws = f.wire_size();
  EXPECT_GT(ws, f.packets.size() * 1400);
  EXPECT_LT(ws, f.packets.size() * 1400 + 4096);
}

// --- robustness: mutated input must never crash -------------------------------------

class ParseFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParseFuzz, MutatedBytesParseOrThrow) {
  auto bytes = serialize(make_small_file());
  net::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99);
  // Flip a handful of random bytes; the parser must either produce SOME
  // file or throw one of its documented exceptions — never crash or hang.
  for (int flip = 0; flip < 8; ++flip) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[at] = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  try {
    const File f = parse(bytes);
    // If it parsed, demuxing the result must also be safe.
    Demuxer d(f.header);
    for (const auto& p : f.packets) d.feed(p);
    while (d.next_unit()) {
    }
    while (d.next_script()) {
    }
  } catch (const std::out_of_range&) {
  } catch (const std::runtime_error&) {
  } catch (const std::length_error&) {
  } catch (const std::bad_alloc&) {
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseFuzz, ::testing::Range(0, 30));

TEST(ParseFuzzTrunc, EveryTruncationThrowsOrParses) {
  const auto bytes = serialize(make_small_file());
  net::Rng rng(123);
  for (int i = 0; i < 40; ++i) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size())));
    std::vector<std::byte> cut(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      (void)parse(cut);
    } catch (const std::out_of_range&) {
    } catch (const std::runtime_error&) {
    }
  }
}

// --- realistic end-to-end: profile-driven encode & mux -----------------------------

TEST(EndToEnd, EncodeMuxDemuxOneMinuteLecture) {
  const auto profile = *find_profile("Video 250k DSL/cable");
  auto vcodec = make_video_codec(profile.video_codec);
  auto acodec = make_audio_codec(profile.audio_codec);
  vcodec->configure(profile.video_config());
  acodec->configure(profile.audio_config());

  Header h = make_header();
  h.props.play_duration = sec(60);
  Muxer mux(h);

  LectureVideoSource vsrc(sec(60), profile.fps, profile.width, profile.height);
  VideoFrame vf;
  std::uint64_t i = 0;
  while (vsrc.next(vf)) mux.add_unit(vcodec->encode(vf, i++));
  LectureAudioSource asrc(sec(60), profile.audio_sample_rate());
  AudioBlock ab;
  while (asrc.next(ab)) mux.add_unit(acodec->encode(ab));

  const File f = mux.finalize();
  const auto r = demux_all(f);
  EXPECT_EQ(r.units.size(), static_cast<std::size_t>(i) + 60 * 50);

  // The file's average rate should be near the profile's promise.
  const double bits = static_cast<double>(f.wire_size()) * 8.0;
  const double bps = bits / 60.0;
  EXPECT_LT(bps, profile.total_bps * 1.35);  // container overhead bounded
  EXPECT_GT(bps, profile.total_bps * 0.7);
}

// --- the wire form is pinned ---------------------------------------------------

/// FNV-1a 64 over every serialized packet of \p f, each prefixed by its size.
std::uint64_t wire_digest(const File& f) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::byte b) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 1099511628211ull;
  };
  for (const auto& p : f.packets) {
    const auto bytes = serialize_packet(p);
    for (int i = 0; i < 4; ++i) {
      mix(static_cast<std::byte>(bytes.size() >> (8 * i)));
    }
    for (std::byte b : bytes) mix(b);
  }
  return h;
}

/// A 20 s lecture on the 56k dial-up profile with four slide flips, the
/// shape of one lecture of perfbench's catalog; DRM-protected if \p drm.
File encode_56k_lecture(DrmSystem* drm) {
  streaming::EncodeJob job;
  job.profile = *find_profile("Video 56k dial-up");
  job.title = "Wire digest";
  job.preroll = msec(2000);
  job.drm = drm;
  job.protect_content = drm != nullptr;
  const SimDuration len = sec(20);
  LectureVideoSource v(len, job.profile.fps, job.profile.width,
                       job.profile.height, 5);
  LectureAudioSource a(len, job.profile.audio_sample_rate());
  const auto scripts = streaming::slide_flip_commands(
      make_slide_schedule(4, len, 17), "slides/");
  return streaming::encode_lecture(job, v, a, scripts).file;
}

// The bytes every packet puts on the wire, pinned by digest: how the muxer
// holds payload bytes in memory must not change what it sends.
TEST(AsfWire, SerializedPacketsMatchTheCommittedDigest) {
  const File plain = encode_56k_lecture(nullptr);
  DrmSystem drm;
  const File protected_file = encode_56k_lecture(&drm);
  ASSERT_TRUE(protected_file.header.drm.is_protected);
  EXPECT_EQ(plain.packets.size(), protected_file.packets.size());
  EXPECT_EQ(wire_digest(plain), 0xdd0b194a09ef549aull);
  EXPECT_EQ(wire_digest(protected_file), 0x5068f7432be084bdull);
}

}  // namespace
}  // namespace lod::media::asf
