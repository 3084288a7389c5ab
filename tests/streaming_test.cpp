#include "lod/net/network.hpp"
#include "lod/streaming/player.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "lod/obs/hub.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/server.hpp"

namespace lod::streaming {
namespace {

using media::asf::ScriptCommand;
using net::msec;
using net::sec;
using net::secf;
using net::SimDuration;
using net::SimTime;

/// A small campus: server + web host and one client behind a LAN link.
struct StreamFixture : ::testing::Test {
  StreamFixture() : network(sim, 1234) {
    server_host = network.add_host("server");
    client_host = network.add_host("client");
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    network.add_link(server_host, client_host, lan);

    server = std::make_unique<StreamingServer>(network, server_host);
    web = std::make_unique<net::RpcServer>(network, server_host,
                                           proto::kWebPort);
  }

  /// Serve every /slides/N path with a blob of the given size.
  void serve_slides(std::uint32_t count, std::uint32_t bytes = 30'000) {
    for (std::uint32_t i = 0; i < count; ++i) {
      web->route("/slides/" + std::to_string(i),
                 [bytes](std::string_view, std::span<const std::byte>) {
                   return std::make_pair(
                       200, media::asf::pattern_bytes(bytes, 1));
                 });
    }
  }

  EncodeJob default_job() {
    EncodeJob job;
    job.profile = *media::find_profile("Video 250k DSL/cable");
    job.title = "Lecture 1";
    job.author = "Prof";
    job.preroll = msec(2000);
    return job;
  }

  /// Encode a lecture of the given length with slide flips every ~10 s.
  EncodeResult encode(SimDuration len, const EncodeJob& job,
                      std::uint32_t slides = 0) {
    media::LectureVideoSource v(len, job.profile.fps, job.profile.width,
                                job.profile.height, 7);
    media::LectureAudioSource a(len, job.profile.audio_sample_rate());
    std::vector<ScriptCommand> scripts;
    if (slides > 0) {
      const auto times = media::make_slide_schedule(slides, len, 17);
      scripts = slide_flip_commands(times, "slides/");
    }
    return encode_lecture(job, v, a, scripts);
  }

  PlayerConfig player_cfg(SyncModel model, net::Port base = 5000) {
    PlayerConfig cfg;
    cfg.model = model;
    cfg.ctl_port = base;
    cfg.data_port = static_cast<net::Port>(base + 1);
    cfg.web_server = server_host;
    return cfg;
  }

  net::Simulator sim;
  net::Network network;
  net::HostId server_host{}, client_host{};
  std::unique_ptr<StreamingServer> server;
  std::unique_ptr<net::RpcServer> web;
};

// --- encoder: stored path ---------------------------------------------------------

TEST_F(StreamFixture, EncodeProducesPlayableFile) {
  const auto job = default_job();
  const auto enc = encode(sec(30), job);
  EXPECT_TRUE(enc.key_id.empty());
  EXPECT_GT(enc.file.packets.size(), 100u);
  EXPECT_FALSE(enc.file.index.empty());
  EXPECT_EQ(enc.file.header.props.title, "Lecture 1");
  ASSERT_EQ(enc.file.header.streams.size(), 2u);
  EXPECT_EQ(enc.file.header.streams[0].type, media::MediaType::kVideo);

  // Bit-rate sanity: the file fits its profile's promise (+ overhead).
  const double bps = static_cast<double>(enc.file.wire_size()) * 8.0 / 30.0;
  EXPECT_LT(bps, job.profile.total_bps * 1.4);
}

TEST_F(StreamFixture, EncodeAudioOnlyProfile) {
  EncodeJob job = default_job();
  job.profile = *media::find_profile("Audio 28.8k (voice)");
  const auto enc = encode(sec(10), job);
  ASSERT_EQ(enc.file.header.streams.size(), 1u);
  EXPECT_EQ(enc.file.header.streams[0].type, media::MediaType::kAudio);
  EXPECT_GT(enc.file.packets.size(), 0u);
}

TEST_F(StreamFixture, EncodeWithDrmProtects) {
  media::DrmSystem drm;
  EncodeJob job = default_job();
  job.drm = &drm;
  job.protect_content = true;
  const auto enc = encode(sec(5), job);
  EXPECT_FALSE(enc.key_id.empty());
  EXPECT_TRUE(enc.file.header.drm.is_protected);
  EXPECT_EQ(enc.file.header.drm.key_id, enc.key_id);
}

TEST_F(StreamFixture, ScriptHelpersProduceOrderedCommands) {
  const auto times = media::make_slide_schedule(5, sec(100));
  const auto cmds = slide_flip_commands(times, "slides/");
  ASSERT_EQ(cmds.size(), 5u);
  EXPECT_EQ(cmds[0].type, "SLIDE");
  EXPECT_EQ(cmds[0].param, "slides/0");
  EXPECT_EQ(cmds[4].param, "slides/4");

  const auto notes = media::make_annotations(3, times, sec(100));
  const auto acmds = annotation_commands(notes);
  ASSERT_EQ(acmds.size(), 3u);
  EXPECT_EQ(acmds[0].type, "ANNOT");
}

// --- server + player: on-demand playback -------------------------------------------

TEST_F(StreamFixture, EndToEndPlaybackRendersEverything) {
  const auto enc = encode(sec(20), default_job());
  const std::size_t total_units = [&] {
    std::size_t n = 0;
    media::asf::Demuxer d(enc.file.header);
    for (const auto& p : enc.file.packets) {
      d.feed(p);
      while (d.next_unit()) ++n;
    }
    return n;
  }();
  server->publish("lec", enc.file);

  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();

  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.units_rendered(), total_units);
  EXPECT_TRUE(p.stalls().empty());
  EXPECT_EQ(p.units_lost(), 0u);
  EXPECT_GT(p.startup_delay().us, 0);
  EXPECT_LT(p.startup_delay().us, sec(3).us);
}

TEST_F(StreamFixture, RenderTimesMatchPts) {
  const auto enc = encode(sec(10), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_TRUE(p.finished());
  // Once rendering starts, (true_time - pts) must be constant (no drift):
  const auto& r = p.rendered();
  ASSERT_GT(r.size(), 100u);
  const std::int64_t expect = r.front().true_time.us - r.front().pts.us;
  for (const auto& e : r) {
    EXPECT_NEAR(static_cast<double>(e.true_time.us - e.pts.us),
                static_cast<double>(expect), 1000.0);  // 1 ms scheduling slop
  }
}

TEST_F(StreamFixture, DescribeUnknownContentLeavesPlayerIdle) {
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "ghost");
  sim.run();
  EXPECT_FALSE(p.playing());
  EXPECT_EQ(p.units_rendered(), 0u);
}

TEST_F(StreamFixture, PlayFromOffsetSkipsEarlyMedia) {
  const auto enc = encode(sec(30), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec", sec(20));
  sim.run();
  ASSERT_TRUE(p.finished());
  ASSERT_FALSE(p.rendered().empty());
  EXPECT_GE(p.rendered().front().pts, sec(20));
  // Only ~10 s of media rendered.
  EXPECT_LT(p.rendered().size(), 800u);
}

TEST_F(StreamFixture, ServerTracksSessions) {
  const auto enc = encode(sec(5), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(2).us});
  EXPECT_EQ(server->active_sessions(), 1u);
  EXPECT_GT(server->metrics().packets_sent(), 0u);
  sim.run();
  p.stop();
  sim.run();
  EXPECT_EQ(server->active_sessions(), 0u);
}

TEST_F(StreamFixture, LossyLinkLosesUnitsButPlaybackSurvives) {
  net::LinkConfig lossy;
  lossy.bandwidth_bps = 10'000'000;
  lossy.latency = msec(2);
  lossy.loss_rate = 0.05;
  network.set_link_config(server_host, client_host, lossy);

  const auto enc = encode(sec(20), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  EXPECT_TRUE(p.finished());
  EXPECT_GT(p.units_lost(), 0u);
  // 20 s at 15 fps + 5 audio superframes/s ~= 400 units when lossless.
  EXPECT_GT(p.units_rendered(), 300u);  // most of the stream still played
}

TEST_F(StreamFixture, ThinLinkCausesStallsForOcpn) {
  // 200 kb/s link carrying a 250 kb/s profile: must rebuffer repeatedly.
  net::LinkConfig thin;
  thin.bandwidth_bps = 200'000;
  thin.latency = msec(5);
  network.set_link_config(server_host, client_host, thin);
  network.set_link_config(client_host, server_host, thin);

  const auto enc = encode(sec(20), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kOcpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  EXPECT_TRUE(p.finished());
  EXPECT_FALSE(p.stalls().empty());
}

TEST_F(StreamFixture, SelectiveRepairRecoversAllLosses) {
  net::LinkConfig lossy;
  lossy.bandwidth_bps = 10'000'000;
  lossy.latency = msec(2);
  lossy.loss_rate = 0.05;
  network.set_link_config(server_host, client_host, lossy);

  const auto enc = encode(sec(20), default_job());
  const std::size_t total_units = [&] {
    std::size_t n = 0;
    media::asf::Demuxer d(enc.file.header);
    for (const auto& p : enc.file.packets) {
      d.feed(p);
      while (d.next_unit()) ++n;
    }
    return n;
  }();
  server->publish("lec", enc.file);

  auto cfg = player_cfg(SyncModel::kEtpn);
  cfg.repair_losses = true;
  Player p(network, client_host, cfg);
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_TRUE(p.finished());
  EXPECT_GT(p.repairs_requested(), 0u);
  EXPECT_GT(p.repairs_received(), 0u);
  // With NACK repair on a 5% lossy link, every unit should render (repairs
  // land well within the 2 s preroll).
  EXPECT_EQ(p.units_rendered(), total_units);
  EXPECT_TRUE(p.stalls().empty());
}

TEST_F(StreamFixture, WithoutRepairLossesStayLost) {
  net::LinkConfig lossy;
  lossy.bandwidth_bps = 10'000'000;
  lossy.latency = msec(2);
  lossy.loss_rate = 0.05;
  network.set_link_config(server_host, client_host, lossy);
  const auto enc = encode(sec(20), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_TRUE(p.finished());
  EXPECT_GT(p.units_lost(), 0u);
  EXPECT_EQ(p.repairs_requested(), 0u);
}

TEST_F(StreamFixture, RepairGivesUpWhenRepairsAlsoDie) {
  // Brutal 30% loss: some NACKs and repairs die too; the hole timer must
  // keep playback moving instead of blocking on a packet that never comes.
  net::LinkConfig brutal;
  brutal.bandwidth_bps = 10'000'000;
  brutal.latency = msec(2);
  brutal.loss_rate = 0.30;
  network.set_link_config(server_host, client_host, brutal);
  network.set_link_config(client_host, server_host, brutal);
  const auto enc = encode(sec(10), default_job());
  server->publish("lec", enc.file);
  auto cfg = player_cfg(SyncModel::kEtpn);
  cfg.repair_losses = true;
  Player p(network, client_host, cfg);
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(120).us});
  EXPECT_TRUE(p.finished());
  EXPECT_GT(p.units_rendered(), 100u);
}

TEST_F(StreamFixture, RepairSurvivesSeek) {
  net::LinkConfig lossy;
  lossy.bandwidth_bps = 10'000'000;
  lossy.latency = msec(2);
  lossy.loss_rate = 0.05;
  network.set_link_config(server_host, client_host, lossy);
  const auto enc = encode(sec(40), default_job());
  server->publish("lec", enc.file);
  auto cfg = player_cfg(SyncModel::kEtpn);
  cfg.repair_losses = true;
  Player p(network, client_host, cfg);
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(5).us});
  p.seek(sec(30));
  sim.run();
  ASSERT_TRUE(p.finished());
  ASSERT_FALSE(p.rendered().empty());
  EXPECT_GT(p.rendered().back().pts, sec(39));
}

// --- script commands / slides ---------------------------------------------------------

TEST_F(StreamFixture, SlidesFlipNearTheirScheduledTimes) {
  serve_slides(6);
  const auto enc = encode(sec(60), default_job(), 6);
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_TRUE(p.finished());
  ASSERT_EQ(p.slides().size(), 6u);
  // Every slide appeared within 150 ms of its scheduled media time
  // (render offset + RPC fetch).
  const auto& r = p.rendered();
  const std::int64_t render_offset = r.front().true_time.us - r.front().pts.us;
  for (const auto& s : p.slides()) {
    const std::int64_t shown_media =
        s.shown_true.us - render_offset;
    EXPECT_NEAR(static_cast<double>(shown_media - s.pts.us), 0.0, 150'000.0)
        << "slide " << s.url;
    EXPECT_GT(s.fetch_latency.us, 0);
  }
}

TEST_F(StreamFixture, AnnotationsSurfaceInOrder) {
  const auto times = media::make_slide_schedule(4, sec(40));
  auto scripts = slide_flip_commands(times, "slides/");
  const auto notes = media::make_annotations(5, times, sec(40));
  const auto acmds = annotation_commands(notes);
  scripts.insert(scripts.end(), acmds.begin(), acmds.end());

  EncodeJob job = default_job();
  media::LectureVideoSource v(sec(40), job.profile.fps, job.profile.width,
                              job.profile.height);
  media::LectureAudioSource a(sec(40), job.profile.audio_sample_rate());
  auto enc = encode_lecture(job, v, a, scripts);
  server->publish("lec", enc.file);
  serve_slides(4);

  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_EQ(p.annotations().size(), 5u);
  for (std::size_t i = 1; i < p.annotations().size(); ++i) {
    EXPECT_GE(p.annotations()[i].pts, p.annotations()[i - 1].pts);
  }
}

// --- user interactions (the paper's C2 claim) -------------------------------------------

TEST_F(StreamFixture, EtpnPauseResumeKeepsPosition) {
  const auto enc = encode(sec(20), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(8).us});
  ASSERT_TRUE(p.playing());
  const SimDuration pos = p.position();
  p.pause();
  sim.run_until(SimTime{sec(30).us});
  EXPECT_TRUE(p.paused_state());
  EXPECT_EQ(p.position(), pos);
  p.resume();
  sim.run();
  EXPECT_TRUE(p.finished());
  // No duplicate rendering: each pts rendered once.
  std::set<std::pair<std::int64_t, int>> seen;
  for (const auto& e : p.rendered()) {
    EXPECT_TRUE(seen.insert({e.pts.us, e.stream_id}).second)
        << "pts " << e.pts.us << " rendered twice";
  }
}

TEST_F(StreamFixture, EtpnSeekIsFast) {
  const auto enc = encode(sec(60), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(5).us});
  p.seek(sec(45));
  sim.run();
  ASSERT_TRUE(p.finished());
  ASSERT_EQ(p.interactions().size(), 1u);
  const auto& ir = p.interactions()[0];
  ASSERT_TRUE(ir.satisfied);
  // Resync within a couple of prerolls, NOT proportional to the target.
  EXPECT_LT(ir.resync_latency().us, sec(4).us);
}

TEST_F(StreamFixture, OcpnSeekRestartsFromTop) {
  const auto enc = encode(sec(60), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kOcpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(5).us});
  p.seek(sec(45));
  sim.run();
  ASSERT_TRUE(p.finished());
  ASSERT_EQ(p.interactions().size(), 1u);
  const auto& ir = p.interactions()[0];
  ASSERT_TRUE(ir.satisfied);
  // The pre-orchestrated model must replay 45 s of schedule (minus the
  // preroll burst): resync latency is proportional to the seek target.
  EXPECT_GT(ir.resync_latency().us, sec(30).us);
}

TEST_F(StreamFixture, EtpnBeatsOcpnOnResume) {
  const auto enc = encode(sec(40), default_job());
  server->publish("lec", enc.file);

  auto measure = [&](SyncModel model, net::Port base) {
    Player p(network, client_host, player_cfg(model, base));
    p.open_and_play(server_host, "lec");
    sim.run_until(SimTime{sim.now().us + sec(10).us});
    p.pause();
    sim.run_until(SimTime{sim.now().us + sec(5).us});
    p.resume();
    const SimTime resumed_at = sim.now();
    sim.run();
    SimDuration latency{net::SimTime::max().us};
    for (const auto& ir : p.interactions()) {
      if (ir.kind == InteractionRecord::Kind::kResume && ir.satisfied) {
        latency = ir.first_render_after - resumed_at;
      }
    }
    return latency;
  };

  const auto etpn = measure(SyncModel::kEtpn, 5000);
  const auto ocpn = measure(SyncModel::kOcpn, 6000);
  EXPECT_LT(etpn.us, msec(500).us);
  EXPECT_GT(ocpn.us, sec(5).us);
  EXPECT_GT(ocpn.us, etpn.us * 10);
}

TEST_F(StreamFixture, EtpnDoubleSpeedHalvesWallTime) {
  const auto enc = encode(sec(30), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(5).us});
  ASSERT_TRUE(p.playing());
  p.set_rate(2.0);
  sim.run();
  ASSERT_TRUE(p.finished());
  // ~5 s at 1x + ~25 s of media at 2x + preroll ~= 20 s wall, not 33.
  EXPECT_LT(sim.now().us, sec(23).us);
  EXPECT_TRUE(p.stalls().empty());  // the server re-paced to keep up
  // All media still rendered, media timeline intact.
  EXPECT_GT(p.rendered().back().pts, sec(29));
}

TEST_F(StreamFixture, EtpnSlowMotion) {
  const auto enc = encode(sec(10), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(2).us});
  p.set_rate(0.5);
  sim.run();
  ASSERT_TRUE(p.finished());
  // 2 s at 1x + 8 s of media at 0.5x = ~18 s wall.
  EXPECT_GT(sim.now().us, sec(16).us);
  EXPECT_TRUE(p.stalls().empty());
}

/// Forwards everything to \p inner and stamps each data datagram sent to
/// the client's data port: the server's pacing instants as the wire sees
/// them.
struct SendStamps final : net::Transport {
  SendStamps(net::Transport& inner, net::Port data_port)
      : inner(inner), data_port(data_port) {}

  obs::Hub& obs() override { return inner.obs(); }
  SimTime now() const override { return inner.now(); }
  net::EventId schedule_at(SimTime t, TimerFn fn) override {
    return inner.schedule_at(t, std::move(fn));
  }
  bool cancel(net::EventId id) override { return inner.cancel(id); }
  net::HostClock& clock(net::HostId h) override { return inner.clock(h); }
  SimTime local_now(net::HostId h) const override { return inner.local_now(h); }
  std::string endpoint_name(net::HostId h) const override {
    return inner.endpoint_name(h);
  }
  std::optional<net::HostId> find_endpoint(
      std::string_view name) const override {
    return inner.find_endpoint(name);
  }
  void bind(net::HostId h, net::Port port, Receiver r) override {
    inner.bind(h, port, std::move(r));
  }
  void unbind(net::HostId h, net::Port port) override {
    inner.unbind(h, port);
  }
  bool send(net::Datagram d) override {
    if (d.dst_port == data_port) stamps.push_back(inner.now().us);
    return inner.send(std::move(d));
  }
  std::int64_t channel_rate_bps(net::ChannelId id) const override {
    return inner.channel_rate_bps(id);
  }

  net::Transport& inner;
  net::Port data_port;
  std::vector<std::int64_t> stamps;
};

/// FNV-1a over a sequence of 64-bit values.
std::uint64_t digest(const std::vector<std::int64_t>& values) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::int64_t v : values) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v) >> (8 * i) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Pins the render clock and the server's pacer through every rate path to
// the microsecond: a rate change, pause/resume, seek, a slow-motion rate and
// a stall. The existing rate tests bound only total wall time.
TEST_F(StreamFixture, EtpnRatePathIsExactToTheMicrosecond) {
  const auto enc = encode(sec(40), default_job());
  const PlayerConfig cfg = player_cfg(SyncModel::kEtpn);
  SendStamps tap(network, cfg.data_port);
  server.reset();  // its destructor unbinds the ports the new one binds
  server = std::make_unique<StreamingServer>(tap, server_host);
  server->publish("lec", enc.file);
  Player p(network, client_host, cfg);
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{5'000'333});
  p.set_rate(1.5);
  sim.run_until(SimTime{9'000'777});
  p.pause();
  sim.run_until(SimTime{11'000'001});
  p.resume();
  sim.run_until(SimTime{14'000'500});
  p.seek(sec(25));
  sim.run_until(SimTime{18'000'999});
  p.set_rate(0.75);
  sim.run_until(SimTime{21'000'000});
  // From here every datagram takes 6 s: the buffer runs dry and the render
  // clock shifts by how late the next unit lands.
  net::LinkConfig slow;
  slow.bandwidth_bps = 10'000'000;
  slow.latency = sec(6);
  network.set_link_config(server_host, client_host, slow);
  sim.run();

  ASSERT_TRUE(p.finished());
  EXPECT_DOUBLE_EQ(p.rate(), 0.75);
  ASSERT_FALSE(p.stalls().empty());
  std::vector<std::int64_t> renders;
  for (const RenderEvent& e : p.rendered()) {
    renders.push_back(e.pts.us);
    renders.push_back(e.true_time.us);
  }
  EXPECT_EQ(p.rendered().size(), 574u);
  EXPECT_EQ(digest(renders), 18334954070473607908ull);
  EXPECT_EQ(tap.stamps.size(), 760u);
  EXPECT_EQ(digest(tap.stamps), 10583663147850036230ull);
  EXPECT_EQ(p.stalls().size(), 4u);
  EXPECT_EQ(p.stalls().front().duration.us, 2'199'413);
  server.reset();  // before `tap`, which it sends through
}

// One rate on both ends of the wire: the player rounds to the permille the
// kSetRate frame carries and renders at exactly that, and a rate that rounds
// to 0 or overflows the frame changes nothing anywhere.
TEST_F(StreamFixture, EtpnRateIsQuantizedOnceForBothEnds) {
  sim.obs().flight().set_tracing(true);
  const auto enc = encode(sec(10), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(3).us});
  ASSERT_TRUE(p.playing());
  p.set_rate(1.0 / 3.0);
  EXPECT_EQ(p.rate(), 0.333);
  p.set_rate(1e-4);  // rounds to 0 permille
  p.set_rate(1e7);   // 1e10 permille overflows the u32 field
  p.set_rate(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(p.rate(), 0.333);
  EXPECT_EQ(p.interactions().size(), 1u);
  sim.run_until(SimTime{sec(4).us});
  // Player and server each traced one rate change, both at 333 permille.
  const auto rates = sim.obs().flight().events(obs::FlightType::kSessionRate);
  ASSERT_EQ(rates.size(), 2u);
  for (const auto& e : rates) EXPECT_EQ(e.b, 333);
}

// The sync cursor carries the render clock's four fields without loss: a
// paused, re-rated clock exported and installed again reads the same.
TEST_F(StreamFixture, SyncCursorRoundTripsTheRenderClock) {
  const auto enc = encode(sec(20), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{4'000'333});
  p.set_rate(0.75);
  sim.run_until(SimTime{6'000'777});
  p.pause();
  sim.run_until(SimTime{7'000'000});
  const PlayerSyncCursor c = p.sync_cursor();
  const SimDuration frozen = p.position();
  EXPECT_EQ(c.paused_at_us, frozen.us);
  EXPECT_EQ(c.rate, 0.75);
  p.restore_sync_cursor(c);
  const PlayerSyncCursor back = p.sync_cursor();
  EXPECT_EQ(back.media_us, c.media_us);
  EXPECT_EQ(back.wall_us, c.wall_us);
  EXPECT_EQ(back.paused_at_us, c.paused_at_us);
  EXPECT_EQ(back.rate, c.rate);
  EXPECT_TRUE(p.paused_state());
  EXPECT_EQ(p.position(), frozen);  // still frozen after the restore
  p.resume();
  EXPECT_EQ(p.position(), frozen);
  sim.run();
  EXPECT_TRUE(p.finished());
}

TEST_F(StreamFixture, OcpnIgnoresRateChanges) {
  const auto enc = encode(sec(10), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kOcpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(2).us});
  p.set_rate(2.0);  // no speed transition in the pre-orchestrated model
  sim.run();
  ASSERT_TRUE(p.finished());
  EXPECT_NEAR(static_cast<double>(sim.now().us), 10e6, 1e6);
  EXPECT_TRUE(p.interactions().empty());
}

// --- clock sync (the paper's C1 claim) ----------------------------------------------------

TEST_F(StreamFixture, EtpnCorrectsSkewedClock) {
  // Give the client a badly skewed clock.
  network.clock(client_host) = net::HostClock(msec(400), 50.0);
  const auto enc = encode(sec(10), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_TRUE(p.finished());
  // After sync the client clock is within a few ms of true time
  // (error bounded by path asymmetry, here symmetric: ~0).
  const SimDuration residual = network.local_now(client_host) - sim.now();
  EXPECT_LT(std::abs(residual.us), msec(5).us);
  EXPECT_NE(p.last_clock_correction().us, 0);
}

TEST_F(StreamFixture, OcpnRendersOnSkewedClock) {
  network.clock(client_host) = net::HostClock(msec(400), 0.0);
  const auto enc = encode(sec(10), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kOcpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_TRUE(p.finished());
  // OCPN never corrects: local clock still 400 ms off.
  const SimDuration residual = network.local_now(client_host) - sim.now();
  EXPECT_NEAR(static_cast<double>(residual.us), 400'000.0, 1000.0);
}

// --- QoS channels (XOCPN) -------------------------------------------------------------------

TEST_F(StreamFixture, XocpnReservesChannelAndSurvivesCrossTraffic) {
  const auto enc = encode(sec(20), default_job());
  server->publish("lec", enc.file);

  // Cross traffic: another host pair flooding the same link would need a
  // shared topology; here we flood server->client directly.
  net::DatagramSocket noise_src(network, server_host, 7777);
  std::function<void()> flood = [&] {
    noise_src.send_to(client_host, 7778,
                      std::vector<std::byte>(1400, std::byte{0}));
    sim.schedule_after(msec(1), flood);  // ~9.6 Mb/s of noise on 10 Mb/s
  };
  sim.schedule_after(msec(0), flood);

  Player p(network, client_host, player_cfg(SyncModel::kXocpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(30).us});
  EXPECT_TRUE(p.finished());
  EXPECT_TRUE(p.stalls().empty());  // the reserved channel shrugs the flood off
}

TEST_F(StreamFixture, OcpnDegradesUnderSameCrossTraffic) {
  // The same 11+ Mb/s flood on the 10 Mb/s link: best-effort stream packets
  // share the drop-tail queue with the noise and a measurable fraction dies,
  // while the XOCPN test above loses nothing on its reserved channel.
  const auto enc = encode(sec(20), default_job());
  server->publish("lec", enc.file);

  net::DatagramSocket noise_src(network, server_host, 7777);
  std::function<void()> flood = [&] {
    noise_src.send_to(client_host, 7778,
                      std::vector<std::byte>(1400, std::byte{0}));
    sim.schedule_after(msec(1), flood);
  };
  sim.schedule_after(msec(0), flood);

  Player p(network, client_host, player_cfg(SyncModel::kOcpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(120).us});
  EXPECT_GT(p.units_lost(), 20u);
}

// --- DRM through the full stack -----------------------------------------------------------

TEST_F(StreamFixture, ProtectedContentPlaysWithLicense) {
  media::DrmSystem drm;
  EncodeJob job = default_job();
  job.drm = &drm;
  job.protect_content = true;
  const auto enc = encode(sec(5), job);
  server->publish("lec", enc.file);

  Player p(network, client_host, player_cfg(SyncModel::kEtpn), &drm);
  p.open_and_play(server_host, "lec");
  sim.run();
  EXPECT_TRUE(p.finished());
  EXPECT_FALSE(p.drm_blocked());
  EXPECT_GE(p.units_rendered(), 95u);  // 5 s: ~75 video + ~25 audio units
  EXPECT_GT(drm.licenses_issued(), 0u);
}

TEST_F(StreamFixture, ProtectedContentBlockedWithoutLicenseAuthority) {
  media::DrmSystem drm;
  EncodeJob job = default_job();
  job.drm = &drm;
  job.protect_content = true;
  const auto enc = encode(sec(5), job);
  server->publish("lec", enc.file);

  Player p(network, client_host, player_cfg(SyncModel::kEtpn), nullptr);
  p.open_and_play(server_host, "lec");
  sim.run();
  EXPECT_TRUE(p.drm_blocked());
  EXPECT_EQ(p.units_rendered(), 0u);
}

// --- live broadcast ---------------------------------------------------------------------------

TEST_F(StreamFixture, LiveBroadcastReachesSubscriber) {
  EncodeJob job = default_job();
  media::LectureVideoSource v(sec(10), job.profile.fps, job.profile.width,
                              job.profile.height);
  media::LectureAudioSource a(sec(10), job.profile.audio_sample_rate());
  LiveEncoder live(sim, job, std::move(v), std::move(a), {});
  auto sink = server->open_live_channel("live1", live.header());
  live.on_packet([sink](const media::asf::DataPacket& p) { sink(p); });

  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.join_live(server_host, "live1");
  sim.run_until(SimTime{msec(100).us});  // join first
  live.start();
  // Close the channel when the encoder drains.
  std::function<void()> waiter = [&] {
    if (live.done()) {
      server->close_live_channel("live1");
    } else {
      sim.schedule_after(msec(200), waiter);
    }
  };
  sim.schedule_after(msec(200), waiter);
  sim.run();

  EXPECT_TRUE(live.done());
  EXPECT_GT(live.packets_emitted(), 50u);
  EXPECT_TRUE(p.finished());
  EXPECT_GT(p.units_rendered(), 150u);  // 10 s: ~150 video + ~50 audio
}

TEST_F(StreamFixture, LiveEncoderPacesInRealTime) {
  EncodeJob job = default_job();
  media::LectureVideoSource v(sec(5), job.profile.fps, job.profile.width,
                              job.profile.height);
  media::LectureAudioSource a(sec(5), job.profile.audio_sample_rate());
  LiveEncoder live(sim, job, std::move(v), std::move(a), {});
  std::vector<SimTime> emit_times;
  live.on_packet([&](const media::asf::DataPacket&) {
    emit_times.push_back(sim.now());
  });
  live.start();
  sim.run();
  ASSERT_TRUE(live.done());
  ASSERT_GT(emit_times.size(), 10u);
  // Packets flow across the whole 5 s capture, not in one burst.
  EXPECT_GT((emit_times.back() - emit_times.front()).us, sec(3).us);
  // ... and the encoder finished right at the end of the capture.
  EXPECT_NEAR(static_cast<double>(sim.now().us), 5e6, 3e5);
}

TEST_F(StreamFixture, JoinUnknownLiveChannelFails) {
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.join_live(server_host, "nothing");
  sim.run();
  EXPECT_EQ(p.units_rendered(), 0u);
}

// --- the observability layer through the streaming stack --------------------------

TEST_F(StreamFixture, ServerMetricsViewExposesRegistrySeries) {
  const auto enc = encode(sec(5), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(2).us});

  const ServerMetrics m = server->metrics();
  EXPECT_EQ(m.active_sessions(), 1);
  EXPECT_EQ(m.sessions_opened(), 1u);
  EXPECT_GT(m.packets_sent(), 0u);
  EXPECT_GT(m.bytes_sent(), 0u);
  EXPECT_EQ(static_cast<std::size_t>(m.active_sessions()),
            server->active_sessions());
  const auto via_view = m.session(1);
  ASSERT_TRUE(via_view.has_value());
  EXPECT_GT(via_view->packets_sent, 0u);
  EXPECT_FALSE(m.session(999).has_value());

  // ... and the registry publishes the same numbers under lod.server.*.
  const obs::Snapshot snap = m.snapshot();
  const obs::Labels at_server{{"host", std::to_string(server_host)}};
  EXPECT_EQ(snap.counter("lod.server.packets_sent", at_server),
            m.packets_sent());
  EXPECT_EQ(snap.gauge("lod.server.active_sessions", at_server), 1);
  // The only session sent every packet the server did.
  EXPECT_EQ(snap.counter("lod.server.packets_sent", at_server),
            via_view->packets_sent);

  sim.run();
  p.stop();
  sim.run();
  EXPECT_EQ(m.active_sessions(), 0);
  EXPECT_FALSE(m.session(1).has_value());  // ended sessions leave the table
}

TEST_F(StreamFixture, ServerConfigValidatesTunablesAndPorts) {
  const auto port = static_cast<net::Port>(proto::kControlPort + 100);
  ServerConfig cfg;
  cfg.control_port = port;
  cfg.fast_start_multiplier = 0.25;  // illegal: clamps to 1.0
  StreamingServer s2(network, server_host, cfg);
  EXPECT_DOUBLE_EQ(s2.fast_start_multiplier(), 1.0);

  ServerConfig update = s2.config();
  update.fast_start_multiplier = 6.0;
  update.control_port = 12345;  // fixed at construction: must be ignored
  s2.configure(update);
  EXPECT_DOUBLE_EQ(s2.config().fast_start_multiplier, 6.0);
  EXPECT_EQ(s2.config().control_port, port);

  // Structural fields cannot be clamped, only rejected.
  ServerConfig bad_zero;
  bad_zero.control_port = 0;
  EXPECT_THROW((void)bad_zero.validated(), std::invalid_argument);
  ServerConfig bad_max;
  bad_max.control_port = 65535;  // data port would be control_port + 1
  EXPECT_THROW((void)bad_max.validated(), std::invalid_argument);

  // configure() pins the construction-time port BEFORE validating, so a
  // stale struct with a zeroed port must not throw.
  ServerConfig stale;
  stale.control_port = 0;
  stale.fast_start_multiplier = 3.0;
  EXPECT_NO_THROW(s2.configure(stale));
  EXPECT_EQ(s2.config().control_port, port);
  EXPECT_DOUBLE_EQ(s2.config().fast_start_multiplier, 3.0);
}

TEST_F(StreamFixture, PlayerObserverReceivesTypedEvents) {
  struct CountingObserver : PlayerObserver {
    std::size_t renders = 0, slides = 0, finishes = 0;
    std::vector<InteractionRecord::Kind> interactions;
    void on_render(const RenderEvent&) override { ++renders; }
    void on_slide(const SlideEvent&) override { ++slides; }
    void on_interaction(const InteractionRecord& ir) override {
      interactions.push_back(ir.kind);
    }
    void on_finished() override { ++finishes; }
  };

  serve_slides(3);
  const auto enc = encode(sec(30), default_job(), 3);
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  CountingObserver watch;
  p.set_observer(&watch);
  EXPECT_EQ(p.observer(), &watch);
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(10).us});
  p.pause();
  sim.run_until(SimTime{sec(12).us});
  p.resume();
  sim.run();

  ASSERT_TRUE(p.finished());
  EXPECT_EQ(watch.renders, p.units_rendered());
  EXPECT_EQ(watch.slides, p.slides().size());
  EXPECT_EQ(watch.slides, 3u);
  EXPECT_EQ(watch.finishes, 1u);
  ASSERT_EQ(watch.interactions.size(), p.interactions().size());
  ASSERT_GE(watch.interactions.size(), 2u);
  EXPECT_EQ(watch.interactions[0], InteractionRecord::Kind::kPause);
  EXPECT_EQ(watch.interactions[1], InteractionRecord::Kind::kResume);
}

TEST_F(StreamFixture, RenderLogMatchesObservedRendersThroughPauseAndSeek) {
  struct RecordingObserver : PlayerObserver {
    std::vector<RenderEvent> seen;
    void on_render(const RenderEvent& e) override { seen.push_back(e); }
  };

  const auto enc = encode(sec(40), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  RecordingObserver watch;
  p.set_observer(&watch);
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(6).us});
  p.pause();
  sim.run_until(SimTime{sec(9).us});
  p.resume();
  sim.run_until(SimTime{sec(14).us});
  p.seek(sec(30));
  sim.run();

  ASSERT_TRUE(p.finished());
  ASSERT_EQ(p.interactions().size(), 3u);
  const auto& log = p.rendered();
  EXPECT_EQ(log.size(), p.units_rendered());
  ASSERT_EQ(log.size(), watch.seen.size());
  std::size_t i = 0;
  for (const RenderEvent& e : log) {
    ASSERT_EQ(e, watch.seen[i]) << "unit " << i;
    ++i;
  }
}

TEST_F(StreamFixture, TraceRecordsSessionLifecycle) {
  sim.obs().flight().set_tracing(true);
  const auto enc = encode(sec(5), default_job());
  server->publish("lec", enc.file);
  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(2).us});
  p.seek(sec(4));
  sim.run();
  p.stop();
  sim.run();

  const auto& journal = sim.obs().flight();
  const auto evs = journal.events();
  const auto open = first_event(evs, obs::FlightType::kSessionOpen);
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->detail, "lec");
  const auto issued =
      first_event(evs, obs::FlightType::kPlayIssued, client_host);
  ASSERT_TRUE(issued.has_value());

  // The PLAY -> first-frame span brackets the startup delay (the first
  // render can trail the buffering->playing transition by a timer tick).
  const auto startup = span_between(evs, obs::FlightType::kPlayIssued,
                                    obs::FlightType::kRenderStart, client_host);
  ASSERT_TRUE(startup.has_value());
  EXPECT_GE(*startup, p.startup_delay().us);
  EXPECT_LT(*startup, p.startup_delay().us + sec(1).us);

  // Both ends of the seek appear (player issues, server executes).
  EXPECT_FALSE(journal.events(obs::FlightType::kSessionSeek).empty());
  EXPECT_FALSE(journal.events(obs::FlightType::kSessionStop).empty());
  // Network-level events ride the same timeline.
  EXPECT_FALSE(journal.events(obs::FlightType::kPacketSend).empty());
  EXPECT_FALSE(journal.events(obs::FlightType::kPacketRecv).empty());
}

TEST_F(StreamFixture, SnapshotDeltaIsolatesOnePlayback) {
  const auto enc = encode(sec(5), default_job());
  server->publish("lec", enc.file);
  const obs::Snapshot before = sim.obs().metrics().snapshot();

  Player p(network, client_host, player_cfg(SyncModel::kEtpn));
  p.open_and_play(server_host, "lec");
  sim.run();
  ASSERT_TRUE(p.finished());

  const obs::Snapshot delta = sim.obs().metrics().snapshot().since(before);
  const obs::Labels at_client{{"host", std::to_string(client_host)}};
  EXPECT_EQ(delta.counter("lod.player.units_rendered", at_client),
            p.units_rendered());
  EXPECT_GT(delta.counter("lod.net.packets_delivered"), 0u);
  EXPECT_GT(delta.total("lod.server.packets_sent"), 0u);
  EXPECT_GT(delta.counter("lod.sim.events_fired"), 0u);
  const auto* startup =
      delta.histogram("lod.player.startup_us", at_client);
  ASSERT_NE(startup, nullptr);
  EXPECT_EQ(startup->count, 1u);
  EXPECT_EQ(startup->sum, p.startup_delay().us);
}

}  // namespace
}  // namespace lod::streaming
