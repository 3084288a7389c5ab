#include "lod/core/etpn.hpp"

#include <gtest/gtest.h>

#include "lod/core/ocpn.hpp"
#include "lod/core/xocpn.hpp"
#include "lod/net/network.hpp"

namespace lod::core {
namespace {

using net::msec;
using net::sec;
using net::SimTime;
using net::Simulator;

TemporalSpec obj(const std::string& name, std::int64_t secs,
                 std::int64_t bps = 0) {
  return TemporalSpec::object(name, 0, sec(secs), bps);
}

/// Three slides back to back: s1(2s) s2(3s) s3(5s); total 10 s.
TemporalSpec slides_spec() {
  return TemporalSpec::relate(
      Relation::kMeets,
      TemporalSpec::relate(Relation::kMeets, obj("s1", 2), obj("s2", 3)),
      obj("s3", 5));
}

struct EtpnFixture : ::testing::Test {
  EtpnFixture() : compiled(build_ocpn(slides_spec())) {}

  std::unique_ptr<InteractivePlayout> make_player() {
    auto p = std::make_unique<InteractivePlayout>(network, compiled.net,
                                                  compiled.initial_marking());
    p->on_media([this](PlaceId, const MediaBinding& m, bool started,
                       SimDuration pos) {
      log.push_back((started ? "+" : "-") + m.object_name + "@" +
                    std::to_string(pos.us / 1'000'000));
    });
    return p;
  }

  Simulator sim;
  net::Network network{sim};
  CompiledOcpn compiled;
  std::vector<std::string> log;
};

TEST_F(EtpnFixture, UninterruptedPlayoutMatchesSchedule) {
  auto p = make_player();
  p->start();
  sim.run();
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(sim.now().us, sec(10).us);
  EXPECT_EQ(log, (std::vector<std::string>{"+s1@0", "-s1@2", "+s2@2", "-s2@5",
                                           "+s3@5", "-s3@10"}));
  // All episodes complete and contiguous in wall time.
  ASSERT_EQ(p->episodes().size(), 3u);
  for (const auto& ep : p->episodes()) EXPECT_TRUE(ep.complete);
  EXPECT_EQ(p->episodes()[0].wall_end, p->episodes()[1].wall_start);
}

TEST_F(EtpnFixture, MediaNowTracksWallClock) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(3).us});
  EXPECT_EQ(p->media_now(), sec(3));
  EXPECT_EQ(p->active_places().size(), 1u);
}

TEST_F(EtpnFixture, PauseFreezesAndResumeShifts) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(3).us});   // inside s2
  p->pause();
  sim.run_until(SimTime{sec(60).us});  // a long coffee break
  EXPECT_EQ(p->media_now(), sec(3));   // frozen
  EXPECT_FALSE(p->finished());
  p->resume();
  sim.run();
  EXPECT_TRUE(p->finished());
  // Total wall time = 10 s of content + 57 s of pause.
  EXPECT_EQ(sim.now().us, sec(67).us);
  // The event sequence is unchanged by the pause.
  EXPECT_EQ(log.back(), "-s3@10");
  ASSERT_EQ(p->episodes().size(), 3u);
}

TEST_F(EtpnFixture, DoublePauseAndResumeAreIdempotent) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(1).us});
  p->pause();
  p->pause();  // no-op
  p->resume();
  p->resume();  // no-op
  sim.run();
  EXPECT_TRUE(p->finished());
}

TEST_F(EtpnFixture, SeekForwardSwitchesActiveObject) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(1).us});  // inside s1
  p->seek(sec(6));                    // into s3
  // s1 stopped (incomplete), s3 started at media 6.
  EXPECT_EQ(log.back(), "+s3@6");
  sim.run();
  EXPECT_TRUE(p->finished());
  // Wall: 1 s of s1 + 4 s of s3 remainder.
  EXPECT_EQ(sim.now().us, sec(5).us);
  // Episode record: s1 incomplete, s3 complete.
  ASSERT_EQ(p->episodes().size(), 2u);
  EXPECT_FALSE(p->episodes()[0].complete);
  EXPECT_TRUE(p->episodes()[1].complete);
  EXPECT_EQ(p->episodes()[1].media_start, sec(6));
}

TEST_F(EtpnFixture, SeekBackwardReplays) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(7).us});  // inside s3
  p->seek(sec(2));                    // back to the start of s2
  sim.run();
  EXPECT_TRUE(p->finished());
  // 7 s forward + 8 s replay from media 2 to 10.
  EXPECT_EQ(sim.now().us, sec(15).us);
  // s2 and s3 each presented twice overall.
  int s2_count = 0;
  for (const auto& e : log) s2_count += (e.substr(0, 3) == "+s2") ? 1 : 0;
  EXPECT_EQ(s2_count, 2);
}

TEST_F(EtpnFixture, SeekWhilePausedStaysPaused) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(1).us});
  p->pause();
  p->seek(sec(6));
  EXPECT_TRUE(p->paused());
  EXPECT_EQ(p->media_now(), sec(6));
  sim.run_until(SimTime{sec(30).us});
  EXPECT_EQ(p->media_now(), sec(6));  // still frozen at the new position
  p->resume();
  sim.run();
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(sim.now().us, sec(34).us);  // 30 + remaining 4
}

TEST_F(EtpnFixture, SeekClampsToBounds) {
  auto p = make_player();
  p->start();
  p->seek(sec(-5));
  EXPECT_EQ(p->media_now(), sec(0));
  p->seek(sec(100));
  EXPECT_EQ(p->media_now(), sec(10));
  sim.run();
  EXPECT_TRUE(p->finished());
}

TEST_F(EtpnFixture, DoubleSpeedHalvesWallTime) {
  auto p = make_player();
  p->set_rate(2.0);
  p->start();
  sim.run();
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(sim.now().us, sec(5).us);
  EXPECT_EQ(log.back(), "-s3@10");  // media positions unaffected
}

TEST_F(EtpnFixture, HalfSpeedDoublesWallTime) {
  auto p = make_player();
  p->start();
  p->set_rate(0.5);
  sim.run();
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(sim.now().us, sec(20).us);
}

TEST_F(EtpnFixture, MidStreamRateChange) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(4).us});  // media 4
  p->set_rate(2.0);
  sim.run();
  EXPECT_TRUE(p->finished());
  // 4 s at 1x + 6 s of media at 2x = 4 + 3 = 7 s wall.
  EXPECT_EQ(sim.now().us, sec(7).us);
}

TEST_F(EtpnFixture, InvalidRateThrows) {
  auto p = make_player();
  EXPECT_THROW(p->set_rate(0.0), std::invalid_argument);
  EXPECT_THROW(p->set_rate(-1.0), std::invalid_argument);
}

TEST_F(EtpnFixture, InteractionLogRecordsEverything) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(1).us});
  p->pause();
  p->resume();
  p->seek(sec(5));
  p->set_rate(2.0);
  sim.run();
  using K = InteractivePlayout::Interaction::Kind;
  ASSERT_EQ(p->interactions().size(), 5u);
  EXPECT_EQ(p->interactions()[0].kind, K::kStart);
  EXPECT_EQ(p->interactions()[1].kind, K::kPause);
  EXPECT_EQ(p->interactions()[2].kind, K::kResume);
  EXPECT_EQ(p->interactions()[3].kind, K::kSeek);
  EXPECT_EQ(p->interactions()[4].kind, K::kRate);
}

TEST_F(EtpnFixture, InteractionStormConvergesToFinish) {
  auto p = make_player();
  p->start();
  // A hostile user: alternating pause/seek/rate every 300 ms of wall time.
  for (int i = 1; i <= 20; ++i) {
    sim.run_until(SimTime{msec(300 * i).us});
    switch (i % 4) {
      case 0: p->pause(); break;
      case 1: p->resume(); p->seek(msec(500 * i)); break;
      case 2: p->set_rate(i % 8 == 2 ? 0.5 : 1.5); break;
      case 3: p->resume(); break;
    }
  }
  p->resume();
  p->set_rate(4.0);
  sim.run();
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(p->media_now(), sec(10));
  // Every open episode was closed.
  for (const auto& ep : p->episodes()) {
    EXPECT_GE(ep.wall_end.us, ep.wall_start.us);
  }
}

// Pins every conversion of the wall<->media map to the microsecond: odd
// instants and rates that do not divide evenly exercise the truncating
// media reading and the rounded-up timer delta. The storm test above only
// checks that playout converges.
TEST_F(EtpnFixture, RateStormEpisodesAreExact) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{1'234'567});
  p->set_rate(1.5);
  sim.run_until(SimTime{2'000'001});
  p->pause();
  sim.run_until(SimTime{2'500'003});
  p->set_rate(0.75);
  p->resume();
  sim.run_until(SimTime{4'111'111});
  p->seek(net::usec(1'999'999));
  sim.run_until(SimTime{5'000'007});
  p->set_rate(1.0 / 3.0);
  sim.run_until(SimTime{7'777'777});
  p->set_rate(3.0);
  sim.run();
  ASSERT_TRUE(p->finished());
  std::vector<std::int64_t> got;
  for (const auto& ep : p->episodes()) {
    got.insert(got.end(), {static_cast<std::int64_t>(ep.place),
                           ep.media_start.us, ep.wall_start.us,
                           ep.wall_end.us, ep.complete ? 1 : 0});
  }
  // {place, media_start, wall_start, wall_end, complete} per episode.
  EXPECT_EQ(got, (std::vector<std::int64_t>{
                     0, 0,         0,         1'744'856, 1,  //
                     1, 2'000'000, 1'744'856, 4'111'111, 0,  //
                     0, 1'999'999, 4'111'111, 4'111'113, 1,  //
                     1, 2'000'000, 4'111'113, 8'246'913, 1,  //
                     3, 5'000'000, 8'246'913, 9'913'579, 1}));
  EXPECT_EQ(sim.now().us, 9'913'579);
}

TEST_F(EtpnFixture, ParallelMediaBothActive) {
  // video(4) equals audio(4): both active together, both tracked.
  auto spec = TemporalSpec::relate(Relation::kEquals, obj("video", 4),
                                   obj("audio", 4));
  auto c = build_ocpn(spec);
  InteractivePlayout p(network, c.net, c.initial_marking());
  p.start();
  sim.run_until(SimTime{sec(2).us});
  EXPECT_EQ(p.active_places().size(), 2u);
  sim.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.episodes().size(), 2u);
}

TEST_F(EtpnFixture, StartIsIdempotent) {
  auto p = make_player();
  p->start();
  sim.run_until(SimTime{sec(1).us});
  p->start();  // no-op
  sim.run();
  EXPECT_EQ(sim.now().us, sec(10).us);
}

TEST_F(EtpnFixture, SeekBeforeStartStartsPlayout) {
  auto p = make_player();
  p->seek(sec(5));
  sim.run();
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(sim.now().us, sec(5).us);  // played the back half only
}

// --- XOCPN channel schedules -----------------------------------------------------

TEST(Xocpn, PlacementAnnotatesNet) {
  auto c = build_ocpn(TemporalSpec::relate(Relation::kEquals,
                                           obj("video", 10, 250'000),
                                           obj("audio", 10, 64'000)));
  apply_placement(c, {{"video", {1, 250'000}}, {"audio", {1, 64'000}}});
  const PlaceId vp = c.object_place.at("video");
  EXPECT_EQ(c.net.site(vp), 1u);
  EXPECT_EQ(c.net.media(vp)->required_bps, 250'000);
}

TEST(Xocpn, PlacementIgnoresUnknownObjects) {
  auto c = build_ocpn(obj("solo", 5));
  apply_placement(c, {{"ghost", {2, 1000}}});  // must not throw
  EXPECT_EQ(c.net.site(c.object_place.at("solo")), kLocalSite);
}

TEST(Xocpn, ChannelScheduleFollowsPlayout) {
  // s1(2) meets s2(3): remote slides, each needs a channel while presented.
  auto spec = TemporalSpec::relate(Relation::kMeets, obj("s1", 2, 50'000),
                                   obj("s2", 3, 50'000));
  auto c = build_ocpn(spec);
  apply_placement(c, {{"s1", {1, 50'000}}, {"s2", {1, 50'000}}});
  const auto sched = derive_channel_schedule(c, msec(500));
  ASSERT_EQ(sched.channels.size(), 2u);
  const auto& c1 = sched.channels[0];
  const auto& c2 = sched.channels[1];
  EXPECT_EQ(c1.object, "s1");
  EXPECT_EQ(c1.reserve_at, sec(0));  // 0 - 500ms clamps to 0
  EXPECT_EQ(c1.release_at, sec(2));
  EXPECT_EQ(c2.object, "s2");
  EXPECT_EQ(c2.reserve_at, msec(1500));  // 2s - 500ms lead
  EXPECT_EQ(c2.release_at, sec(5));
}

TEST(Xocpn, PeakBandwidthAccountsOverlap) {
  auto spec = TemporalSpec::relate(Relation::kEquals, obj("v", 10, 200'000),
                                   obj("a", 10, 64'000));
  auto c = build_ocpn(spec);
  apply_placement(c, {{"v", {1, 200'000}}, {"a", {1, 64'000}}});
  const auto sched = derive_channel_schedule(c, msec(0));
  EXPECT_EQ(sched.peak_bps, 264'000);
}

TEST(Xocpn, LocalObjectsNeedNoChannel) {
  auto spec = TemporalSpec::relate(Relation::kMeets, obj("local", 2, 50'000),
                                   obj("remote", 2, 50'000));
  auto c = build_ocpn(spec);
  apply_placement(c, {{"remote", {1, 50'000}}});  // "local" stays at site 0
  const auto sched = derive_channel_schedule(c, msec(100));
  ASSERT_EQ(sched.channels.size(), 1u);
  EXPECT_EQ(sched.channels[0].object, "remote");
}

TEST(Xocpn, ZeroRateObjectsSkipped) {
  auto c = build_ocpn(obj("free", 5, 0));
  apply_placement(c, {{"free", {1, 0}}});
  EXPECT_TRUE(derive_channel_schedule(c, msec(100)).channels.empty());
}

}  // namespace
}  // namespace lod::core
