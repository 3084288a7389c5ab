#include "lod/sync/image.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "lod/edge/edge_node.hpp"
#include "lod/edge/replica_selector.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/spantree.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"
#include "lod/sync/blocks.hpp"
#include "lod/sync/state.hpp"

/// Session snapshot / live-migration tests (ROADMAP item 4): the freeze →
/// ship image → resume handshake between a player and an adopting edge
/// replica, plus the two session-lifecycle bugfixes that ride along (live
/// joins on a reused player, failover resume position).

namespace lod::sync {
namespace {

using net::msec;
using net::sec;
using net::SimDuration;
using net::SimTime;

/// Units rendered more than once — the "no duplicate rendered segments"
/// acceptance check. (pts, stream) identifies a unit; a correct resume
/// never shows one twice.
std::size_t duplicate_renders(const streaming::Player& p) {
  std::map<std::pair<std::int64_t, int>, int> seen;
  std::size_t dups = 0;
  for (const auto& ev : p.rendered()) {
    if (++seen[{ev.pts.us, ev.stream_id}] > 1) ++dups;
  }
  return dups;
}

/// Origin + two edge replicas (A nearest, B the migration target) + client.
struct MigrateFixture : ::testing::Test {
  MigrateFixture() : network(sim, 4321) {
    origin_host = network.add_host("origin");
    edge_a_host = network.add_host("edge_a");
    edge_b_host = network.add_host("edge_b");
    client_host = network.add_host("client");
    net::LinkConfig wan;
    wan.bandwidth_bps = 20'000'000;
    wan.latency = msec(60);
    network.add_link(origin_host, edge_a_host, wan);
    network.add_link(origin_host, edge_b_host, wan);
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    network.add_link(edge_a_host, client_host, lan);
    net::LinkConfig lan_b = lan;
    lan_b.latency = msec(3);  // B is slightly farther: A wins the first pick
    network.add_link(edge_b_host, client_host, lan_b);

    server = std::make_unique<streaming::StreamingServer>(network, origin_host);
    gateway = std::make_unique<edge::OriginGateway>(network, *server);
    edge::EdgeConfig ec;
    ec.origin = origin_host;
    edge_a = std::make_unique<edge::EdgeNode>(network, edge_a_host, ec);
    edge_b = std::make_unique<edge::EdgeNode>(network, edge_b_host, ec);
  }

  void publish(const std::string& name, SimDuration len) {
    streaming::EncodeJob job;
    job.profile = *media::find_profile("Video 250k DSL/cable");
    job.preroll = msec(2000);
    media::LectureVideoSource v(len, job.profile.fps, job.profile.width,
                                job.profile.height, 7);
    media::LectureAudioSource a(len, job.profile.audio_sample_rate());
    auto enc = streaming::encode_lecture(job, v, a, {});
    server->publish(name, enc.file);
  }

  streaming::PlayerConfig player_cfg(net::Port base) {
    streaming::PlayerConfig cfg;
    cfg.model = streaming::SyncModel::kEtpn;
    cfg.ctl_port = base;
    cfg.data_port = static_cast<net::Port>(base + 1);
    cfg.web_server = origin_host;
    return cfg;
  }

  /// Warm \p via's describe/meta cache with a short throwaway session, so a
  /// later /edge/migrate finds the replica hot and can adopt (a cold
  /// replica 503s and the player falls back to re-describe).
  void warm_edge(net::HostId via, const std::string& name) {
    streaming::Player w(network, client_host, player_cfg(6900));
    w.open_and_play(via, name);
    sim.run_until(sim.now() + sec(3));
    w.stop();
    sim.run_until(sim.now() + sec(1));
  }

  net::Simulator sim;
  net::Network network;
  net::HostId origin_host{}, edge_a_host{}, edge_b_host{}, client_host{};
  std::unique_ptr<streaming::StreamingServer> server;
  std::unique_ptr<edge::OriginGateway> gateway;
  std::unique_ptr<edge::EdgeNode> edge_a;
  std::unique_ptr<edge::EdgeNode> edge_b;
};

// --- satellite bugfix 1: live join on a reused player -------------------------

TEST_F(MigrateFixture, JoinLiveAfterVodSessionStartsCleanAndTreesHaveNoOrphans) {
  sim.obs().flight().set_tracing(true);
  publish("lec", sec(8));
  streaming::Player p(network, client_host, player_cfg(5000));
  p.open_and_play(origin_host, "lec");
  sim.run_until(SimTime{sec(20).us});
  ASSERT_TRUE(p.finished());
  const auto vod_units = p.units_rendered();
  EXPECT_GT(vod_units, 0u);

  // Reuse the SAME player for a live join. Before the fix this inherited
  // the VOD session's reorder/NACK/timer state and emitted spans with no
  // session root.
  streaming::EncodeJob job;
  job.profile = *media::find_profile("Video 250k DSL/cable");
  job.preroll = msec(2000);
  media::LectureVideoSource v(sec(5), job.profile.fps, job.profile.width,
                              job.profile.height);
  media::LectureAudioSource a(sec(5), job.profile.audio_sample_rate());
  streaming::LiveEncoder live(sim, job, std::move(v), std::move(a), {});
  auto sink = server->open_live_channel("live1", live.header());
  live.on_packet([sink](const media::asf::DataPacket& pkt) { sink(pkt); });

  p.join_live(origin_host, "live1");
  sim.run_until(sim.now() + msec(300));  // join lands before capture starts
  live.start();
  std::function<void()> waiter = [&] {
    if (live.done()) {
      server->close_live_channel("live1");
    } else {
      sim.schedule_after(msec(200), waiter);
    }
  };
  sim.schedule_after(msec(200), waiter);
  sim.run();

  EXPECT_TRUE(p.finished());
  EXPECT_GT(p.units_rendered(), vod_units);  // the live join rendered media

  // Two sessions, two trees, each rooted and orphan-free.
  const auto trees = obs::build_span_trees(sim.obs().flight().trace_events());
  ASSERT_EQ(trees.size(), 2u);
  for (const auto& t : trees) {
    EXPECT_TRUE(t.orphans.empty());
    ASSERT_TRUE(t.root());
    EXPECT_EQ(t.root()->name, "player.session");
    EXPECT_TRUE(t.root()->closed);
  }
}

// --- satellite bugfix 2: failover resumes from the render cursor --------------

TEST_F(MigrateFixture, FailoverResumesFromRenderCursorWithoutDuplicates) {
  publish("lec", sec(30));
  edge::ReplicaSelector sel(network, client_host, origin_host,
                            {edge_a_host, edge_b_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(SimTime{sec(5).us});
  ASSERT_TRUE(p.playing());
  ASSERT_EQ(p.current_server(), edge_a_host);
  const auto cursor_at_kill = p.position();
  ASSERT_GT(cursor_at_kill.us, sec(1).us);

  edge_a.reset();  // kill the serving edge mid-playout
  sim.run_until(SimTime{sec(60).us});

  EXPECT_GE(p.failovers(), 1u);
  EXPECT_TRUE(p.finished());
  // Before the fix the reopen replayed from the ORIGINAL `from` offset (0),
  // re-rendering every already-shown unit.
  EXPECT_EQ(duplicate_renders(p), 0u);
  // The full tail of the lecture still rendered.
  ASSERT_FALSE(p.rendered().empty());
  EXPECT_GE(p.rendered().back().pts.us, sec(28).us);
}

TEST_F(MigrateFixture, DoubleFailoverStillFinishesOnTheOrigin) {
  publish("lec", sec(30));
  edge::ReplicaSelector sel(network, client_host, origin_host,
                            {edge_a_host, edge_b_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(SimTime{sec(5).us});
  ASSERT_EQ(p.current_server(), edge_a_host);

  edge_a.reset();
  sim.run_until(SimTime{sec(10).us});
  ASSERT_GE(p.failovers(), 1u);
  edge_b.reset();  // and the failover target dies too
  sim.run_until(SimTime{sec(60).us});

  EXPECT_GE(p.failovers(), 2u);
  EXPECT_EQ(p.current_server(), origin_host);
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(duplicate_renders(p), 0u);
}

// --- the migration handshake --------------------------------------------------

TEST_F(MigrateFixture, MigrationHandshakeAdoptsSessionOnWarmReplica) {
  publish("lec", sec(30));
  warm_edge(edge_b_host, "lec");
  sim.obs().flight().set_tracing(true);

  // B is the selector's floor (always eligible), A the nearest first pick.
  edge::ReplicaSelector sel(network, client_host, edge_b_host, {edge_a_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  cfg.migrate_on_failover = true;
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(sim.now() + sec(5));
  ASSERT_TRUE(p.playing());
  ASSERT_EQ(p.current_server(), edge_a_host);

  edge_a.reset();  // the serving edge dies mid-playout
  sim.run_until(sim.now() + sec(55));

  EXPECT_TRUE(p.finished());
  EXPECT_GE(p.failovers(), 1u);
  EXPECT_GE(p.migrations(), 1u);
  EXPECT_EQ(p.current_server(), edge_b_host);
  EXPECT_GE(edge_b->migrations_adopted(), 1u);
  EXPECT_EQ(duplicate_renders(p), 0u);

  // Acceptance: a mid-playout migration stalls rendering by at most one
  // jitter-buffer depth (the 2 s preroll).
  for (const auto& s : p.stalls()) {
    EXPECT_LE(s.duration.us, msec(2000).us);
  }

  // The adopted session stays inside the ORIGINAL session's trace: one
  // orphan-free tree holding both the failover span and the adopting
  // replica's edge.adopt span.
  const auto trees = obs::build_span_trees(sim.obs().flight().trace_events());
  ASSERT_EQ(trees.size(), 1u);
  const auto& t = trees[0];
  EXPECT_TRUE(t.orphans.empty());
  ASSERT_TRUE(t.root());
  EXPECT_EQ(t.root()->name, "player.session");
  bool saw_failover = false, saw_adopt = false;
  for (const auto& n : t.nodes) {
    if (n.name == "player.failover") saw_failover = true;
    if (n.name == "edge.adopt") saw_adopt = true;
  }
  EXPECT_TRUE(saw_failover);
  EXPECT_TRUE(saw_adopt);
}

// A seek issued while the migration handshake is in flight re-targets that
// reopen: the verb reaches the adopted session instead of the site being
// abandoned, so the adopting edge streams from the seek target in the
// player's epoch, with no second failover and one session on the edge.
TEST_F(MigrateFixture, SeekDuringMigrationHandshakeRetargetsTheReopen) {
  publish("lec", sec(30));
  warm_edge(edge_b_host, "lec");

  edge::ReplicaSelector sel(network, client_host, edge_b_host, {edge_a_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  cfg.migrate_on_failover = true;
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(sim.now() + sec(5));
  ASSERT_TRUE(p.playing());
  ASSERT_EQ(p.current_server(), edge_a_host);

  edge_a.reset();  // the serving edge dies mid-playout
  const SimTime give_up = sim.now() + sec(10);
  while (p.failovers() == 0 && sim.now() < give_up && sim.step()) {
  }
  ASSERT_EQ(p.failovers(), 1u);
  ASSERT_EQ(p.current_server(), edge_a_host);  // the handshake is in flight
  const SimTime seek_at = sim.now();
  p.seek(sec(20));
  sim.run_until(sim.now() + sec(30));

  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.failovers(), 1u);
  EXPECT_EQ(p.migrations(), 1u);
  EXPECT_EQ(p.current_server(), edge_b_host);
  EXPECT_EQ(edge_b->active_sessions(), 1u);
  std::size_t after = 0;
  for (const auto& ev : p.rendered()) {
    if (ev.true_time < seek_at) continue;
    ++after;
    EXPECT_GE(ev.pts, sec(20));
  }
  EXPECT_GT(after, 0u);
  EXPECT_EQ(duplicate_renders(p), 0u);
}

// A pause issued during the handshake reaches the adopted session too: the
// adopting edge stops streaming until the viewer resumes.
TEST_F(MigrateFixture, PauseDuringMigrationHandshakeReachesTheAdoptedSession) {
  publish("lec", sec(30));
  warm_edge(edge_b_host, "lec");

  edge::ReplicaSelector sel(network, client_host, edge_b_host, {edge_a_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  cfg.migrate_on_failover = true;
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(sim.now() + sec(5));
  ASSERT_TRUE(p.playing());

  edge_a.reset();
  const SimTime give_up = sim.now() + sec(10);
  while (p.failovers() == 0 && sim.now() < give_up && sim.step()) {
  }
  ASSERT_EQ(p.failovers(), 1u);
  p.pause();
  sim.run_until(sim.now() + sec(2));
  ASSERT_EQ(p.current_server(), edge_b_host);  // adopted
  ASSERT_TRUE(p.paused_state());
  const std::uint64_t packets = p.packets_received();
  sim.run_until(sim.now() + sec(5));
  EXPECT_EQ(p.packets_received(), packets);

  p.resume();
  sim.run_until(sim.now() + sec(40));
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.failovers(), 1u);
  EXPECT_EQ(p.migrations(), 1u);
  EXPECT_EQ(duplicate_renders(p), 0u);
}

// A migration body arrives from the network. An adopted session whose rate
// no player could have sent (not positive, under one permille, past the
// kSetRate frame's range) paces at normal speed, exactly like rate 1.
TEST_F(MigrateFixture, AdoptionPacesAnOutOfRangeRateAtNormalSpeed) {
  publish("lec", sec(30));
  warm_edge(edge_b_host, "lec");
  net::RpcClient rpc(network, client_host, 6800);
  net::ReliableEndpoint ctl(network, client_host, 6700);
  // Adopt a session at \p rate for 4 s; the data arrival offsets.
  const auto adopt = [&](double rate) {
    net::ByteWriter w;
    w.u32(streaming::proto::kMigrateMagic);
    w.u16(streaming::proto::kMigrateVersion);
    w.str("lec");
    w.u32(static_cast<std::uint32_t>(client_host));
    w.u16(6700);  // client control port
    w.u16(6701);  // client data port
    w.u32(std::numeric_limits<std::uint32_t>::max());  // resume from position
    w.i64(0);     // position
    w.u32(0);     // stream epoch
    w.f64(rate);
    w.u8(0);      // playing
    w.u64(0);     // trace id
    w.u64(0);     // parent span
    w.blob({});   // state image
    std::vector<std::int64_t> arrivals;
    net::DatagramSocket data(network, client_host, 6701);
    const SimTime t0 = sim.now();
    data.on_receive([&](const net::Datagram&) {
      arrivals.push_back((sim.now() - t0).us);
    });
    std::uint64_t sid = 0;
    rpc.call(edge_b_host,
             streaming::proto::kControlPort +
                 streaming::proto::kMigratePortOffset,
             "/edge/migrate", std::move(w).take(),
             [&](net::Result<net::RpcReply> r) {
               ASSERT_TRUE(r && r->status == 200);
               sid = net::ByteReader(r->body).u64();
             });
    sim.run_until(t0 + sec(4));
    net::ByteWriter stop;
    stop.u8(static_cast<std::uint8_t>(streaming::proto::Ctl::kStop));
    stop.u64(sid);
    ctl.send_to(edge_b_host, streaming::proto::kControlPort,
                std::move(stop).take());
    sim.run_until(sim.now() + sec(1));
    return arrivals;
  };
  ASSERT_FALSE(adopt(1.0).empty());  // warms every segment the rest read
  const auto normal = adopt(1.0);
  EXPECT_EQ(adopt(1e-300), normal);
  EXPECT_EQ(adopt(1e-4), normal);
  EXPECT_EQ(adopt(1e300), normal);
  EXPECT_EQ(adopt(-2.0), normal);
}

TEST_F(MigrateFixture, ColdReplicaFallsBackToRedescribeAndStillFinishes) {
  publish("lec", sec(30));
  // No warm_edge: B has never seen "lec", so /edge/migrate 503s and the
  // player must fall back to the re-describe reopen.
  edge::ReplicaSelector sel(network, client_host, edge_b_host, {edge_a_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  cfg.migrate_on_failover = true;
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(SimTime{sec(5).us});
  ASSERT_EQ(p.current_server(), edge_a_host);

  edge_a.reset();
  sim.run_until(SimTime{sec(60).us});

  EXPECT_TRUE(p.finished());
  EXPECT_GE(p.failovers(), 1u);
  EXPECT_EQ(p.migrations(), 0u);  // adoption refused, re-describe won
  EXPECT_EQ(p.current_server(), edge_b_host);
  EXPECT_EQ(duplicate_renders(p), 0u);
}

TEST_F(MigrateFixture, MigrateDuringResyncSurvivesARacingDelta) {
  publish("lec", sec(30));
  warm_edge(edge_b_host, "lec");

  edge::ReplicaSelector sel(network, client_host, edge_b_host, {edge_a_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  cfg.migrate_on_failover = true;
  streaming::Player p(network, client_host, cfg);

  SessionState st;
  register_player_session_blocks(st, &p);
  attach_migration_image(p, st);

  p.open_and_play_via(sel, "lec");
  sim.run_until(sim.now() + sec(5));
  ASSERT_TRUE(p.playing());

  // Freeze a sync image NOW, kill the edge, and deliver the image 200 ms
  // into the dead window — a SyncAgent delta racing the migration, arriving
  // after the state it describes is already stale.
  st.refresh();
  const auto stale = st.serialize_full();
  edge_a.reset();
  SessionState::ApplyResult res;
  sim.schedule_after(msec(200), [&] { res = st.apply(stale); });
  sim.run_until(sim.now() + sec(55));

  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GE(p.migrations(), 1u);
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.current_server(), edge_b_host);
}

// --- SessionImage capture / restore / wire codec ------------------------------

TEST_F(MigrateFixture, SessionImageRoundTripsAndRestores) {
  publish("lec", sec(8));
  streaming::Player p(network, client_host, player_cfg(5000));
  SessionState st;
  register_player_session_blocks(st, &p);
  p.open_and_play(origin_host, "lec");
  sim.run_until(SimTime{sec(4).us});
  ASSERT_TRUE(p.playing());

  const SessionImage img = capture_session_image(st, p);
  EXPECT_EQ(img.content, "lec");
  EXPECT_NE(img.session_id, 0u);
  EXPECT_GT(img.position_us, 0);
  EXPECT_FALSE(img.state.empty());

  const auto wire = serialize_image(img);
  const SessionImage back = parse_image(wire);
  EXPECT_EQ(back.content, img.content);
  EXPECT_EQ(back.session_id, img.session_id);
  EXPECT_EQ(back.position_us, img.position_us);
  EXPECT_EQ(back.stream_epoch, img.stream_epoch);
  EXPECT_EQ(back.trace_id, img.trace_id);
  EXPECT_EQ(back.root_span, img.root_span);
  EXPECT_EQ(back.state, img.state);

  // Thawing the image back into the state it came from is a clean no-op
  // apply that reaches the image's checksum.
  const auto res = restore_session_image(st, back);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.checksum_match);
  EXPECT_EQ(res.blocks_applied, 5u);

  sim.run_until(SimTime{sec(20).us});
  EXPECT_TRUE(p.finished());
}

TEST_F(MigrateFixture, CorruptImageFailsParseLoudly) {
  publish("lec", sec(8));
  streaming::Player p(network, client_host, player_cfg(5000));
  SessionState st;
  register_player_session_blocks(st, &p);
  p.open_and_play(origin_host, "lec");
  sim.run_until(SimTime{sec(3).us});

  auto wire = serialize_image(capture_session_image(st, p));
  EXPECT_NO_THROW(parse_image(wire));
  wire[wire.size() / 2] ^= std::byte{0x40};
  EXPECT_THROW(parse_image(wire), std::runtime_error);
  EXPECT_THROW(parse_image(std::span<const std::byte>(wire).first(4)),
               std::runtime_error);
}

}  // namespace
}  // namespace lod::sync
