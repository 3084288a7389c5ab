// The session engine shared by the origin and the edge: both roles emit the
// same stream for the same script, a session's accounting leaves with it
// (the table and /debug/sessions hold open sessions only), and the engine's
// exit paths hold up (shrinking sources, late live joins, destruction
// mid-session, verbs on a stopped session).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lod/edge/edge_node.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/debug.hpp"
#include "lod/obs/hub.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"

namespace lod::streaming {
namespace {

using net::msec;
using net::sec;
using net::SimDuration;
using net::SimTime;
using proto::Ctl;

media::asf::File lecture(SimDuration len) {
  EncodeJob job;
  job.profile = *media::find_profile("Video 250k DSL/cable");
  job.preroll = msec(2000);
  media::LectureVideoSource v(len, job.profile.fps, job.profile.width,
                              job.profile.height, 7);
  media::LectureAudioSource a(len, job.profile.audio_sample_rate());
  return encode_lecture(job, v, a, {}).file;
}

/// A scripted client on raw sockets: it sends control verbs to one server
/// and records every data frame and end-of-stream it receives.
struct RawClient {
  struct Frame {
    std::uint32_t epoch;
    std::uint64_t seq;
    std::uint32_t index;
    SimDuration at;  ///< arrival, relative to `t0`
    std::vector<std::byte> packet;
    bool operator==(const Frame&) const = default;
  };
  struct Eos {
    std::uint32_t total;
    SimDuration at;
    bool operator==(const Eos&) const = default;
  };

  RawClient(net::Network& n, net::HostId host, net::HostId server,
            net::Port base)
      : network(n), server(server), ctl(n, host, base),
        data(n, host, static_cast<net::Port>(base + 1)) {
    ctl.on_receive([this](const net::ReliableEndpoint::Message& m) {
      net::ByteReader r(m.payload);
      switch (static_cast<Ctl>(r.u8())) {
        case Ctl::kPlayOk:
          session = r.u64();
          break;
        case Ctl::kEndOfStream:
          r.u64();
          eos.push_back({r.u32(), network.now() - t0});
          break;
        default:
          break;
      }
    });
    data.on_receive([this](const net::Datagram& d) {
      net::ByteReader r(d.payload);
      if (r.u32() != proto::kDataMagic) return;
      r.u64();
      Frame f{};
      f.epoch = r.u32();
      f.seq = r.u64();
      f.index = r.u32();
      f.at = network.now() - t0;
      f.packet = d.body.to_vector();
      frames.push_back(std::move(f));
    });
  }

  void send(net::ByteWriter w) {
    ctl.send_to(server, proto::kControlPort, std::move(w).take());
  }
  net::ByteWriter verb(Ctl tag) {
    net::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(tag));
    if (tag != Ctl::kPlay && tag != Ctl::kJoinLive) w.u64(session);
    return w;
  }
  void play(const std::string& name, SimDuration from = {}) {
    t0 = network.now();
    net::ByteWriter w = verb(Ctl::kPlay);
    w.str(name);
    w.i64(from.us);
    w.u16(data.port());
    w.u32(0);  // no QoS channel
    send(std::move(w));
  }
  void join_live(const std::string& name) {
    t0 = network.now();
    net::ByteWriter w = verb(Ctl::kJoinLive);
    w.str(name);
    w.u16(data.port());
    send(std::move(w));
  }
  void seek(SimDuration to) {
    net::ByteWriter w = verb(Ctl::kSeek);
    w.i64(to.us);
    send(std::move(w));
  }
  void set_rate(std::uint32_t permille) {
    net::ByteWriter w = verb(Ctl::kSetRate);
    w.u32(permille);
    w.u32(0);
    send(std::move(w));
  }
  void repair(const std::vector<std::uint32_t>& indices) {
    net::ByteWriter w = verb(Ctl::kRepair);
    w.u32(static_cast<std::uint32_t>(indices.size()));
    for (std::uint32_t i : indices) w.u32(i);
    send(std::move(w));
  }

  net::Network& network;
  net::HostId server;
  net::ReliableEndpoint ctl;
  net::DatagramSocket data;
  SimTime t0{};
  std::uint64_t session{0};
  std::vector<Frame> frames;
  std::vector<Eos> eos;
};

/// Origin and edge each one identical LAN hop from the client; the edge
/// fills from the origin over a WAN. Whatever a script makes the origin
/// send, a warm edge must send the same, at the same instants.
struct TwoRoleFixture : ::testing::Test {
  TwoRoleFixture() : network(sim, 77) {
    origin_host = network.add_host("origin");
    edge_host = network.add_host("edge");
    client_host = network.add_host("client");
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    network.add_link(origin_host, client_host, lan);
    network.add_link(edge_host, client_host, lan);
    net::LinkConfig wan;
    wan.bandwidth_bps = 20'000'000;
    wan.latency = msec(60);
    network.add_link(origin_host, edge_host, wan);

    server = std::make_unique<StreamingServer>(network, origin_host);
    gateway = std::make_unique<edge::OriginGateway>(network, *server);
    edge::EdgeConfig ec;
    ec.origin = origin_host;
    edge = std::make_unique<edge::EdgeNode>(network, edge_host, ec);
    server->publish("lec", lecture(sec(12)));
  }

  /// A whole playout through the edge pulls every segment into its cache.
  void warm_edge() {
    PlayerConfig cfg;
    cfg.model = SyncModel::kEtpn;
    cfg.ctl_port = 5000;
    cfg.data_port = 5001;
    cfg.web_server = origin_host;
    Player warm(network, client_host, cfg);
    warm.open_and_play(edge_host, "lec");
    sim.run_until(sim.now() + sec(40));
    ASSERT_TRUE(warm.finished());
    warm.stop();
    sim.run_until(sim.now() + sec(1));
  }

  /// Whether `/debug/sessions` lists session \p id of the engine on \p host.
  bool listed(net::HostId host, std::uint64_t id) const {
    for (const obs::SessionRow& r : sim.obs().sessions()) {
      if (r.host == host && r.id == id) return true;
    }
    return false;
  }

  /// Play, pause, resume, seek, set-rate, repair and stop, at fixed offsets
  /// from PLAY; returns the client with everything it received.
  std::unique_ptr<RawClient> run_script(net::HostId site, net::Port base) {
    auto c = std::make_unique<RawClient>(network, client_host, site, base);
    RawClient* cl = c.get();
    const SimTime t0 = sim.now();
    auto at = [&](SimDuration d, std::function<void()> fn) {
      sim.schedule_at(t0 + d, std::move(fn));
    };
    cl->play("lec");
    at(msec(1500), [cl] { cl->send(cl->verb(Ctl::kPause)); });
    at(msec(2500), [cl] { cl->send(cl->verb(Ctl::kResume)); });
    at(msec(3500), [cl] { cl->seek(sec(6)); });
    at(msec(4500), [cl] { cl->set_rate(2000); });
    at(msec(5000), [cl] { cl->repair({1, 2, 40}); });
    at(sec(20), [cl] { cl->send(cl->verb(Ctl::kStop)); });
    sim.run_until(t0 + sec(25));
    return c;
  }

  net::Simulator sim;
  net::Network network;
  net::HostId origin_host{}, edge_host{}, client_host{};
  std::unique_ptr<StreamingServer> server;
  std::unique_ptr<edge::OriginGateway> gateway;
  std::unique_ptr<edge::EdgeNode> edge;
};

TEST_F(TwoRoleFixture, OriginAndWarmEdgeEmitTheSameStream) {
  ASSERT_NO_FATAL_FAILURE(warm_edge());
  const std::uint64_t fills = edge->demand_fetches() + edge->prefetch_fetches();

  const auto via_origin = run_script(origin_host, 6000);
  const auto via_edge = run_script(edge_host, 6100);

  // The edge served the script from its cache alone.
  EXPECT_EQ(edge->demand_fetches() + edge->prefetch_fetches(), fills);
  EXPECT_EQ(server->active_sessions(), 0u);
  EXPECT_EQ(edge->active_sessions(), 0u);

  ASSERT_GT(via_origin->frames.size(), 100u);
  EXPECT_EQ(via_origin->frames, via_edge->frames);
  ASSERT_EQ(via_origin->eos.size(), 1u);
  EXPECT_EQ(via_origin->eos, via_edge->eos);
  EXPECT_EQ(via_origin->eos[0].total,
            server->stored("lec")->packets.size());

  // The script did reach every verb: a seek epoch, resent indices.
  std::size_t after_seek = 0, index_40 = 0;
  for (const auto& f : via_origin->frames) {
    if (f.epoch == 1) ++after_seek;
    if (f.index == 40) ++index_40;
  }
  EXPECT_GT(after_seek, 0u);
  EXPECT_GE(index_40, 1u);  // the repair, whether or not 40 was paced too
}

// --- session accounting ------------------------------------------------------

TEST_F(TwoRoleFixture, SessionChurnLeavesNothingBehindInEitherRole) {
  ASSERT_NO_FATAL_FAILURE(warm_edge());
  RawClient via_origin(network, client_host, origin_host, 6000);
  RawClient via_edge(network, client_host, edge_host, 6100);
  const auto churn = [&](int sessions) {
    for (int i = 0; i < sessions; ++i) {
      for (RawClient* c : {&via_origin, &via_edge}) {
        c->session = 0;
        c->play("lec");
        sim.run_until(sim.now() + msec(50));
        ASSERT_NE(c->session, 0u);
        const std::uint64_t id = c->session;
        ASSERT_TRUE(listed(c->server, id));
        c->send(c->verb(Ctl::kStop));
        sim.run_until(sim.now() + msec(50));
        ASSERT_FALSE(listed(c->server, id));
        if (c == &via_origin) {
          ASSERT_FALSE(server->metrics().session(id).has_value());
        }
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(churn(100));
  const std::size_t series = sim.obs().metrics().series_count();
  ASSERT_NO_FATAL_FAILURE(churn(1900));
  sim.run_until(sim.now() + sec(5));

  // 2000 sessions per role cost the registry nothing over 100.
  EXPECT_EQ(server->metrics().sessions_opened(), 2000u);
  EXPECT_EQ(sim.obs().metrics().series_count(), series);
  EXPECT_EQ(server->active_sessions(), 0u);
  EXPECT_EQ(edge->active_sessions(), 0u);
  EXPECT_TRUE(sim.obs().sessions().empty());
}

TEST_F(TwoRoleFixture, DebugSessionsListsOpenSessionsOfEveryLiveEngine) {
  ASSERT_NO_FATAL_FAILURE(warm_edge());
  RawClient via_origin(network, client_host, origin_host, 6000);
  RawClient via_edge(network, client_host, edge_host, 6100);
  via_origin.play("lec");
  via_edge.play("lec");
  sim.run_until(sim.now() + sec(1));
  ASSERT_NE(via_edge.session, 0u);
  const auto row = [&](std::string_view role, net::HostId host,
                       std::uint64_t id) {
    return "{\"role\":\"" + std::string(role) +
           "\",\"host\":" + std::to_string(host) +
           ",\"id\":" + std::to_string(id) +
           ",\"client\":" + std::to_string(client_host) + ",";
  };
  const auto page = [&] {
    return obs::debug_sessions_json(sim.obs().snapshot(), sim.obs().sessions());
  };
  const std::string edge_row = row("edge", edge_host, via_edge.session);
  const std::string origin_row =
      row("server", origin_host, via_origin.session);
  std::string json = page();
  EXPECT_NE(json.find(edge_row), std::string::npos) << json;
  EXPECT_NE(json.find(origin_row), std::string::npos) << json;
  EXPECT_NE(json.find("\"lod.edge.active_sessions\""), std::string::npos);
  for (const obs::SessionRow& r : sim.obs().sessions()) {
    EXPECT_GT(r.stats.packets_sent, 0u);
    EXPECT_GT(r.stats.bytes_sent, r.stats.packets_sent);
  }

  // kStop takes the edge row off the page.
  via_edge.send(via_edge.verb(Ctl::kStop));
  sim.run_until(sim.now() + msec(100));
  json = page();
  EXPECT_EQ(json.find(edge_row), std::string::npos) << json;
  EXPECT_NE(json.find(origin_row), std::string::npos) << json;

  // A destroyed engine lists nothing, even with a session still open.
  via_edge.play("lec");
  sim.run_until(sim.now() + msec(100));
  ASSERT_TRUE(listed(edge_host, via_edge.session));
  edge.reset();
  json = page();
  EXPECT_EQ(json.find("\"role\":\"edge\""), std::string::npos) << json;
  EXPECT_NE(json.find(origin_row), std::string::npos) << json;
}

// --- origin exit paths ------------------------------------------------------

struct OriginFixture : ::testing::Test {
  OriginFixture() : network(sim, 5) {
    server_host = network.add_host("server");
    client_host = network.add_host("client");
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    network.add_link(server_host, client_host, lan);
    server = std::make_unique<StreamingServer>(network, server_host);
  }

  net::Simulator sim;
  net::Network network;
  net::HostId server_host{}, client_host{};
  std::unique_ptr<StreamingServer> server;
};

TEST_F(OriginFixture, RepublishingAShorterFileEndsPlayingSessions) {
  server->publish("lec", lecture(sec(30)));
  RawClient c(network, client_host, server_host, 6000);
  c.play("lec");
  sim.run_until(SimTime{sec(20).us});
  ASSERT_TRUE(c.eos.empty());
  ASSERT_GT(c.frames.back().index, 200u);

  const media::asf::File shorter = lecture(sec(2));
  const std::size_t total = shorter.packets.size();
  ASSERT_LT(total, c.frames.back().index);
  const std::size_t sent_before = c.frames.size();
  server->publish("lec", shorter);
  sim.run_until(SimTime{sec(40).us});

  // The next pacing tick finds the session past the new end: EOS with the
  // new length, and no packet beyond it.
  for (std::size_t i = sent_before; i < c.frames.size(); ++i) {
    EXPECT_LT(c.frames[i].index, total);
  }
  ASSERT_EQ(c.eos.size(), 1u);
  EXPECT_EQ(c.eos[0].total, total);
  EXPECT_LT(c.eos[0].at, sec(21));
}

TEST_F(OriginFixture, LateLiveJoinEndsOnlyTheLateJoiner) {
  const media::asf::File f = lecture(sec(2));
  auto sink = server->open_live_channel("live", f.header);
  RawClient early(network, client_host, server_host, 6000);
  early.join_live("live");
  sim.run_until(SimTime{msec(100).us});
  for (const auto& pkt : f.packets) sink(pkt);
  server->close_live_channel("live");
  sim.run_until(SimTime{sec(1).us});
  ASSERT_EQ(early.eos.size(), 1u);
  EXPECT_EQ(early.frames.size(), f.packets.size());

  RawClient late(network, client_host, server_host, 6100);
  late.join_live("live");
  sim.run_until(SimTime{sec(2).us});
  EXPECT_NE(late.session, 0u);
  EXPECT_EQ(late.eos.size(), 1u);
  EXPECT_TRUE(late.frames.empty());
  EXPECT_EQ(early.eos.size(), 1u);  // not told again
}

TEST_F(OriginFixture, DestroyingTheServerMidSessionCancelsItsTimers) {
  server->publish("lec", lecture(sec(10)));
  RawClient c(network, client_host, server_host, 6000);
  c.play("lec");
  sim.run_until(SimTime{sec(3).us});
  ASSERT_FALSE(c.frames.empty());
  server.reset();
  const std::size_t before = c.frames.size();
  sim.run_until(SimTime{sec(20).us});
  // Only datagrams already on the wire arrive; the pacer is gone.
  EXPECT_LE(c.frames.size(), before + 4);
  EXPECT_TRUE(c.eos.empty());
}

TEST_F(OriginFixture, VerbsOnAStoppedSessionAreIgnored) {
  sim.obs().flight().set_tracing(true);
  server->publish("lec", lecture(sec(10)));
  RawClient c(network, client_host, server_host, 6000);
  c.play("lec");
  sim.run_until(SimTime{sec(1).us});
  const std::uint64_t id = c.session;
  c.send(c.verb(Ctl::kStop));
  sim.run_until(SimTime{sec(2).us});
  ASSERT_EQ(server->active_sessions(), 0u);
  const std::size_t frames = c.frames.size();
  const std::uint64_t repairs = server->metrics().repairs();

  c.send(c.verb(Ctl::kPause));
  c.seek(sec(5));
  c.set_rate(2000);
  c.send(c.verb(Ctl::kResume));
  c.repair({1, 2});
  sim.run_until(SimTime{sec(5).us});

  const auto& trace = sim.obs().flight();
  for (auto type :
       {obs::FlightType::kSessionPause, obs::FlightType::kSessionSeek,
        obs::FlightType::kSessionRate, obs::FlightType::kSessionResume,
        obs::FlightType::kRepairResend}) {
    EXPECT_TRUE(trace.events(type).empty());
  }
  EXPECT_EQ(server->metrics().repairs(), repairs);
  EXPECT_FALSE(server->metrics().session(id).has_value());
  EXPECT_EQ(c.frames.size(), frames);
}

TEST(SessionEngineTimer, StopAtTheInstantThePacerIsDueMeansItNeverFires) {
  // PLAY and STOP leave the client together over a link too fast to
  // serialize them apart, so both arrive at one instant, PLAY first. A
  // session's first packet is due at once, so PLAY arms the pacer for that
  // same instant, behind STOP's arrival: STOP must cancel it.
  net::Simulator sim;
  net::Network network(sim, 5);
  const net::HostId server_host = network.add_host("server");
  const net::HostId client_host = network.add_host("client");
  net::LinkConfig fast;
  fast.bandwidth_bps = 1'000'000'000'000;
  fast.latency = msec(2);
  network.add_link(server_host, client_host, fast);
  StreamingServer server(network, server_host);
  server.publish("lec", lecture(sec(4)));
  sim.obs().flight().set_tracing(true);

  RawClient c(network, client_host, server_host, 6000);
  c.play("lec");
  c.session = 1;  // a fresh engine numbers its sessions from 1
  c.send(c.verb(Ctl::kStop));
  sim.run_until(SimTime{sec(2).us});

  const auto& trace = sim.obs().flight();
  const auto opened = trace.events(obs::FlightType::kSessionOpen);
  const auto stopped = trace.events(obs::FlightType::kSessionStop);
  ASSERT_EQ(opened.size(), 1u);
  ASSERT_EQ(stopped.size(), 1u);
  EXPECT_EQ(opened[0].t, stopped[0].t);
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_EQ(server.metrics().packets_sent(), 0u);
  EXPECT_TRUE(c.frames.empty());
  EXPECT_TRUE(c.eos.empty());
}

}  // namespace
}  // namespace lod::streaming
