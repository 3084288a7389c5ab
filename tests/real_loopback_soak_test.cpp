#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "lod/edge/edge_node.hpp"
#include "lod/media/sources.hpp"
#include "lod/net/real_transport.hpp"
#include "lod/obs/flight.hpp"
#include "lod/obs/metrics.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"

/// \file real_loopback_soak_test.cpp
/// The whole distributed lecture pipeline over real kernel sockets.
///
/// Three `RealTransport` instances — three modeled machines, each with its
/// own epoll loop thread on its own 127.x.y.z loopback address — run the
/// paper's full topology: an origin streaming server with its web server
/// and edge gateway, an edge node, and a player. The player opens a session
/// at the EDGE (describe -> play -> slide script-commands -> teardown), the
/// edge faults lecture segments in from the origin over RPC, and mid-playout
/// an outside thread scrapes the origin's Prometheus endpoint over real
/// HTTP and issues a TCP RPC — the same control plane a curl or a browser
/// would hit.
///
/// Media pacing runs on the wall clock here, so the lecture is kept short
/// (~2.5 s) and the whole test is wall-clock guarded: taking minutes would
/// mean pacing is broken, not that CI is slow.

namespace lod::streaming {
namespace {

using media::asf::ScriptCommand;
using net::msec;
using net::sec;

constexpr net::HostId kOrigin = 1;
constexpr net::HostId kEdge = 2;
constexpr net::HostId kClient = 3;
// Unprivileged ports: CI runners can't bind the paper-era 554/80.
constexpr net::Port kCtl = 18554;
constexpr net::Port kGateway = 18556;
constexpr net::Port kWeb = 18080;
constexpr net::Port kHttpTcp = 19180;

void register_topology(net::RealTransport& t) {
  t.register_host(kOrigin, "origin");
  t.register_host(kEdge, "edge");
  t.register_host(kClient, "client");
}

TEST(RealLoopbackSoak, FullLectureThroughEdgeOverKernelSockets) {
  const auto wall_start = std::chrono::steady_clock::now();

  // --- content: a short lecture with two slide flips --------------------
  EncodeJob job;
  job.profile = *media::find_profile("Video 250k DSL/cable");
  job.title = "Loopback Lecture";
  job.author = "Prof";
  job.preroll = msec(500);
  media::LectureVideoSource v(msec(2500), job.profile.fps, job.profile.width,
                              job.profile.height, 7);
  media::LectureAudioSource a(msec(2500), job.profile.audio_sample_rate());
  const auto times = media::make_slide_schedule(2, msec(2500), 17);
  auto scripts = slide_flip_commands(times, "slides/");
  auto enc = encode_lecture(job, v, a, scripts);

  // --- origin machine: server + web server + edge gateway ----------------
  net::RealTransport origin_net;
  register_topology(origin_net);
  ServerConfig scfg;
  scfg.control_port = kCtl;
  StreamingServer server(origin_net, kOrigin, scfg);
  server.publish("lecture", std::move(enc.file));
  edge::OriginGateway gateway(origin_net, server, kGateway);
  net::RpcServer web(origin_net, kOrigin, kWeb);
  for (std::uint32_t i = 0; i < 2; ++i) {
    web.route("/slides/" + std::to_string(i),
              [](std::string_view, std::span<const std::byte>) {
                return std::make_pair(200, media::asf::pattern_bytes(8'000, 1));
              });
  }
  // The TCP control plane: HTTP metrics and LODR RPC share the port, and
  // the RPC side reuses the web server's route table.
  const net::Result<void> listening =
      origin_net.listen_tcp(kOrigin, kHttpTcp, web);
  ASSERT_TRUE(listening.has_value())
      << "listen_tcp: " << net::to_string(listening.error());

  // --- edge machine ------------------------------------------------------
  net::RealTransport edge_net;
  register_topology(edge_net);
  edge::EdgeConfig ecfg;
  ecfg.control_port = kCtl;
  ecfg.origin = kOrigin;
  ecfg.origin_gateway_port = kGateway;
  edge::EdgeNode edge(edge_net, kEdge, ecfg);

  // --- client machine ----------------------------------------------------
  net::RealTransport client_net;
  register_topology(client_net);
  PlayerConfig pcfg;
  pcfg.model = SyncModel::kEtpn;
  pcfg.server_port = kCtl;  // the EDGE's control port, not 554
  pcfg.web_server = kOrigin;
  pcfg.web_port = kWeb;
  pcfg.preroll_override = msec(400);
  pcfg.repair_losses = true;
  pcfg.auto_stop_on_finish = true;
  Player player(client_net, kClient, pcfg);

  // --- run: one loop thread per "machine", client loop on this thread ----
  std::thread origin_thread([&] { origin_net.run(); });
  std::thread edge_thread([&] { edge_net.run(); });

  // Mid-playout, an outside observer scrapes the origin exactly as curl
  // would, and issues one RPC over the TCP framing.
  net::Result<net::HttpResponse> scraped = net::Error::kTimeout;
  net::Result<net::RpcReply> tcp_rpc = net::Error::kTimeout;
  net::Result<net::HttpResponse> not_found = net::Error::kTimeout;
  net::Result<net::HttpResponse> debug_vars = net::Error::kTimeout;
  net::Result<net::HttpResponse> debug_flight = net::Error::kTimeout;
  std::thread scraper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    const std::string origin_ip = origin_net.host_address(kOrigin);
    scraped = net::http_get(origin_ip, kHttpTcp, "/metrics");
    not_found = net::http_get(origin_ip, kHttpTcp, "/nope");
    debug_vars = net::http_get(origin_ip, kHttpTcp, "/debug/vars");
    debug_flight = net::http_get(origin_ip, kHttpTcp, "/debug/flight");
    net::TcpRpcClient rpc(origin_ip, kHttpTcp);
    tcp_rpc = rpc.call("/slides/0", {});
  });

  player.open_and_play(kEdge, "lecture");
  std::function<void()> watch = [&] {
    if (player.finished()) {
      client_net.stop();
      return;
    }
    client_net.schedule_after(msec(50), watch);
  };
  client_net.schedule_after(msec(50), watch);
  const net::EventId guard =
      client_net.schedule_after(sec(20), [&] { client_net.stop(); });
  client_net.run();
  client_net.cancel(guard);

  scraper.join();
  edge_net.stop();
  origin_net.stop();
  edge_thread.join();
  origin_thread.join();

  // --- the lecture actually played, through the edge ---------------------
  EXPECT_TRUE(player.finished()) << "player never reached end of stream";
  EXPECT_EQ(player.slides().size(), 2u) << "slide script-commands dropped";
  // In the edge topology the origin serves media through the gateway's RPC
  // surface, not through its own streaming sessions.
  EXPECT_GT(origin_net.obs()
                .metrics()
                .counter("lod.edge.origin.segment_requests",
                         obs::Labels{{"host", std::to_string(kOrigin)}})
                .value(),
            0u)
      << "origin gateway never served the edge's fetches";
  EXPECT_GT(
      edge_net.obs().metrics().counter("lod.realnet.datagrams_sent").value(),
      0u)
      << "edge machine never put datagrams on the wire";

  // --- the control plane answered real TCP during playout ----------------
  ASSERT_TRUE(scraped.has_value())
      << "HTTP scrape failed: " << net::to_string(scraped.error());
  EXPECT_EQ(scraped->status, 200);
  EXPECT_NE(scraped->body.find("lod_server_packets_sent"), std::string::npos)
      << "Prometheus export missing server series";
  ASSERT_TRUE(not_found.has_value());
  EXPECT_EQ(not_found->status, 404);
  ASSERT_TRUE(tcp_rpc.has_value())
      << "TCP RPC failed: " << net::to_string(tcp_rpc.error());
  EXPECT_EQ(tcp_rpc->status, 200);
  EXPECT_EQ(tcp_rpc->body.size(), 8'000u);

  // --- the /debug plane answered mid-playout ------------------------------
  ASSERT_TRUE(debug_vars.has_value())
      << "/debug/vars scrape failed: " << net::to_string(debug_vars.error());
  EXPECT_EQ(debug_vars->status, 200);
  EXPECT_NE(debug_vars->body.find("\"series\""), std::string::npos);
  ASSERT_TRUE(debug_flight.has_value())
      << "/debug/flight scrape failed: "
      << net::to_string(debug_flight.error());
  EXPECT_EQ(debug_flight->status, 200);
  EXPECT_EQ(debug_flight->body.find("{\"flight_dump\":"), 0u);
  EXPECT_FALSE(obs::parse_jsonl(debug_flight->body).empty())
      << "flight journal empty mid-playout";

  // Persist the scraped journal so CI can upload it next to the bench
  // results (path via LOD_FLIGHT_DUMP, default alongside the test binary).
  const char* dump_env = std::getenv("LOD_FLIGHT_DUMP");
  const std::string dump_path = dump_env ? dump_env : "flight_dump.jsonl";
  {
    std::ofstream out(dump_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << dump_path;
    out << debug_flight->body;
  }

  // --- wall-clock guard: pacing ran in real time, not in minutes ---------
  const auto elapsed = std::chrono::steady_clock::now() - wall_start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            15)
      << "soak exceeded its wall-clock budget";
}

}  // namespace
}  // namespace lod::streaming
