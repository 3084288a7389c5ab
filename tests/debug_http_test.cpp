// The live /debug introspection plane over real kernel sockets: route
// catalog, hardened HTTP parsing (404 with a body, 405, 431 on an oversized
// request line, split reads), rollup-backed /debug/vars rates, the
// /debug/sessions rows of a live engine, and the /debug/flight journal
// served in dump format.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>

#include "lod/net/real_transport.hpp"
#include "lod/net/transport.hpp"
#include "lod/obs/flight.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/server.hpp"

namespace lod::net {
namespace {

constexpr HostId kHost = 1;
constexpr Port kPort = 19377;

/// Raw blocking client so tests control exactly how bytes hit the wire
/// (http_get always sends the request in one piece).
class RawConn {
 public:
  RawConn(const std::string& ip, Port port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    const timeval tv{5, 0};
    if (fd_ >= 0) ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }
  void send_all(std::string_view s) {
    std::size_t off = 0;
    while (off < s.size()) {
      const ssize_t n = ::send(fd_, s.data() + off, s.size() - off, 0);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }
  /// Read until the server closes (every response is Connection: close).
  std::string read_to_eof() {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_{-1};
};

class DebugHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RealTransport::Config cfg;
    cfg.rollup_window_us = 50'000;  // fast windows so rates appear mid-test
    net_ = std::make_unique<RealTransport>(cfg);
    net_->register_host(kHost, "origin");
    rpc_ = std::make_unique<RpcServer>(*net_, kHost, Port{19378});
    const Result<void> listening = net_->listen_tcp(kHost, kPort, *rpc_);
    ASSERT_TRUE(listening.has_value()) << to_string(listening.error());
    ip_ = net_->host_address(kHost);
    loop_ = std::thread([this] { net_->run(); });
  }
  void TearDown() override {
    net_->stop();
    loop_.join();
  }

  /// Run \p fn on the loop thread, where engines and sockets live, and wait.
  void on_loop(const std::function<void()>& fn) {
    std::promise<void> done;
    net_->schedule_at(net_->now(), [&] {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  }

  std::unique_ptr<RealTransport> net_;
  std::unique_ptr<RpcServer> rpc_;
  std::string ip_;
  std::thread loop_;
};

TEST_F(DebugHttpTest, MetricsStillServed) {
  const auto r = http_get(ip_, kPort, "/metrics");
  ASSERT_TRUE(r.has_value()) << to_string(r.error());
  EXPECT_EQ(r->status, 200);
  EXPECT_NE(r->body.find("lod_realnet_datagrams_sent"), std::string::npos);
}

TEST_F(DebugHttpTest, UnknownPathGets404WithCatalogBody) {
  const auto r = http_get(ip_, kPort, "/nope");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 404);
  EXPECT_NE(r->body.find("not found"), std::string::npos);
  EXPECT_NE(r->body.find("/debug/flight"), std::string::npos)
      << "404 body should list the route catalog";
}

TEST_F(DebugHttpTest, NonGetOnKnownRouteGets405) {
  RawConn c(ip_, kPort);
  ASSERT_TRUE(c.ok());
  c.send_all("POST /debug/vars HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string resp = c.read_to_eof();
  EXPECT_EQ(resp.find("HTTP/1.1 405"), 0u) << resp.substr(0, 64);
}

TEST_F(DebugHttpTest, OversizedRequestLineGets431) {
  RawConn c(ip_, kPort);
  ASSERT_TRUE(c.ok());
  // 16 KB of request line with no CRLF in sight: the server must answer
  // 431 and close instead of buffering forever.
  c.send_all("GET /" + std::string(16'000, 'a'));
  const std::string resp = c.read_to_eof();
  EXPECT_EQ(resp.find("HTTP/1.1 431"), 0u) << resp.substr(0, 64);
}

TEST_F(DebugHttpTest, SurvivesBytewiseSplitReads) {
  RawConn c(ip_, kPort);
  ASSERT_TRUE(c.ok());
  const std::string req = "GET /debug/sync HTTP/1.1\r\nHost: x\r\n\r\n";
  // Drip the request a byte at a time across many TCP segments; the parser
  // must wait for the full header, then answer normally.
  for (const char ch : req) {
    c.send_all({&ch, 1});
    if (ch == '\n') std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string resp = c.read_to_eof();
  EXPECT_EQ(resp.find("HTTP/1.1 200"), 0u) << resp.substr(0, 64);
  EXPECT_NE(resp.find("\"series\""), std::string::npos);
}

TEST_F(DebugHttpTest, VarsServesSeriesAndRollupRates) {
  // Generate traffic, then wait past a rollup window so a rate exists.
  rpc_->route("/ping", [](std::string_view, std::span<const std::byte>) {
    return std::make_pair(200, std::vector<std::byte>{});
  });
  TcpRpcClient rpc(ip_, kPort);
  for (int i = 0; i < 3; ++i) (void)rpc.call("/ping", {});
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto r = http_get(ip_, kPort, "/debug/vars");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(r->body.find("{\"t\":"), 0u);
  EXPECT_NE(r->body.find("\"rollup\":{\"windows\":"), std::string::npos);
  EXPECT_NE(r->body.find("\"series\":["), std::string::npos);
  EXPECT_NE(r->body.find("\"rates\":{"), std::string::npos);
}

TEST_F(DebugHttpTest, SessionsAndSyncRoutesAnswerJson) {
  const auto sessions = http_get(ip_, kPort, "/debug/sessions");
  ASSERT_TRUE(sessions.has_value());
  EXPECT_EQ(sessions->status, 200);
  EXPECT_EQ(sessions->body.find("{\"hosts\":["), 0u);

  // An origin with one open session: the page lists its row until the
  // engine is destroyed.
  constexpr HostId kClient = 2;
  constexpr Port kCtl = 19380;
  std::unique_ptr<streaming::StreamingServer> server;
  std::unique_ptr<ReliableEndpoint> ctl;
  std::unique_ptr<DatagramSocket> data;
  on_loop([&] {
    net_->register_host(kClient, "client");
    streaming::EncodeJob job;
    job.profile = *media::find_profile("Video 250k DSL/cable");
    media::LectureVideoSource v(sec(1), job.profile.fps, job.profile.width,
                                job.profile.height, 7);
    media::LectureAudioSource a(sec(1), job.profile.audio_sample_rate());
    streaming::ServerConfig cfg;
    cfg.control_port = kCtl;
    server = std::make_unique<streaming::StreamingServer>(*net_, kHost, cfg);
    server->publish("lec", streaming::encode_lecture(job, v, a, {}).file);
    ctl = std::make_unique<ReliableEndpoint>(*net_, kClient, Port{19390});
    data = std::make_unique<DatagramSocket>(*net_, kClient, Port{19391});
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(streaming::proto::Ctl::kPlay));
    w.str("lec");
    w.i64(0);
    w.u16(data->port());
    w.u32(0);  // no QoS channel
    ctl->send_to(kHost, kCtl, std::move(w).take());
  });
  const std::string row = "{\"role\":\"server\",\"host\":" +
                          std::to_string(kHost) + ",\"id\":1,\"client\":" +
                          std::to_string(kClient) + ",";
  std::string page;
  for (int i = 0; i < 500 && page.find(row) == std::string::npos; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (const auto r = http_get(ip_, kPort, "/debug/sessions")) page = r->body;
  }
  EXPECT_NE(page.find(row), std::string::npos) << page;
  EXPECT_NE(page.find("\"lod.server.sessions_opened\""), std::string::npos);
  on_loop([&] {
    server.reset();
    ctl.reset();
    data.reset();
  });
  const auto after = http_get(ip_, kPort, "/debug/sessions");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->body.find("\"sessions\":[]}"), std::string::npos)
      << after->body;

  const auto sync = http_get(ip_, kPort, "/debug/sync");
  ASSERT_TRUE(sync.has_value());
  EXPECT_EQ(sync->status, 200);
  EXPECT_EQ(sync->body.find("{\"series\":["), 0u);
}

TEST_F(DebugHttpTest, TraceRouteServesIndexAndSingleTree) {
  auto& trace = net_->obs().flight();
  trace.set_tracing(true);
  const obs::TraceContext ctx = trace.make_trace();
  const auto span = trace.begin_span(ctx, "edge.miss_fill", kHost);
  trace.end_span(ctx, span, "edge.miss_fill", kHost);

  const auto index = http_get(ip_, kPort, "/debug/trace");
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(index->status, 200);
  EXPECT_NE(index->body.find("\"traces\":["), std::string::npos);
  EXPECT_NE(index->body.find("edge.miss_fill"), std::string::npos);

  const auto tree = http_get(
      ip_, kPort, "/debug/trace?trace_id=" + std::to_string(ctx.trace_id));
  ASSERT_TRUE(tree.has_value());
  EXPECT_NE(tree->body.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(tree->body.find("\"critical_path\":"), std::string::npos);

  const auto missing = http_get(ip_, kPort, "/debug/trace?trace_id=999999");
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->body.find("trace not found"), std::string::npos);
}

TEST_F(DebugHttpTest, FlightRouteServesJournalInDumpFormat) {
  net_->obs().flight().record_at(42, obs::FlightType::kCacheMiss, kHost, 3);
  const auto r = http_get(ip_, kPort, "/debug/flight");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(r->body.find("{\"flight_dump\":{\"reason\":\"live\""), 0u);
  const auto events = obs::parse_jsonl(r->body);
  bool saw_miss = false;
  for (const auto& e : events) {
    if (e.type == obs::FlightType::kCacheMiss && e.a == 3) saw_miss = true;
  }
  EXPECT_TRUE(saw_miss) << "journal lost the recorded cache miss";
}

}  // namespace
}  // namespace lod::net
