#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lod/net/result.hpp"
#include "lod/net/timing_wheel.hpp"
#include "lod/net/transport_base.hpp"
#include "lod/obs/hub.hpp"
#include "lod/obs/rollup.hpp"

/// \file real_transport.hpp
/// The kernel-socket backend of the `net::Transport` seam.
///
/// One `RealTransport` is one event loop (epoll) over real sockets:
///
///  - every `bind(host, port)` opens a non-blocking UDP socket on that
///    host's loopback address; media data, reliable-endpoint segments and
///    RPC frames all ride real UDP datagrams,
///  - `listen_tcp` opens a TCP listener that serves two protocols on one
///    port, sniffed from the first bytes of each connection: plain HTTP
///    (GET /metrics answers with the Prometheus text rendition of this
///    transport's registry) and the "LODR" length-prefixed RPC framing
///    (decoded frames funnel through `RpcServer::handle`, so one route
///    table answers the UDP and the TCP control planes),
///  - timers sit on a `TimingWheel`, the simulator's queue, and fire in
///    the same (time, schedule order); the wheel's next due time is the
///    epoll wait deadline, read off a monotonic microsecond clock shared
///    by every instance in the process.
///
/// Addressing: `HostId h` maps to the loopback IPv4 address `base_ip + h`.
/// Linux routes all of 127.0.0.0/8 locally, so every host gets its own real
/// IP with no configuration. The default base derives from the process id,
/// letting parallel test processes share a kernel without port collisions.
/// Several instances in one process (one per "machine", each with its own
/// loop thread) agree on the mapping automatically and talk to each other
/// through the kernel exactly as separate processes would.
///
/// Threading contract: everything except `stop()`, `schedule_at`/`cancel`
/// and the blocking helpers below is confined to the loop thread — the
/// thread that calls `run()` — or to the single owning thread before `run()`
/// starts. Receiver and timer callbacks fire on the loop thread.
///
/// UDP datagrams carry a small frame header (magic, src host/port, channel,
/// payload length) so the receiver can rebuild the seam's `Datagram` —
/// including the exact payload/body split senders chose — from one recv.
/// Sends are scatter-gather (`sendmsg` with header, payload and body
/// iovecs): the zero-copy `Payload` contract holds right down to the
/// syscall. Datagrams above ~64KB exceed UDP's limit and are reported
/// undeliverable (`send` returns false), like any IP stack would.

namespace lod::net {

class RpcServer;
struct RpcReply;

class RealTransport : public Transport {
 public:
  struct Config {
    /// Host-order base IPv4 for the `HostId -> 127.x.y.z` mapping. 0 (the
    /// default) derives a per-process base inside 127.0.0.0/8 from the pid.
    std::uint32_t base_ip{0};
    /// Metrics rollup window (see obs::RollupStore): `run()` snapshots the
    /// registry every `rollup_window_us` and retains `rollup_windows`
    /// deltas, which `/debug/vars` turns into rates. 0 disables rolling.
    std::int64_t rollup_window_us{1'000'000};
    std::size_t rollup_windows{64};
  };

  /// Largest sendable datagram (header + payload + body), conservatively
  /// under UDP's 65507-byte ceiling.
  static constexpr std::size_t kMaxDatagram = 65000;

  RealTransport() : RealTransport(Config{}) {}
  explicit RealTransport(Config cfg);
  ~RealTransport() override;

  // --- Transport seam -------------------------------------------------------

  obs::Hub& obs() override { return hub_; }
  /// Monotonic microseconds since the first RealTransport in this process
  /// was constructed — one timeline shared by every instance.
  SimTime now() const override;
  EventId schedule_at(SimTime t, TimerFn fn) override;
  bool cancel(EventId id) override;
  HostClock& clock(HostId h) override;
  SimTime local_now(HostId h) const override;
  std::string endpoint_name(HostId h) const override;
  std::optional<HostId> find_endpoint(std::string_view name) const override;
  void bind(HostId h, Port port, Receiver r) override;
  void unbind(HostId h, Port port) override;
  bool send(Datagram d) override;
  // QoS reservations keep the base-class best-effort defaults: a real
  // kernel path has no reservation service, exactly like the paper's
  // Internet deployment next to its QoS-capable campus LAN.

  // --- topology -------------------------------------------------------------

  /// Create the next host id, optionally named. Ids count up from 0 within
  /// this instance; instances that must interoperate coordinate ids via
  /// `register_host`.
  HostId add_host(std::string name = {});

  /// Register a specific host id (used when several instances in one
  /// process model different machines and must agree on the id space).
  void register_host(HostId h, std::string name = {});

  /// The dotted-quad loopback address host \p h answers on.
  std::string host_address(HostId h) const;

  /// Timers scheduled and neither fired nor cancelled.
  std::size_t pending_timers() const;

  // --- TCP control plane ----------------------------------------------------

  /// Listen on (host, port) serving HTTP and LODR-framed RPC bridged into
  /// \p rpc's route table. The HTTP side serves the introspection plane:
  /// `GET /metrics` (Prometheus text) plus the `/debug/*` catalog —
  /// `/debug/vars` (JSON snapshot + rollup rates), `/debug/sessions`,
  /// `/debug/sync`, `/debug/trace[?trace_id=N]` (SpanTree JSON) and
  /// `/debug/flight` (live journal JSONL); see docs/OBSERVABILITY.md.
  /// Unknown paths get a 404 with a body, non-GET a 405, an oversized
  /// request line a 431. The listener binds \p bind_address when nonempty
  /// (must be this host's address or a wildcard), else the host's own
  /// loopback address.
  Result<void> listen_tcp(HostId h, Port port, RpcServer& rpc,
                          const std::string& bind_address = {},
                          int backlog = 64);
  void close_tcp(HostId h, Port port);

  // --- event loop -----------------------------------------------------------

  /// Run the loop on the calling thread until `stop()`.
  void run();

  /// Signal the loop to exit; safe from any thread (and from callbacks).
  void stop();

 private:
  struct HostState {
    std::string name;
    HostClock clock;
  };
  struct UdpSocket {
    int fd{-1};
    HostId host{0};
    Port port{0};
    Receiver receiver;
  };
  struct TcpListener {
    int fd{-1};
    HostId host{0};
    Port port{0};
    RpcServer* rpc{nullptr};
  };
  /// One accepted TCP connection; protocol unknown until sniffed.
  struct TcpConn {
    int fd{-1};
    RpcServer* rpc{nullptr};
    obs::Hub* hub{nullptr};
    std::vector<std::byte> buf;
    enum class Mode { kSniff, kRpc, kHttp } mode{Mode::kSniff};
  };

  static std::uint64_t port_key(HostId h, Port p) {
    return (static_cast<std::uint64_t>(h) << 16) | p;
  }

  std::uint32_t ip_of(HostId h) const { return base_ip_ + h; }
  void wakeup();
  void fire_due_timers();
  /// Epoll-wait timeout until the next timer, in milliseconds (-1 = none).
  int next_timeout_ms();
  void on_udp_readable(UdpSocket& s);
  void on_tcp_accept(TcpListener& l);
  void on_tcp_readable(int fd);
  bool drain_tcp_conn(TcpConn& c);  ///< false -> close the connection
  void close_conn(int fd);
  /// Serve one parsed HTTP request line (loop thread). Returns the full
  /// response; routing lives here, rendering in obs/debug.hpp.
  std::string http_respond(std::string_view method, std::string_view target);
  /// Snapshot the registry into the rollup and re-arm the periodic timer.
  void rollup_tick();

  obs::Hub hub_;
  obs::RollupStore rollup_;
  std::int64_t rollup_window_us_{0};  ///< 0 = rolling disabled
  bool rollup_armed_{false};
  std::uint32_t base_ip_;
  int epoll_fd_{-1};
  int wake_fd_{-1};
  int tx_fd_{-1};  ///< shared send socket; src rides in the frame header
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread::id loop_thread_;

  std::unordered_map<HostId, HostState> hosts_;
  HostId next_host_{0};
  std::unordered_map<std::uint64_t, int> udp_by_port_;  ///< port_key -> fd
  std::unordered_map<int, UdpSocket> udp_;              ///< fd -> socket
  std::unordered_map<std::uint64_t, int> tcp_by_port_;
  std::unordered_map<int, TcpListener> listeners_;
  std::unordered_map<int, TcpConn> conns_;

  mutable std::mutex timer_mu_;
  TimingWheel timers_;  ///< guarded by timer_mu_
  std::uint64_t next_datagram_{1};
  std::vector<std::byte> rx_buf_;  ///< loop-thread recv staging

  obs::Counter m_dg_sent_;     ///< lod.realnet.datagrams_sent
  obs::Counter m_dg_recv_;     ///< lod.realnet.datagrams_received
  obs::Counter m_dg_dropped_;  ///< lod.realnet.datagrams_dropped (send fail)
  obs::Counter m_bind_fail_;   ///< lod.realnet.bind_failures
  /// lod.net.frames_dropped — malformed LODU/LODR frames counted+dropped.
  obs::Counter m_frames_dropped_;
};

// --- blocking client helpers -------------------------------------------------
//
// Small synchronous clients for driving a RealTransport node from OUTSIDE
// its loop thread (tests, demo tools): they own plain blocking sockets and
// never touch the epoll loop.

/// A decoded HTTP response (status line code + entity body).
struct HttpResponse {
  int status{0};
  std::string body;
};

/// Blocking one-shot `GET path` against `ip:port`. Connection errors map to
/// the seam's uniform error codes (`kRefused`, `kTimeout`, ...).
Result<HttpResponse> http_get(const std::string& ip, Port port,
                              const std::string& path, int timeout_ms = 5000);

/// Blocking client for the LODR TCP framing `listen_tcp` serves. One
/// connection, reused across calls; reconnects after `kClosed`.
class TcpRpcClient {
 public:
  TcpRpcClient(std::string ip, Port port);
  ~TcpRpcClient();
  TcpRpcClient(const TcpRpcClient&) = delete;
  TcpRpcClient& operator=(const TcpRpcClient&) = delete;

  /// Issue one request and wait for its response.
  Result<RpcReply> call(std::string_view path, std::span<const std::byte> body,
                        int timeout_ms = 5000);

 private:
  Result<void> ensure_connected(int timeout_ms);

  std::string ip_;
  Port port_;
  int fd_{-1};
};

}  // namespace lod::net
