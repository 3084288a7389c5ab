#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lod/net/bytes.hpp"
#include "lod/net/payload.hpp"
#include "lod/net/result.hpp"
#include "lod/net/transport_base.hpp"

/// \file transport.hpp
/// End-host transport over the abstract `net::Transport` seam.
///
/// Two layers, mirroring what the paper's stack used:
///  - `DatagramSocket`  — raw, unreliable, unordered (UDP-like). Media data
///    packets ride here; a late frame is a dropped frame.
///  - `ReliableEndpoint` — per-peer ordered reliable message delivery with
///    positive ACKs and timer-based retransmission (a deliberately small TCP
///    stand-in). Control traffic (publishing, floor control, RTSP-like
///    commands, HTTP-ish requests) rides here.
///
/// Everything here is backend-agnostic: the same socket/endpoint/RPC objects
/// run over the simulated fabric (`SimTransport`) and over real kernel UDP
/// sockets (`RealTransport`) without a line of difference.

namespace lod::net {

/// UDP-like socket: unreliable, unordered message delivery.
class DatagramSocket {
 public:
  using Handler = std::function<void(const Datagram&)>;

  /// Binds (host, port) on construction and unbinds on destruction.
  DatagramSocket(Transport& net, HostId host, Port port);
  ~DatagramSocket();
  DatagramSocket(const DatagramSocket&) = delete;
  DatagramSocket& operator=(const DatagramSocket&) = delete;

  void on_receive(Handler h) { handler_ = std::move(h); }

  /// Fire-and-forget send. \p header_overhead models UDP/IP framing cost on
  /// the wire without polluting the payload. Tag \p channel to ride a QoS
  /// reservation. A freshly-encoded vector adopts into the Payload with no
  /// byte copy.
  bool send_to(HostId dst, Port dst_port, Payload payload,
               std::uint32_t header_overhead = 28, ChannelId channel = 0);

  /// Scatter-gather send: \p header is the per-send frame header, \p body a
  /// shared immutable attachment (cached segment, inflight message). Neither
  /// is copied; the wire charges header + body + overhead.
  bool send_to(HostId dst, Port dst_port, Payload header, Payload body,
               std::uint32_t header_overhead, ChannelId channel = 0);

  HostId host() const { return host_; }
  Port port() const { return port_; }

 private:
  Transport& net_;
  HostId host_;
  Port port_;
  Handler handler_;
};

/// Ordered, reliable, message-oriented endpoint (one per host/port).
///
/// Each remote (host, port) pair gets an independent sequence space. Senders
/// retransmit unacknowledged segments on a fixed RTO; receivers deliver in
/// order and ACK cumulatively. Duplicate suppression is by sequence number.
///
/// Every endpoint instance carries a unique INCARNATION number in its
/// frames. When a new endpoint reuses a (host, port) — a reconnect — peers
/// see the changed incarnation and reset that peer's receive state instead
/// of mistaking the fresh sequence space for stale duplicates (the same job
/// TCP's ISN randomization does).
class ReliableEndpoint {
 public:
  /// Delivered message: who sent it and its payload (a zero-copy view of
  /// the received datagram's shared body).
  struct Message {
    HostId src;
    Port src_port;
    Payload payload;
  };
  using Handler = std::function<void(const Message&)>;

  ReliableEndpoint(Transport& net, HostId host, Port port,
                   SimDuration rto = msec(200), int max_retries = 20);
  ~ReliableEndpoint();
  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  void on_receive(Handler h) { handler_ = std::move(h); }

  /// Queue a message for reliable in-order delivery to the peer. The bytes
  /// are never copied again: the inflight buffer holds the same shared body
  /// every (re)transmission attaches to its frame.
  void send_to(HostId dst, Port dst_port, Payload payload);

  /// True when every message sent so far has been acknowledged.
  bool all_acked() const;

  /// Number of retransmissions performed (observable in benches/tests).
  std::uint64_t retransmissions() const { return retransmissions_; }

  HostId host() const { return host_; }
  Port port() const { return port_; }

 private:
  struct PeerKey {
    HostId host;
    Port port;
    bool operator==(const PeerKey&) const = default;
  };
  struct PeerKeyHash {
    std::size_t operator()(const PeerKey& k) const {
      return (static_cast<std::size_t>(k.host) << 16) ^ k.port;
    }
  };
  /// Per-peer send state. Messages in flight are a ring over the seqs
  /// [base, next_seq), seq at offset `seq - base` from `head`. An ACK marks
  /// its range done and the ring drops its done prefix, so normally
  /// base == acked_upto and the ring holds exactly the unacknowledged
  /// messages, in storage reused for the whole conversation.
  struct TxState {
    struct Slot {
      Payload msg;
      bool live{false};
    };
    std::uint64_t next_seq{0};
    std::uint64_t acked_upto{0};  ///< all seq < this are acknowledged
    std::uint64_t base{0};        ///< seq held by ring[head]
    std::vector<Slot> ring;       ///< size a power of two (or empty)
    std::size_t head{0};          ///< ring position of `base`

    /// The message for \p seq while it is still unacknowledged, else null.
    const Payload* inflight(std::uint64_t seq) const;
    void push(Payload msg);
    /// Acknowledge every seq in [acked_upto, upto) that has been sent.
    void ack(std::uint64_t upto);
    bool empty() const { return base == next_seq; }

   private:
    /// Ring position of \p seq; valid for base <= seq < base + ring.size().
    std::size_t index(std::uint64_t seq) const {
      return (head + (seq - base)) & (ring.size() - 1);
    }
  };
  struct RxState {
    std::uint64_t peer_incarnation{0};
    std::uint64_t next_expected{0};
    std::unordered_map<std::uint64_t, Payload> out_of_order;
  };

  void handle_packet(const Datagram& p);
  void transmit(const PeerKey& peer, std::uint64_t seq, const Payload& msg);
  void arm_retransmit(const PeerKey& peer, std::uint64_t seq, int tries_left);
  void send_ack(const PeerKey& peer, std::uint64_t peer_incarnation,
                std::uint64_t ack_upto);

  /// This endpoint's incarnation (unique per constructed endpoint).
  const std::uint64_t incarnation_;

  Transport& net_;
  HostId host_;
  Port port_;
  SimDuration rto_;
  int max_retries_;
  Handler handler_;
  std::unordered_map<PeerKey, TxState, PeerKeyHash> tx_;
  std::unordered_map<PeerKey, RxState, PeerKeyHash> rx_;
  std::uint64_t retransmissions_{0};
  obs::Counter messages_sent_;
  obs::Counter messages_delivered_;
  obs::Counter retransmissions_metric_;
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

/// Minimal request/response layer over `ReliableEndpoint` — the stand-in for
/// the paper's "server HTTP port and URL for Internet/LAN connections".
class RpcServer {
 public:
  /// A handler maps (path, request body) -> (status code, response body).
  using Handler = std::function<std::pair<int, std::vector<std::byte>>(
      std::string_view path, std::span<const std::byte> body)>;

  RpcServer(Transport& net, HostId host, Port port);

  /// Register a handler for an exact path (e.g. "/publish").
  void route(std::string path, Handler h);

  /// Dispatch a request synchronously through the route table, exactly as a
  /// transport-delivered request would be. This is the bridge other control
  /// planes use — `RealTransport`'s TCP listener serves its length-prefixed
  /// RPC framing by funneling decoded frames through here, so one route
  /// table answers both the reliable-datagram and the TCP path.
  std::pair<int, std::vector<std::byte>> handle(
      std::string_view path, std::span<const std::byte> body) const;

 private:
  void dispatch(const ReliableEndpoint::Message& m);

  ReliableEndpoint ep_;
  std::unordered_map<std::string, Handler> routes_;
};

/// A decoded RPC response: the application-level status plus a zero-copy
/// slice of the response message (callers that stash the body — the edge
/// segment cache — keep it refcounted).
struct RpcReply {
  int status{0};
  Payload body;
};

/// Client side of `RpcServer`.
class RpcClient {
 public:
  /// Response callback: the reply, or the uniform transport error
  /// (`Error::kTimeout` when the deadline passed with no response).
  using Callback = std::function<void(Result<RpcReply>)>;

  /// Per-call knobs.
  struct CallOptions {
    /// Give up and report `Error::kTimeout` after this long. Negative (the
    /// default) disarms the deadline: the callback fires only if a response
    /// arrives. Deterministic sim workloads keep the default so no extra
    /// timer events exist; real-socket callers should always set one.
    SimDuration timeout{usec(-1)};
  };

  RpcClient(Transport& net, HostId host, Port port);
  ~RpcClient();

  /// Issue a request; \p cb fires when the response arrives (or the timeout
  /// in \p opts expires, whichever is first).
  void call(HostId server, Port server_port, std::string_view path,
            std::vector<std::byte> body, Callback cb, CallOptions opts);
  void call(HostId server, Port server_port, std::string_view path,
            std::vector<std::byte> body, Callback cb) {
    call(server, server_port, path, std::move(body), std::move(cb),
         CallOptions{});
  }

 private:
  struct Pending {
    Callback cb;
    EventId deadline{0};  ///< 0 = no deadline armed
  };

  Transport& net_;
  ReliableEndpoint ep_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_req_{1};
};

}  // namespace lod::net
