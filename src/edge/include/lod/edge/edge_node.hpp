#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lod/edge/prefetch.hpp"
#include "lod/edge/segment_cache.hpp"
#include "lod/net/transport.hpp"
#include "lod/streaming/protocol.hpp"
#include "lod/streaming/server.hpp"

/// \file edge_node.hpp
/// The distributed edge-replica tier (tentpole of the §3 distributed-site
/// model): a relay server on a remote site's LAN that speaks the same
/// RTSP-in-spirit control protocol as the origin `StreamingServer`, serves
/// data packets out of a byte-budgeted `SegmentCache`, and fills misses from
/// the origin over an RPC gateway. A session served from a warm edge sees
/// edge-LAN latency; a cold miss pays the full origin round trip — exactly
/// the channel-delay places the paper's extended net attaches to distributed
/// sites.
///
/// Two halves:
///  - `OriginGateway` — runs next to the origin server and exports its
///    published files segment-wise (`/edge/meta`, `/edge/segment`).
///  - `EdgeNode` — runs on the edge host; players open sessions against it
///    exactly as they would against the origin (DESCRIBE / PLAY / PAUSE /
///    SEEK / RATE / REPAIR / TIMESYNC all work), while a
///    `PrefetchController` warms the segments the presentation order says
///    come next — re-anchored on every seek.

namespace lod::edge {

/// Where the origin exports segments to edges (homage to RTSP-alt 8554).
inline constexpr net::Port kOriginGatewayPort = 8554;

/// Serves the origin's published files to edge nodes, segment-wise.
class OriginGateway {
 public:
  OriginGateway(net::Transport& net, streaming::StreamingServer& origin,
                net::Port port = kOriginGatewayPort);

  /// The gateway's RPC route table. Alternate control planes (the real
  /// backend's TCP length-prefixed framing) bridge into the same routes
  /// via `RpcServer::handle`.
  net::RpcServer& rpc() { return rpc_; }

  std::uint64_t meta_requests() const { return m_meta_requests_.value(); }
  std::uint64_t segment_requests() const {
    return m_segment_requests_.value();
  }

 private:
  streaming::StreamingServer& origin_;
  net::RpcServer rpc_;
  obs::TraceSink* trace_{nullptr};
  obs::Counter m_meta_requests_;
  obs::Counter m_segment_requests_;
  obs::Counter m_segment_bytes_;
};

/// Edge tunables (mirrors `ServerConfig`'s aggregate style).
struct EdgeConfig {
  /// Control port; players hard-wire `proto::kControlPort`, so keep it there
  /// unless every client is configured to match. Data rides on +1, the
  /// origin RPC client on +2, the migration RPC server on +3
  /// (`proto::kMigratePortOffset`).
  net::Port control_port{streaming::proto::kControlPort};
  /// The origin site and its gateway port.
  net::HostId origin{0};
  net::Port origin_gateway_port{kOriginGatewayPort};
  /// Fast-start burst cap, as at the origin server.
  double fast_start_multiplier{4.0};
  /// Cache budget in bytes of segment payload.
  std::size_t cache_budget_bytes{16u * 1024 * 1024};
  /// Packets per cached segment (the fetch/warm granularity).
  std::uint32_t packets_per_segment{32};
  /// Segments to warm ahead of the playhead; 0 disables prefetch.
  std::uint32_t prefetch_depth{4};

  /// Normalized copy with every field forced into its legal range.
  EdgeConfig validated() const {
    EdgeConfig c = *this;
    if (!(c.fast_start_multiplier >= 1.0)) c.fast_start_multiplier = 1.0;
    if (c.packets_per_segment == 0) c.packets_per_segment = 1;
    return c;
  }
};

/// The edge relay server on one host.
class EdgeNode {
 public:
  EdgeNode(net::Transport& net, net::HostId host, EdgeConfig cfg);
  ~EdgeNode();
  EdgeNode(const EdgeNode&) = delete;
  EdgeNode& operator=(const EdgeNode&) = delete;

  /// Override the prefetch signal for \p content with a content-tree
  /// presentation order (see `presentation_order`); without one, prefetch
  /// walks the file linearly. May be called before the content is first
  /// requested.
  void set_presentation_order(const std::string& content,
                              std::vector<PacketRange> order);

  // --- introspection ---------------------------------------------------------

  const EdgeConfig& config() const { return config_; }
  net::HostId host() const { return host_; }
  const SegmentCache& cache() const { return cache_; }
  std::size_t active_sessions() const;
  std::uint64_t demand_fetches() const { return m_demand_fetches_.value(); }
  std::uint64_t prefetch_fetches() const {
    return m_prefetch_fetches_.value();
  }
  std::uint64_t packets_sent() const { return m_packets_sent_.value(); }
  /// Sessions adopted via the `/edge/migrate` handshake (counter is bound
  /// lazily; 0 until the first adoption).
  std::uint64_t migrations_adopted() const {
    return m_migrations_adopted_ ? m_migrations_adopted_.value() : 0;
  }
  /// The state image shipped with an adopted session (nullptr when the
  /// session is unknown or migrated with an empty image). The edge keeps it
  /// verbatim — interpretation belongs to the sync layer on the client.
  const std::vector<std::byte>* adopted_image(std::uint64_t session_id) const {
    auto it = adopted_images_.find(session_id);
    return it == adopted_images_.end() ? nullptr : &it->second;
  }

 private:
  /// Everything the edge needs to pace and seek one content, fetched once
  /// from the origin (`/edge/meta`) and kept for the node's lifetime.
  struct ContentMeta {
    media::asf::Header header;
    std::vector<std::byte> header_bytes;   ///< verbatim kDescribeOk payload
    std::vector<std::int64_t> send_times_us;
    std::vector<media::asf::IndexEntry> index;
    std::uint32_t packet_count{0};
    bool ready{false};
    bool fetching{false};
    /// DESCRIBEs parked until the meta lands.
    std::vector<std::pair<net::HostId, net::Port>> waiting_describe;
    std::optional<PrefetchController> prefetch;
    std::optional<std::vector<PacketRange>> order_override;
    /// Open "edge.meta_fill" span, owned by whichever DESCRIBE initiated
    /// the fetch; later describes park without their own span.
    obs::TraceContext fill_ctx;
    std::uint64_t fill_span{0};
  };

  struct Session {
    std::uint64_t id{};
    net::HostId client{};
    net::Port client_ctl_port{};
    net::Port data_port{};
    net::ChannelId channel{0};
    std::string content;
    /// Trace context from the player's PLAY (parent = its startup span);
    /// demand miss fills initiated for this session parent their spans here.
    obs::TraceContext ctx;
    std::uint32_t next_packet{0};
    std::uint64_t next_seq{0};
    std::uint32_t epoch{0};
    bool paused{false};
    bool stopped{false};
    /// Set while parked on a demand miss; a seek clears it, so a stale fetch
    /// completing later cannot double-schedule the session.
    std::optional<SegmentKey> waiting_on;
    double rate{1.0};
    net::SimTime pace_epoch{};
    net::SimDuration pace_offset{};
    net::SimTime last_send{};
    /// The instant the pacing timer was armed for; see
    /// `StreamingServer`'s limiter.
    net::SimTime timer_due{};
    std::optional<net::EventId> timer;
  };

  /// One origin fetch in flight; sessions and repairs park here.
  struct Fetch {
    bool demand{false};  ///< any demand-miss waiter (vs pure prefetch)
    std::vector<std::uint64_t> waiting_sessions;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> waiting_repairs;
    /// Context-linked span for demand fills initiated on behalf of a traced
    /// session; prefetch fills stay context-free.
    obs::TraceContext ctx;
    std::uint64_t span{0};
  };

  void handle_control(const net::ReliableEndpoint::Message& m);
  /// `/edge/migrate`: adopt a frozen session shipped by a failing-over
  /// player. Synchronous: 200 + {session id, start index} when the content
  /// meta is in hand, 503 (and a background meta warm) when it is not.
  std::pair<int, std::vector<std::byte>> handle_migrate(
      std::span<const std::byte> body);
  void reply_to(net::HostId h, net::Port p, std::vector<std::byte> payload);
  ContentMeta& ensure_meta(const std::string& content,
                           const obs::TraceContext& ctx = {});
  /// Parse an `/edge/meta` reply; a malformed one fails like a refusal.
  void on_meta(const std::string& content, std::span<const std::byte> body);
  /// The meta fill failed (\p status, 0 for no or malformed reply): answer
  /// every parked DESCRIBE with an error.
  void fail_meta(const std::string& content, int status);
  void schedule_next(Session& s);
  void deliver_due(std::uint64_t sid);
  /// Send one cached wire packet: per-send frame header in the payload, the
  /// cached serialized bytes as a shared body — no byte copy per send.
  void send_packet(Session& s, const net::Payload& bytes,
                   std::uint32_t packet_index);
  void start_fetch(const std::string& content, std::uint32_t segment,
                   bool demand, const obs::TraceContext& ctx = {});
  void on_segment(const std::string& content, std::uint32_t segment,
                  int status, const net::Payload& body);
  void prefetch_tick(const std::string& content, std::uint32_t playhead);
  std::uint32_t packet_for(const ContentMeta& meta, net::SimDuration t) const;
  Session* find_session(std::uint64_t id);
  void end_session(Session& s);

  net::Transport& net_;
  net::HostId host_;
  EdgeConfig config_;
  net::ReliableEndpoint ctl_;
  net::DatagramSocket data_;
  net::RpcClient origin_rpc_;
  net::RpcServer migrate_rpc_;
  SegmentCache cache_;
  obs::TraceSink* trace_{nullptr};
  obs::Counter m_packets_sent_;
  obs::Counter m_bytes_sent_;
  obs::Counter m_sessions_opened_;
  obs::Gauge m_active_sessions_;
  obs::Counter m_demand_fetches_;
  obs::Counter m_prefetch_fetches_;
  obs::Counter m_fetch_bytes_;
  obs::Counter m_repairs_;
  /// Lazily bound on first adoption (keeps migration-free goldens stable).
  obs::Counter m_migrations_adopted_;
  obs::Histogram m_miss_fill_us_;
  /// State images received with adopted sessions, kept verbatim for the
  /// client-side sync layer (and the migration tests) to read back.
  std::unordered_map<std::uint64_t, std::vector<std::byte>> adopted_images_;
  std::unordered_map<std::string, ContentMeta> contents_;
  std::unordered_map<SegmentKey, Fetch, SegmentKeyHash> inflight_;
  std::unordered_map<SegmentKey, net::SimTime, SegmentKeyHash> fetch_started_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_{1};
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace lod::edge
