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
#include "lod/streaming/session_engine.hpp"

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
  obs::FlightRecorder* flight_{nullptr};
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

/// The edge relay server on one host: the session engine over the segment
/// cache, filled from the origin.
class EdgeNode : private streaming::SessionEngine {
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
  using SessionEngine::host;
  const SegmentCache& cache() const { return cache_; }
  using SessionEngine::active_sessions;
  std::uint64_t demand_fetches() const { return m_demand_fetches_.value(); }
  std::uint64_t prefetch_fetches() const {
    return m_prefetch_fetches_.value();
  }
  /// Sessions adopted via the `/edge/migrate` handshake (counter is bound
  /// lazily; 0 until the first adoption).
  std::uint64_t migrations_adopted() const {
    return m_migrations_adopted_ ? m_migrations_adopted_.value() : 0;
  }

 private:
  /// Everything the edge needs to pace and seek one content, fetched once
  /// from the origin (`/edge/meta`) and kept for the node's lifetime. As a
  /// packet source it serves the segment cache; a miss parks the session on
  /// the segment's fill.
  struct ContentMeta final : streaming::PacketSource {
    ContentMeta(EdgeNode* n, std::string nm) : node(n), name(std::move(nm)) {}
    EdgeNode* node;
    std::string name;
    std::vector<std::byte> header_bytes;  ///< verbatim kDescribeOk payload
    bool ready{false};
    bool fetching{false};
    /// DESCRIBEs parked until the meta lands.
    std::vector<std::pair<net::HostId, net::Port>> waiting_describe;
    std::optional<PrefetchController> prefetch;  ///< built at the first tick
    std::optional<std::vector<PacketRange>> order_override;
    /// Open "edge.meta_fill" span, owned by whichever DESCRIBE initiated
    /// the fetch; later describes park without their own span.
    obs::TraceContext fill_ctx;
    std::uint64_t fill_span{0};

    const net::Payload* packet(std::uint32_t i) override;
    std::uint32_t park(std::uint64_t session, std::uint32_t i,
                       const obs::TraceContext& ctx) override;
    void park_repair(std::uint64_t session, std::uint32_t i) override;
    void playhead_moved(std::uint32_t i, bool jump) override;
  };

  /// One origin fetch in flight; sessions and repairs park here.
  struct Fetch {
    bool demand{false};  ///< any demand-miss waiter (vs pure prefetch)
    net::SimTime started{};
    std::vector<std::uint64_t> waiting_sessions;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> waiting_repairs;
    /// Context-linked span for demand fills initiated on behalf of a traced
    /// session; prefetch fills stay context-free.
    obs::TraceContext ctx;
    std::uint64_t span{0};
  };

  /// Contents whose meta is in hand; a PLAY without one is refused.
  streaming::PacketSource* play_source(const std::string& name) override;
  /// Describe; the engine runs the other verbs.
  void handle_verb(streaming::proto::Ctl tag, net::ByteReader& r,
                   const Message& m) override;
  /// `/edge/migrate`: adopt a frozen session shipped by a failing-over
  /// player. Synchronous: 200 + {session id, start index} when the content
  /// meta is in hand, 503 (and a background meta warm) when it is not.
  std::pair<int, std::vector<std::byte>> handle_migrate(
      std::span<const std::byte> body);
  ContentMeta& meta_for(const std::string& content);
  ContentMeta& ensure_meta(const std::string& content,
                           const obs::TraceContext& ctx = {});
  /// Parse an `/edge/meta` reply; a malformed one fails like a refusal.
  void on_meta(const std::string& content, std::span<const std::byte> body);
  /// The meta fill ended (\p result: the packet count, or the failed
  /// status, 0 for no or malformed reply): answer every parked DESCRIBE.
  void meta_done(ContentMeta& meta, std::int64_t result);
  /// kDescribeOk with the header, or kError when the meta never came.
  void describe_reply(const ContentMeta& meta, net::HostId h, net::Port p);
  /// Start the fetch of \p segment unless it is already in flight; either
  /// way the caller may park on the returned fetch.
  Fetch& start_fetch(const std::string& content, std::uint32_t segment,
                     bool demand, const obs::TraceContext& ctx = {});
  void on_segment(const std::string& content, std::uint32_t segment,
                  int status, const net::Payload& body);
  void prefetch_tick(ContentMeta& meta, std::uint32_t playhead);

  EdgeConfig config_;
  net::RpcClient origin_rpc_;
  net::RpcServer migrate_rpc_;
  SegmentCache cache_;
  obs::Counter m_demand_fetches_;
  obs::Counter m_prefetch_fetches_;
  obs::Counter m_fetch_bytes_;
  /// Lazily bound on first adoption (keeps migration-free goldens stable).
  obs::Counter m_migrations_adopted_;
  obs::Histogram m_miss_fill_us_;
  std::unordered_map<std::string, ContentMeta> contents_;
  std::unordered_map<SegmentKey, Fetch, SegmentKeyHash> inflight_;
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace lod::edge
