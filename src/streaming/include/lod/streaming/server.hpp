#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "lod/media/asf.hpp"
#include "lod/net/transport.hpp"
#include "lod/streaming/protocol.hpp"
#include "lod/streaming/session_engine.hpp"

/// \file server.hpp
/// The Windows-Media-Services stand-in: a streaming server that serves
/// stored ASF files on demand (unicast, paced by each packet's send time,
/// with pause/seek per session) and relays live ASF streams to every joined
/// subscriber ("broadcast ... in real time", §2.5).
///
/// Aggregate measurement goes through the simulation's `obs::MetricsRegistry`
/// (`lod.server.*` series) — `metrics()` is the read-side view. Per-session
/// counters live in the session table (`ServerMetrics::session`).

namespace lod::streaming {

/// Aggregate server configuration (mirrors `PlayerConfig`): every tunable
/// in one struct, validated in one place.
struct ServerConfig {
  /// Control port bound at construction (data rides on control_port + 1).
  net::Port control_port{proto::kControlPort};

  /// Fast-start burst rate, as a multiple of the content bit-rate. The
  /// server sends the first preroll's worth of packets at this rate instead
  /// of instantaneously so drop-tail queues survive the burst; the A4
  /// ablation bench sweeps it. Values below 1.0 clamp to 1.0 (slower than
  /// real time would mean the session can never keep up).
  double fast_start_multiplier{4.0};

  /// Real-backend listeners (the TCP control plane serving HTTP metrics and
  /// length-prefixed RPC) bind this address. The simulated backend has no
  /// addresses and ignores it; it is still validated so a config is legal
  /// on every backend. Dotted-quad IPv4 only.
  std::string bind_address{"0.0.0.0"};

  /// listen(2) backlog for the TCP control plane. Must be positive.
  int listen_backlog{64};

  /// Normalized copy with every tunable forced into its legal range.
  /// Structural fields cannot be fixed up, only rejected: throws
  /// std::invalid_argument for control_port 0 (unbindable) or 65535 (the
  /// data socket rides on control_port + 1, which would overflow), for a
  /// malformed `bind_address`, and for a non-positive `listen_backlog`.
  ServerConfig validated() const {
    if (control_port == 0) {
      throw std::invalid_argument("ServerConfig: control_port must be nonzero");
    }
    if (control_port == 65535) {
      throw std::invalid_argument(
          "ServerConfig: control_port 65535 leaves no room for the data port");
    }
    if (!net::is_valid_ipv4(bind_address)) {
      throw std::invalid_argument("ServerConfig: bind_address '" +
                                  bind_address +
                                  "' is not a dotted-quad IPv4 address");
    }
    if (listen_backlog <= 0) {
      throw std::invalid_argument(
          "ServerConfig: listen_backlog must be positive");
    }
    ServerConfig c = *this;
    if (!(c.fast_start_multiplier >= 1.0)) c.fast_start_multiplier = 1.0;
    return c;
  }
};

class StreamingServer;

/// Read-side view over the server's registry series. Values are live (not a
/// snapshot); use `snapshot()` + `Snapshot::since` for deltas.
class ServerMetrics {
 public:
  std::uint64_t packets_sent() const;
  std::uint64_t bytes_sent() const;
  std::uint64_t repairs() const;
  std::uint64_t sessions_opened() const;
  std::int64_t active_sessions() const;
  /// An open session's counters; nullopt once it has ended (or never was).
  std::optional<SessionStats> session(std::uint64_t id) const;
  /// Whole-simulation snapshot (every layer's series, not just the server).
  obs::Snapshot snapshot() const;

 private:
  friend class StreamingServer;
  explicit ServerMetrics(const StreamingServer* s) : server_(s) {}
  const StreamingServer* server_;
};

/// The streaming server on one host: the session engine over its published
/// files, plus live channels.
class StreamingServer : private SessionEngine {
 public:
  /// Binds `cfg.control_port` on \p host. \p cfg is validated on entry.
  StreamingServer(net::Transport& net, net::HostId host, ServerConfig cfg = {});

  // --- content ---------------------------------------------------------------

  /// Publish a stored file under \p name (overwrites an existing entry).
  /// Taking \p file by value copies its metadata only: the payload bytes
  /// are shared views, so one encoded File published to every shard's
  /// server is held once per process.
  void publish(std::string name, media::asf::File file);
  bool has(const std::string& name) const { return files_.count(name) > 0; }

  /// The published file, or nullptr. The edge tier's origin gateway serves
  /// segments straight out of this; the pointer is stable until the name is
  /// republished.
  const media::asf::File* stored(const std::string& name) const {
    auto it = files_.find(name);
    return it == files_.end() ? nullptr : &it->second.file;
  }

  /// Open a live channel under \p name; returns a sink to feed encoder
  /// packets into. Subscribers joined via kJoinLive receive every packet
  /// fed after their join. Feeding a finished channel is a no-op.
  std::function<void(const media::asf::DataPacket&)> open_live_channel(
      std::string name, media::asf::Header header);
  /// Mark a live channel finished (subscribers get kEndOfStream).
  void close_live_channel(const std::string& name);

  // --- configuration ---------------------------------------------------------

  /// Apply new runtime tunables (validated). The control port is fixed at
  /// construction; a differing `cfg.control_port` is ignored.
  void configure(ServerConfig cfg);
  const ServerConfig& config() const { return config_; }

  double fast_start_multiplier() const {
    return config_.fast_start_multiplier;
  }

  // --- introspection ---------------------------------------------------------

  /// Measurement view: `lod.server.*` aggregates, open sessions' counters.
  ServerMetrics metrics() const { return ServerMetrics(this); }

  using SessionEngine::active_sessions;
  using SessionEngine::host;

 private:
  friend class ServerMetrics;

  /// A published file as a packet source. Each packet is serialized once
  /// and shared by every session (and every repair resend) of the file.
  struct Stored final : PacketSource {
    media::asf::File file;
    std::vector<net::Payload> serialized;  ///< lazily filled

    const net::Payload* packet(std::uint32_t i) override;
  };
  struct LiveChannel {
    media::asf::Header header;
    std::vector<std::uint64_t> subscribers;
    bool open{true};
  };

  PacketSource* play_source(const std::string& name) override;
  /// Describe and the live verbs.
  void handle_verb(proto::Ctl tag, net::ByteReader& r,
                   const Message& m) override;

  ServerConfig config_;
  /// unordered_map nodes are address-stable, so sessions keep their source
  /// across a republish of the same name.
  std::unordered_map<std::string, Stored> files_;
  std::unordered_map<std::string, LiveChannel> live_;
};

}  // namespace lod::streaming
