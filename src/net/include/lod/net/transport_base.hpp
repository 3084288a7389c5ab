#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "lod/net/clock.hpp"
#include "lod/net/payload.hpp"
#include "lod/net/task.hpp"
#include "lod/net/time.hpp"
#include "lod/net/timing_wheel.hpp"  // EventId: both backends mint it there
#include "lod/obs/hub.hpp"

/// \file transport_base.hpp
/// The transport seam: everything the stack above packets is allowed to
/// assume about "the network".
///
/// `DatagramSocket` / `ReliableEndpoint` / `RpcServer` / `RpcClient` — and
/// through them `streaming::StreamingServer` / `streaming::Player` and
/// `edge::EdgeNode` / `edge::OriginGateway` — program against the abstract
/// `Transport` interface defined here and nothing else. Two implementations
/// exist:
///
///  - `SimTransport` (= `Network` + its `Simulator`, network.hpp): the
///    deterministic discrete-event backend every test and bench runs on.
///  - `RealTransport` (real_transport.hpp): a non-blocking epoll event loop
///    over real UDP/TCP sockets on an actual kernel network stack.
///
/// The interface bundles the four services the paper's stack needs:
///   endpoint addressing   (HostId/Port, name lookup)
///   datagram send/receive (unreliable, unordered; scatter-gather payloads)
///   a timer service       (schedule_at/after + cancel, driving all pacing)
///   a host clock          (possibly skewed; NTP-style sync adjusts it)
/// plus an optional QoS-channel capability that only the simulated fabric
/// implements (reservations are meaningless on a best-effort kernel path —
/// the defaults degrade to best effort, exactly like the paper's Internet
/// deployment next to its QoS-capable campus LAN).
///
/// Simulation-specific machinery (link configs, loss models, channel
/// reservations' path introspection, raw `Packet` aliasing) stays in
/// network.hpp and is deliberately NOT visible through this header.

namespace lod::net {

using HostId = std::uint32_t;
using Port = std::uint16_t;
using ChannelId = std::uint32_t;

/// The transport's unit of delivery. `wire_size` is what consumes link (or
/// models kernel/framing) capacity; `payload` (+ optional `body`) is what
/// the receiver sees.
struct Datagram {
  HostId src{0};
  HostId dst{0};
  Port src_port{0};
  Port dst_port{0};
  std::uint32_t wire_size{0};  ///< bytes on the wire
  /// Frame header / whole message, refcounted (hops and loopback never copy).
  Payload payload;
  /// Optional scatter-gather attachment: logically the bytes that follow
  /// `payload` on the wire. Senders with a shared immutable body (cached
  /// media segments, inflight transport messages) attach it here so per-hop
  /// and per-session sends copy nothing; receivers that frame with a body
  /// read their header fields from `payload` and take `body` as the blob.
  Payload body;
  /// Non-zero when the datagram rides a reserved QoS channel.
  ChannelId channel{0};
  std::uint64_t id{0};  ///< unique per transport, for tracing
};

/// Syntactic IPv4 dotted-quad check ("a.b.c.d", each octet 0-255, no extras).
/// Config validation (e.g. `ServerConfig::bind_address`) uses this without
/// dragging in any OS networking headers.
bool is_valid_ipv4(std::string_view s);

/// The backend-agnostic network API (see file comment).
class Transport {
 public:
  using Receiver = std::function<void(const Datagram&)>;
  /// Move-only with inline capture storage (task.hpp); the simulator
  /// stores it as is in its handler slab.
  using TimerFn = Task;

  virtual ~Transport() = default;

  // --- observability --------------------------------------------------------

  /// The observability root (one metrics registry + one trace timeline) this
  /// transport and everything running on it publish into.
  virtual obs::Hub& obs() = 0;

  // --- time & timers --------------------------------------------------------

  /// Transport-global "true" time: simulation time on the simulated backend,
  /// a monotonic microsecond clock on the real one.
  virtual SimTime now() const = 0;

  /// Run \p fn at absolute time \p t (clamped to now if in the past).
  virtual EventId schedule_at(SimTime t, TimerFn fn) = 0;

  /// Run \p fn after \p d (negative clamps to zero).
  EventId schedule_after(SimDuration d, TimerFn fn) {
    return schedule_at(now() + (d.us < 0 ? SimDuration{0} : d), std::move(fn));
  }

  /// Cancel a pending timer. Stale or unknown ids are a harmless no-op.
  virtual bool cancel(EventId id) = 0;

  // --- endpoint addressing --------------------------------------------------

  /// The host's (possibly skewed/drifting) local clock. NTP-style sync code
  /// reads and adjusts it; the real backend's clocks start true.
  virtual HostClock& clock(HostId h) = 0;

  /// The host's local clock reading right now.
  virtual SimTime local_now(HostId h) const = 0;

  /// Human-readable endpoint name ("origin", "127.0.0.1"), for diagnostics.
  virtual std::string endpoint_name(HostId h) const = 0;

  /// Reverse lookup; nullopt when no endpoint carries \p name.
  virtual std::optional<HostId> find_endpoint(std::string_view name) const = 0;

  // --- datagram service -----------------------------------------------------

  /// Register a receiver for (host, port). Overwrites any previous binding.
  virtual void bind(HostId h, Port port, Receiver r) = 0;
  virtual void unbind(HostId h, Port port) = 0;

  /// Inject a datagram. Returns false if the destination is unknown or the
  /// backend could not accept it (the datagram is dropped, as IP would).
  virtual bool send(Datagram d) = 0;

  // --- QoS channels (optional capability) -----------------------------------

  /// Try to reserve \p rate_bps from src to dst. The default (real-network)
  /// answer is "no such service": nullopt, and traffic stays best-effort.
  virtual std::optional<ChannelId> reserve_channel(HostId src, HostId dst,
                                                   std::int64_t rate_bps) {
    (void)src;
    (void)dst;
    (void)rate_bps;
    return std::nullopt;
  }

  /// Release a reservation. Unknown ids are ignored.
  virtual void release_channel(ChannelId id) { (void)id; }

  /// Change a reservation's rate in place; false when unsupported or the
  /// path lacks capacity (the old rate stays in effect).
  virtual bool resize_channel(ChannelId id, std::int64_t new_rate_bps) {
    (void)id;
    (void)new_rate_bps;
    return false;
  }

  /// The reserved rate of \p id, or 0 for unknown ids / no QoS service.
  /// (Pacing loops use this to honor the reservation; everything else about
  /// a reservation — its path, admission bookkeeping — is backend-internal.)
  virtual std::int64_t channel_rate_bps(ChannelId id) const {
    (void)id;
    return 0;
  }

  /// Static one-way delay floor from a to b: summed propagation latency on
  /// the simulated fabric, unknown (-1us) on the real one. Replica selection
  /// seeds its per-site estimates from this when available.
  virtual SimDuration path_latency(HostId a, HostId b) const {
    (void)a;
    (void)b;
    return usec(-1);
  }

 protected:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
};

}  // namespace lod::net
