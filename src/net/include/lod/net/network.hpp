#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lod/net/clock.hpp"
#include "lod/net/payload.hpp"
#include "lod/net/rng.hpp"
#include "lod/net/simulator.hpp"
#include "lod/net/time.hpp"
#include "lod/net/transport_base.hpp"

/// \file network.hpp
/// The simulated packet network — the `SimTransport` backend.
///
/// Hosts are connected by point-to-point links with finite bandwidth,
/// propagation latency, random jitter, a loss rate and a drop-tail queue.
/// Packets are routed hop-by-hop over the static shortest path (store and
/// forward at each hop, like the switched LANs the paper deployed on).
///
/// This is the substitute for the paper's campus LAN / Internet transport
/// between Windows Media Encoder, Windows Media Services and the browsers.
/// Together with its `Simulator` it implements the abstract `net::Transport`
/// seam (transport_base.hpp); the stack above packets sees only that seam,
/// while tests and benches keep full access to the fabric (links, loss,
/// QoS reservations, routing) declared here.

namespace lod::net {

/// Historical name for the transport's delivery unit within the simulated
/// fabric; hop-by-hop forwarding deals in the same struct the seam exposes.
using Packet = Datagram;

/// Static properties of one direction of a link.
struct LinkConfig {
  /// Capacity in bits per second. 10 Mb/s is the paper-era campus LAN.
  std::int64_t bandwidth_bps{10'000'000};
  /// One-way propagation delay.
  SimDuration latency{msec(1)};
  /// Std-dev of per-packet delivery jitter (truncated normal).
  SimDuration jitter{usec(0)};
  /// Independent per-packet loss probability.
  double loss_rate{0.0};
  /// Drop-tail queue bound, in bytes of queued (not yet serialized) data.
  std::size_t queue_bytes{256 * 1024};
};

/// Counters kept per link direction, exposed for benches and tests.
struct LinkStats {
  std::uint64_t packets_sent{0};
  std::uint64_t packets_dropped_loss{0};
  std::uint64_t packets_dropped_queue{0};
  std::uint64_t bytes_sent{0};
  SimDuration total_queue_delay{};
};

/// A QoS reservation over a path, in the spirit of XOCPN's resource channels:
/// the reserved rate is subtracted from every on-path link's best-effort
/// capacity and packets tagged with the channel serialize at the reserved
/// rate, unaffected by best-effort congestion.
struct ChannelReservation {
  ChannelId id{0};
  HostId src{0};
  HostId dst{0};
  std::int64_t rate_bps{0};
  std::vector<std::pair<HostId, HostId>> path;  ///< hops actually reserved
};

/// The network fabric. Owns topology, routing, queues and delivery timing.
/// Implements the `Transport` seam on top of its paired `Simulator`.
class Network : public Transport {
 public:
  using Receiver = Transport::Receiver;

  Network(Simulator& sim, std::uint64_t seed = 42);

  // --- Transport seam: observability, time & timers -------------------------

  obs::Hub& obs() override { return sim_.obs(); }
  SimTime now() const override { return sim_.now(); }
  EventId schedule_at(SimTime t, TimerFn fn) override {
    return sim_.schedule_at(t, std::move(fn));
  }
  bool cancel(EventId id) override { return sim_.cancel(id); }

  // --- topology -----------------------------------------------------------

  /// Create a host; returns its id. Optionally give its clock an offset/drift.
  HostId add_host(std::string name, HostClock clock = {});

  /// Connect two hosts with a symmetric full-duplex link.
  void add_link(HostId a, HostId b, const LinkConfig& cfg);

  /// Replace one direction's config (e.g. to degrade a link mid-run).
  void set_link_config(HostId from, HostId to, const LinkConfig& cfg);

  std::size_t host_count() const { return hosts_.size(); }
  const std::string& host_name(HostId h) const { return hosts_.at(h).name; }
  HostClock& clock(HostId h) override { return hosts_.at(h).clock; }
  const HostClock& clock(HostId h) const { return hosts_.at(h).clock; }

  std::string endpoint_name(HostId h) const override {
    return h < hosts_.size() ? hosts_[h].name : std::string{};
  }
  std::optional<HostId> find_endpoint(std::string_view name) const override;

  /// The host's local clock reading right now.
  SimTime local_now(HostId h) const override {
    return clock(h).local_time(sim_.now());
  }

  // --- sockets ------------------------------------------------------------

  /// Register a receiver for (host, port). Overwrites any previous binding.
  void bind(HostId h, Port port, Receiver r) override;
  void unbind(HostId h, Port port) override;

  /// Inject a packet. Returns false if src/dst are unknown or unroutable
  /// (the packet is silently dropped, as IP would).
  bool send(Packet p) override;

  // --- QoS channels (XOCPN-style) ------------------------------------------

  /// Try to reserve \p rate_bps from src to dst. Fails (nullopt) if any
  /// on-path link lacks spare capacity. Reservations compose: admission
  /// control tracks the sum of reserved rates per link direction.
  std::optional<ChannelId> reserve_channel(HostId src, HostId dst,
                                           std::int64_t rate_bps) override;
  /// Release a reservation. Unknown ids are ignored.
  void release_channel(ChannelId id) override;

  /// Change a reservation's rate in place (same path, same serializer — no
  /// packet reordering, unlike release+reserve). Fails if any on-path link
  /// lacks capacity for the increase; the old rate stays in effect then.
  bool resize_channel(ChannelId id, std::int64_t new_rate_bps) override;

  std::int64_t channel_rate_bps(ChannelId id) const override;

  std::optional<ChannelReservation> channel_info(ChannelId id) const;

  // --- introspection --------------------------------------------------------

  /// Shortest path (hop count) from a to b, inclusive of endpoints.
  /// Empty if unreachable. Each (a, b) path is found by BFS on first use and
  /// kept in a route table that `add_link` clears; `send`,
  /// `reserve_channel` and `path_latency` all read that table.
  std::vector<HostId> route(HostId a, HostId b) const;

  /// Sum of per-hop propagation latency along route(a, b) — the static
  /// delay floor of the path, before queueing or jitter. Negative (-1us)
  /// when unreachable; zero for a == b. Replica selection seeds its per-site
  /// delay estimates from this.
  SimDuration path_latency(HostId a, HostId b) const override;

  const LinkStats& link_stats(HostId from, HostId to) const;

  Simulator& simulator() { return sim_; }
  Rng& rng() { return rng_; }

 private:
  static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

  struct LinkDir {
    LinkConfig cfg;
    LinkStats stats;
    SimTime busy_until{};              ///< best-effort serializer
    std::size_t queued_bytes{0};       ///< bytes waiting for the serializer
    std::int64_t reserved_bps{0};      ///< sum of channel reservations
  };
  /// A host's receivers, in pages of 256 ports allocated when a port in
  /// their range is first bound: a lookup is two array indexes, and a host
  /// that binds a few ports holds a page or two. Pages never move, so a
  /// receiver may bind more ports while it runs.
  struct PortTable {
    using Page = std::array<Receiver, 256>;
    std::vector<std::unique_ptr<Page>> pages;  ///< indexed by port / 256

    /// The bound receiver of \p port, or null.
    Receiver* find(Port port) {
      const std::size_t page = port >> 8;
      if (page >= pages.size() || !pages[page]) return nullptr;
      Receiver& r = (*pages[page])[port & 0xff];
      return r ? &r : nullptr;
    }
    /// \p port's slot, allocating its page.
    Receiver& slot(Port port);
  };
  struct HostState {
    std::string name;
    HostClock clock;
    PortTable ports;
    std::vector<HostId> neighbors;
  };
  /// A path's hosts and the link direction of each hop (`links[i]` carries
  /// hosts[i] -> hosts[i + 1]), so forwarding indexes `links_` directly.
  struct Route {
    std::vector<HostId> hosts;
    std::vector<std::uint32_t> links;
  };
  /// A reservation plus its serializer on each link direction it has
  /// carried traffic over: (link, busy-until) pairs, the reserved path's
  /// directions first and in path order. The serializers lead, so the
  /// per-hop reads share a cache line.
  struct Channel {
    std::vector<std::pair<std::uint32_t, SimTime>> busy_until;
    ChannelReservation info;
    /// The serializer of \p link, crossed at hop \p hop of a datagram's
    /// route: an index on the reserved path, else a scan (adding one for a
    /// link the channel has not carried traffic over).
    SimTime& busy(std::uint32_t link, std::uint32_t hop);
  };
  using Path = std::shared_ptr<const Route>;
  /// One datagram in flight, from `send` to delivery or drop, in the hop
  /// slab: arrival events capture {this, slot} only. Loopback sends have no
  /// path and no link.
  struct Hop {
    Packet p;
    Path path;
    std::uint32_t hop_index{0};
    std::uint32_t link{kNoLink};  ///< the direction being crossed
    std::uint32_t wire{0};
    bool best_effort{true};       ///< holds queue bytes on `link`
  };

  std::size_t pair_index(HostId a, HostId b) const {
    return std::size_t{a} * stride_ + b;
  }
  LinkDir* find_dir(HostId from, HostId to);
  const LinkDir* find_dir(HostId from, HostId to) const;

  /// The route-table entry for a != b, both known hosts (filled on first
  /// use). Packets in flight share it, so a table cleared by `add_link`
  /// leaves their paths intact.
  const Path& cached_route(HostId a, HostId b) const;
  std::vector<HostId> bfs_route(HostId a, HostId b) const;

  std::uint32_t alloc_hop(Packet p, Path path);
  /// Cross the hop `hops_[slot]` is at: loss, queueing, serialization,
  /// then an arrival event. Frees the slot when the datagram is dropped.
  void forward(std::uint32_t slot);
  void arrive(std::uint32_t slot);
  void deliver(const Packet& p);
  /// The live reservation \p id, or null (released, or never reserved).
  Channel* find_channel(ChannelId id) const {
    return id < channels_.size() ? channels_[id].get() : nullptr;
  }

  Simulator& sim_;
  Rng rng_;
  obs::Counter packets_sent_;
  obs::Counter packets_delivered_;
  obs::Counter packets_dropped_loss_;
  obs::Counter packets_dropped_queue_;
  obs::Counter bytes_sent_;
  std::vector<HostState> hosts_;
  /// Link directions; an index stays valid for the network's lifetime.
  std::vector<LinkDir> links_;
  /// Dense host-pair tables, `stride_` hosts per row (grown by doubling in
  /// `add_host`): the link direction index (kNoLink if none) and the route
  /// table (null until first used, cleared by `add_link`).
  std::size_t stride_{0};
  std::vector<std::uint32_t> link_index_;
  mutable std::vector<Path> routes_;
  std::vector<Hop> hops_;
  std::vector<std::uint32_t> free_hops_;  ///< recycled hop slots, LIFO
  /// Reservations indexed by id. Ids are never reused, so a released
  /// reservation leaves a null entry (8 bytes) for the network's lifetime.
  std::vector<std::unique_ptr<Channel>> channels_;
  /// The receiver `deliver` is running, and the one a bind or unbind of its
  /// own port replaced while it ran: destroyed once it returns.
  Receiver* delivering_{nullptr};
  Receiver retired_;
  ChannelId next_channel_{1};
  std::uint64_t next_packet_{1};
};

/// The simulated backend's seam-facing name: one `Network` riding one
/// `Simulator` IS the deterministic transport implementation.
using SimTransport = Network;

}  // namespace lod::net
