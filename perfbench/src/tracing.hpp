#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lod/net/transport_base.hpp"
#include "lod/streaming/selector.hpp"

/// \file tracing.hpp
/// The benchmark's per-layer tracing, recorded from outside the program at
/// the `net::Transport` seam.
///
/// `TracingTransport` decorates a transport and forwards every call to it
/// unchanged. It records one span per crossing of the seam:
///  - a datagram handed to a `bind()` receiver is charged to the layer that
///    owns the (host, port): an explicit `attribute()` entry, else the layer
///    active when the receiver was bound (the constructor's span);
///  - a `schedule_at()` timer is charged to the layer active when it was
///    scheduled;
///  - `send()` is the fabric's (or the kernel's) send, routing included.
/// `TracedSelector` does the same for the replica selector, which players
/// call directly. The benchmark opens spans around its own calls into the
/// stack (`lod.driver`, player and constructor calls) with `Span`.
///
/// Spans use the monotonic clock (a vDSO read), not the per-thread CPU
/// clock, which costs a syscall. A span's self time is its duration minus
/// its child spans'. One `Ledger` serves one thread at a time.

namespace perfbench {

enum class Layer : std::uint8_t {
  kNetSend,
  kServer,
  kEdgeNode,
  kGateway,
  kSelector,
  kPlayer,
  kMigrate,
  kDriver,
  kEncode,
  kPublish,
  kUnattributed,
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// The layer's metric prefix, e.g. "streaming.player".
std::string_view layer_name(Layer l);

/// Host roles, for per-role receive counts.
enum class Role : std::uint8_t { kOrigin, kEdge, kClient, kCount };
inline constexpr std::size_t kRoleCount = static_cast<std::size_t>(Role::kCount);
std::string_view role_name(Role r);

/// Monotonic nanoseconds.
std::int64_t mono_ns();

struct LayerTotals {
  std::uint64_t calls{0};
  std::int64_t self_ns{0};
};

/// Span totals per layer for one thread, plus the seam's dispatch counts.
class Ledger {
 public:
  void begin(Layer l) { stack_.push_back(Frame{l, mono_ns(), 0}); }
  void end();
  /// The innermost open span's layer (kUnattributed outside any span).
  Layer active() const {
    return stack_.empty() ? Layer::kUnattributed : stack_.back().layer;
  }

  const LayerTotals& at(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  /// Summed duration of spans that had no enclosing span.
  std::int64_t top_level_ns() const { return top_ns_; }
  /// Add another ledger's totals (shards, machines).
  void add(const Ledger& o);

  std::uint64_t timers_fired{0};
  std::array<std::uint64_t, kRoleCount> receives{};

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<LayerTotals, kLayerCount> totals_{};
  std::int64_t top_ns_{0};
};

/// RAII span; a null ledger makes it a no-op (the untraced runs).
class Span {
 public:
  Span(Ledger* ledger, Layer l) : ledger_(ledger) {
    if (ledger_) ledger_->begin(l);
  }
  ~Span() {
    if (ledger_) ledger_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

/// Forwarding `net::Transport` decorator that records spans (see file
/// comment). Must outlive everything bound or scheduled through it.
class TracingTransport final : public lod::net::Transport {
 public:
  TracingTransport(lod::net::Transport& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  /// Charge receives on (host, port) to \p l, whoever binds it.
  void attribute(lod::net::HostId h, lod::net::Port p, Layer l) {
    owners_[key(h, p)] = l;
  }
  void set_role(lod::net::HostId h, Role r) { roles_[h] = r; }

  lod::obs::Hub& obs() override { return inner_.obs(); }
  lod::net::SimTime now() const override { return inner_.now(); }
  lod::net::EventId schedule_at(lod::net::SimTime t, TimerFn fn) override;
  bool cancel(lod::net::EventId id) override { return inner_.cancel(id); }
  lod::net::HostClock& clock(lod::net::HostId h) override {
    return inner_.clock(h);
  }
  lod::net::SimTime local_now(lod::net::HostId h) const override {
    return inner_.local_now(h);
  }
  std::string endpoint_name(lod::net::HostId h) const override {
    return inner_.endpoint_name(h);
  }
  std::optional<lod::net::HostId> find_endpoint(
      std::string_view name) const override {
    return inner_.find_endpoint(name);
  }
  void bind(lod::net::HostId h, lod::net::Port port, Receiver r) override;
  void unbind(lod::net::HostId h, lod::net::Port port) override {
    inner_.unbind(h, port);
  }
  bool send(lod::net::Datagram d) override {
    Span s(&ledger_, Layer::kNetSend);
    return inner_.send(std::move(d));
  }
  std::optional<lod::net::ChannelId> reserve_channel(
      lod::net::HostId src, lod::net::HostId dst,
      std::int64_t rate_bps) override {
    return inner_.reserve_channel(src, dst, rate_bps);
  }
  void release_channel(lod::net::ChannelId id) override {
    inner_.release_channel(id);
  }
  bool resize_channel(lod::net::ChannelId id,
                      std::int64_t new_rate_bps) override {
    return inner_.resize_channel(id, new_rate_bps);
  }
  std::int64_t channel_rate_bps(lod::net::ChannelId id) const override {
    return inner_.channel_rate_bps(id);
  }
  lod::net::SimDuration path_latency(lod::net::HostId a,
                                     lod::net::HostId b) const override {
    return inner_.path_latency(a, b);
  }

 private:
  static std::uint64_t key(lod::net::HostId h, lod::net::Port p) {
    return (static_cast<std::uint64_t>(h) << 16) | p;
  }

  lod::net::Transport& inner_;
  Ledger& ledger_;
  std::unordered_map<std::uint64_t, Layer> owners_;
  std::unordered_map<lod::net::HostId, Role> roles_;
};

/// Forwarding selector decorator: charges the player's selector calls to
/// `edge.selector`.
class TracedSelector final : public lod::streaming::SiteSelector {
 public:
  TracedSelector(lod::streaming::SiteSelector& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  lod::net::HostId pick_site() override {
    Span s(&ledger_, Layer::kSelector);
    return inner_.pick_site();
  }
  void observe(lod::net::HostId site, lod::net::SimDuration delay) override {
    Span s(&ledger_, Layer::kSelector);
    inner_.observe(site, delay);
  }
  lod::net::HostId failover_from(lod::net::HostId site) override {
    Span s(&ledger_, Layer::kSelector);
    return inner_.failover_from(site);
  }

 private:
  lod::streaming::SiteSelector& inner_;
  Ledger& ledger_;
};

}  // namespace perfbench
