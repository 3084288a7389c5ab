#include "lod/net/network.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

namespace lod::net {

Network::Network(Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {
  auto& reg = sim_.obs().metrics();
  packets_sent_ = reg.counter("lod.net.packets_sent");
  packets_delivered_ = reg.counter("lod.net.packets_delivered");
  packets_dropped_loss_ = reg.counter("lod.net.packets_dropped_loss");
  packets_dropped_queue_ = reg.counter("lod.net.packets_dropped_queue");
  bytes_sent_ = reg.counter("lod.net.bytes_sent");
}

HostId Network::add_host(std::string name, HostClock clock) {
  const HostId id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(HostState{std::move(name), clock, {}, {}});
  if (hosts_.size() > stride_) {
    // Regrow the pair tables; in-flight packets hold their own paths.
    const std::size_t old = stride_;
    stride_ = std::max<std::size_t>(16, 2 * stride_);
    std::vector<std::uint32_t> links(stride_ * stride_, kNoLink);
    std::vector<Path> routes(stride_ * stride_);
    for (std::size_t i = 0; i < old; ++i) {
      for (std::size_t j = 0; j < old; ++j) {
        links[i * stride_ + j] = link_index_[i * old + j];
        routes[i * stride_ + j] = std::move(routes_[i * old + j]);
      }
    }
    link_index_ = std::move(links);
    routes_ = std::move(routes);
  }
  return id;
}

void Network::add_link(HostId a, HostId b, const LinkConfig& cfg) {
  if (a >= hosts_.size() || b >= hosts_.size() || a == b) {
    throw std::invalid_argument("add_link: bad endpoints");
  }
  for (const std::size_t i : {pair_index(a, b), pair_index(b, a)}) {
    if (link_index_[i] == kNoLink) {
      link_index_[i] = static_cast<std::uint32_t>(links_.size());
      links_.emplace_back();
    }
    links_[link_index_[i]] = LinkDir{cfg, {}, {}, 0, 0};
  }
  auto& na = hosts_[a].neighbors;
  if (std::find(na.begin(), na.end(), b) == na.end()) na.push_back(b);
  auto& nb = hosts_[b].neighbors;
  if (std::find(nb.begin(), nb.end(), a) == nb.end()) nb.push_back(a);
  // A new link can shorten any path.
  std::fill(routes_.begin(), routes_.end(), nullptr);
}

void Network::set_link_config(HostId from, HostId to, const LinkConfig& cfg) {
  LinkDir* d = find_dir(from, to);
  if (!d) throw std::invalid_argument("set_link_config: no such link");
  d->cfg = cfg;
}

Network::LinkDir* Network::find_dir(HostId from, HostId to) {
  return const_cast<LinkDir*>(std::as_const(*this).find_dir(from, to));
}
const Network::LinkDir* Network::find_dir(HostId from, HostId to) const {
  if (from >= hosts_.size() || to >= hosts_.size()) return nullptr;
  const std::uint32_t i = link_index_[pair_index(from, to)];
  return i == kNoLink ? nullptr : &links_[i];
}

Network::Receiver& Network::PortTable::slot(Port port) {
  const std::size_t page = port >> 8;
  if (page >= pages.size()) pages.resize(page + 1);
  if (!pages[page]) pages[page] = std::make_unique<Page>();
  return (*pages[page])[port & 0xff];
}

void Network::bind(HostId h, Port port, Receiver r) {
  Receiver& slot = hosts_.at(h).ports.slot(port);
  if (&slot == delivering_ && !retired_) retired_ = std::move(slot);
  slot = std::move(r);
}

void Network::unbind(HostId h, Port port) {
  Receiver* r = hosts_.at(h).ports.find(port);
  if (!r) return;
  if (r == delivering_ && !retired_) retired_ = std::move(*r);
  *r = nullptr;
}

std::vector<HostId> Network::route(HostId a, HostId b) const {
  if (a >= hosts_.size() || b >= hosts_.size()) return {};
  if (a == b) return {a};
  return cached_route(a, b)->hosts;
}

const Network::Path& Network::cached_route(HostId a, HostId b) const {
  Path& slot = routes_[pair_index(a, b)];
  if (!slot) {
    Route r;
    r.hosts = bfs_route(a, b);
    for (std::size_t i = 0; i + 1 < r.hosts.size(); ++i) {
      r.links.push_back(link_index_[pair_index(r.hosts[i], r.hosts[i + 1])]);
    }
    slot = std::make_shared<const Route>(std::move(r));
  }
  return slot;
}

std::vector<HostId> Network::bfs_route(HostId a, HostId b) const {
  // BFS over the (small) topology. Neighbours are visited in link order, so
  // among equal-hop paths the one through the earliest-added link wins.
  std::vector<HostId> prev(hosts_.size(), a);
  std::vector<bool> seen(hosts_.size(), false);
  std::deque<HostId> q{a};
  seen[a] = true;
  while (!q.empty()) {
    HostId u = q.front();
    q.pop_front();
    for (HostId v : hosts_[u].neighbors) {
      if (seen[v]) continue;
      seen[v] = true;
      prev[v] = u;
      if (v == b) {
        std::vector<HostId> path{b};
        for (HostId w = b; w != a; w = prev[w]) path.push_back(prev[w]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      q.push_back(v);
    }
  }
  return {};
}

SimDuration Network::path_latency(HostId a, HostId b) const {
  if (a == b) return SimDuration{0};
  if (a >= hosts_.size() || b >= hosts_.size()) return SimDuration{-1};
  const Route& r = *cached_route(a, b);
  if (r.links.empty()) return SimDuration{-1};
  SimDuration total{0};
  for (const std::uint32_t link : r.links) total += links_[link].cfg.latency;
  return total;
}

bool Network::send(Packet p) {
  if (p.src >= hosts_.size() || p.dst >= hosts_.size()) return false;
  p.id = next_packet_++;
  packets_sent_.inc();
  bytes_sent_.inc(p.wire_size);
  sim_.obs().flight().emit(obs::FlightType::kPacketSend, p.src,
                           static_cast<std::int64_t>(p.id), p.wire_size);
  if (p.src == p.dst) {
    // Loopback: deliver after the current handler unwinds, keeping the
    // "receive is always asynchronous" invariant callers rely on.
    const std::uint32_t slot = alloc_hop(std::move(p), nullptr);
    sim_.schedule_after(usec(0), [this, slot] { arrive(slot); });
    return true;
  }
  const Path& path = cached_route(p.src, p.dst);
  if (path->links.empty()) return false;
  forward(alloc_hop(std::move(p), path));
  return true;
}

std::uint32_t Network::alloc_hop(Packet p, Path path) {
  std::uint32_t slot;
  if (!free_hops_.empty()) {
    slot = free_hops_.back();
    free_hops_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(hops_.size());
    hops_.emplace_back();
  }
  Hop& h = hops_[slot];
  h.p = std::move(p);
  h.path = std::move(path);
  h.hop_index = 0;
  h.link = kNoLink;
  return slot;
}

void Network::forward(std::uint32_t slot) {
  Hop& h = hops_[slot];
  const Packet& p = h.p;
  const HostId from = h.path->hosts[h.hop_index];
  const HostId to = h.path->hosts[h.hop_index + 1];
  h.link = h.path->links[h.hop_index];
  LinkDir* dir = &links_[h.link];

  // Loss is drawn per hop, before queueing (wire loss, not buffer loss).
  if (rng_.bernoulli(dir->cfg.loss_rate)) {
    ++dir->stats.packets_dropped_loss;
    packets_dropped_loss_.inc();
    sim_.obs().flight().record(
        obs::FlightType::kFrameDrop, static_cast<std::uint32_t>(from), p.id,
        static_cast<std::uint64_t>(obs::DropCause::kLoss));
    sim_.obs().flight().emit(obs::FlightType::kPacketDropLoss, from,
                             static_cast<std::int64_t>(p.id), to);
    h = Hop{};
    free_hops_.push_back(slot);
    return;
  }

  const SimTime now = sim_.now();
  SimTime depart;
  // A reservation released in flight leaves the rest of the path best-effort.
  Channel* ch = find_channel(p.channel);
  h.best_effort = ch == nullptr;
  if (!h.best_effort) {
    // Reserved-rate serialization: the channel has its own serializer slice
    // and never competes with best-effort traffic.
    SimTime& busy = ch->busy(h.link, h.hop_index);
    const SimTime start = std::max(now, busy);
    const std::int64_t bps = std::max<std::int64_t>(ch->info.rate_bps, 1);
    const SimDuration tx{static_cast<std::int64_t>(p.wire_size) * 8'000'000 /
                         bps};
    busy = start + tx;
    depart = busy;
  } else {
    // Best-effort: drop-tail bound, FIFO serializer at (capacity - reserved).
    if (dir->queued_bytes + p.wire_size > dir->cfg.queue_bytes) {
      ++dir->stats.packets_dropped_queue;
      packets_dropped_queue_.inc();
      sim_.obs().flight().record(
          obs::FlightType::kFrameDrop, static_cast<std::uint32_t>(from), p.id,
          static_cast<std::uint64_t>(obs::DropCause::kQueue));
      sim_.obs().flight().emit(obs::FlightType::kPacketDropQueue, from,
                               static_cast<std::int64_t>(p.id), to);
      h = Hop{};
      free_hops_.push_back(slot);
      return;
    }
    const std::int64_t bps =
        std::max<std::int64_t>(dir->cfg.bandwidth_bps - dir->reserved_bps, 1);
    const SimTime start = std::max(now, dir->busy_until);
    const SimDuration tx{static_cast<std::int64_t>(p.wire_size) * 8'000'000 /
                         bps};
    dir->busy_until = start + tx;
    depart = dir->busy_until;
    dir->queued_bytes += p.wire_size;
    dir->stats.total_queue_delay += (start - now);
  }

  ++dir->stats.packets_sent;
  dir->stats.bytes_sent += p.wire_size;
  h.wire = p.wire_size;

  const SimDuration jit = rng_.jitter(dir->cfg.jitter);
  SimTime arrive_at = depart + dir->cfg.latency + jit;
  // Jitter models queueing variance beyond the propagation floor: a packet
  // can be late, never faster than light.
  if (arrive_at < depart + dir->cfg.latency) {
    arrive_at = depart + dir->cfg.latency;
  }
  sim_.schedule_at(arrive_at, [this, slot] { arrive(slot); });
}

void Network::arrive(std::uint32_t slot) {
  Hop& h = hops_[slot];
  if (h.link != kNoLink && h.best_effort) {
    LinkDir& d = links_[h.link];
    d.queued_bytes -= std::min<std::size_t>(d.queued_bytes, h.wire);
  }
  if (h.path && h.hop_index + 2 < h.path->hosts.size()) {
    ++h.hop_index;
    forward(slot);
    return;
  }
  // Free the slot before delivering: the receiver may send, and a send can
  // grow the slab under a live reference.
  const Packet p = std::move(h.p);
  h = Hop{};
  free_hops_.push_back(slot);
  deliver(p);
}

void Network::deliver(const Packet& p) {
  packets_delivered_.inc();
  sim_.obs().flight().emit(obs::FlightType::kPacketRecv, p.dst,
                           static_cast<std::int64_t>(p.id), p.wire_size);
  Receiver* r = hosts_[p.dst].ports.find(p.dst_port);
  if (!r) return;
  delivering_ = r;
  (*r)(p);
  delivering_ = nullptr;
  if (retired_) retired_ = nullptr;
}

std::optional<ChannelId> Network::reserve_channel(HostId src, HostId dst,
                                                  std::int64_t rate_bps) {
  if (rate_bps <= 0) return std::nullopt;
  if (src >= hosts_.size() || dst >= hosts_.size() || src == dst) {
    return std::nullopt;
  }
  const Route& route = *cached_route(src, dst);
  const std::vector<HostId>& path = route.hosts;
  if (path.size() < 2) return std::nullopt;
  // Admission control: every on-path direction must have spare capacity.
  for (const std::uint32_t link : route.links) {
    const LinkDir& d = links_[link];
    if (d.reserved_bps + rate_bps > d.cfg.bandwidth_bps) return std::nullopt;
  }
  auto ch = std::make_unique<Channel>();
  ChannelReservation& res = ch->info;
  res.id = next_channel_++;
  res.src = src;
  res.dst = dst;
  res.rate_bps = rate_bps;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    links_[route.links[i]].reserved_bps += rate_bps;
    res.path.emplace_back(path[i], path[i + 1]);
    ch->busy_until.emplace_back(route.links[i], SimTime{});
  }
  const ChannelId id = res.id;
  if (channels_.size() <= id) channels_.resize(id + 1);
  channels_[id] = std::move(ch);
  return id;
}

SimTime& Network::Channel::busy(std::uint32_t link, std::uint32_t hop) {
  if (hop < busy_until.size() && busy_until[hop].first == link) {
    return busy_until[hop].second;
  }
  for (auto& [l, t] : busy_until) {
    if (l == link) return t;
  }
  return busy_until.emplace_back(link, SimTime{}).second;
}

void Network::release_channel(ChannelId id) {
  const Channel* ch = find_channel(id);
  if (!ch) return;
  const ChannelReservation& res = ch->info;
  for (auto [from, to] : res.path) {
    if (LinkDir* d = find_dir(from, to)) d->reserved_bps -= res.rate_bps;
  }
  channels_[id].reset();
}

bool Network::resize_channel(ChannelId id, std::int64_t new_rate_bps) {
  Channel* ch = find_channel(id);
  if (!ch || new_rate_bps <= 0) return false;
  ChannelReservation& res = ch->info;
  const std::int64_t delta = new_rate_bps - res.rate_bps;
  if (delta > 0) {
    for (auto [from, to] : res.path) {
      const LinkDir* d = find_dir(from, to);
      if (!d || d->reserved_bps + delta > d->cfg.bandwidth_bps) return false;
    }
  }
  for (auto [from, to] : res.path) find_dir(from, to)->reserved_bps += delta;
  res.rate_bps = new_rate_bps;
  return true;
}

std::optional<ChannelReservation> Network::channel_info(ChannelId id) const {
  const Channel* ch = find_channel(id);
  if (!ch) return std::nullopt;
  return ch->info;
}

std::int64_t Network::channel_rate_bps(ChannelId id) const {
  const Channel* ch = find_channel(id);
  return ch ? ch->info.rate_bps : 0;
}

std::optional<HostId> Network::find_endpoint(std::string_view name) const {
  for (HostId h = 0; h < hosts_.size(); ++h) {
    if (hosts_[h].name == name) return h;
  }
  return std::nullopt;
}

const LinkStats& Network::link_stats(HostId from, HostId to) const {
  const LinkDir* d = find_dir(from, to);
  if (!d) throw std::invalid_argument("link_stats: no such link");
  return d->stats;
}

}  // namespace lod::net
