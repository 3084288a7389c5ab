#include "lod/net/network.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace lod::net {

Network::Network(Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {
  auto& reg = sim_.obs().metrics();
  trace_ = &sim_.obs().trace();
  packets_sent_ = reg.counter("lod.net.packets_sent");
  packets_delivered_ = reg.counter("lod.net.packets_delivered");
  packets_dropped_loss_ = reg.counter("lod.net.packets_dropped_loss");
  packets_dropped_queue_ = reg.counter("lod.net.packets_dropped_queue");
  bytes_sent_ = reg.counter("lod.net.bytes_sent");
}

HostId Network::add_host(std::string name, HostClock clock) {
  const HostId id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(HostState{std::move(name), clock, {}, {}});
  return id;
}

void Network::add_link(HostId a, HostId b, const LinkConfig& cfg) {
  if (a >= hosts_.size() || b >= hosts_.size() || a == b) {
    throw std::invalid_argument("add_link: bad endpoints");
  }
  links_[dir_key(a, b)] = LinkDir{cfg, {}, {}, 0, 0, {}};
  links_[dir_key(b, a)] = LinkDir{cfg, {}, {}, 0, 0, {}};
  auto& na = hosts_[a].neighbors;
  if (std::find(na.begin(), na.end(), b) == na.end()) na.push_back(b);
  auto& nb = hosts_[b].neighbors;
  if (std::find(nb.begin(), nb.end(), a) == nb.end()) nb.push_back(a);
  routes_.clear();  // a new link can shorten any path
}

void Network::set_link_config(HostId from, HostId to, const LinkConfig& cfg) {
  LinkDir* d = find_dir(from, to);
  if (!d) throw std::invalid_argument("set_link_config: no such link");
  d->cfg = cfg;
}

Network::LinkDir* Network::find_dir(HostId from, HostId to) {
  auto it = links_.find(dir_key(from, to));
  return it == links_.end() ? nullptr : &it->second;
}
const Network::LinkDir* Network::find_dir(HostId from, HostId to) const {
  auto it = links_.find(dir_key(from, to));
  return it == links_.end() ? nullptr : &it->second;
}

void Network::bind(HostId h, Port port, Receiver r) {
  hosts_.at(h).ports[port] = std::move(r);
}

void Network::unbind(HostId h, Port port) { hosts_.at(h).ports.erase(port); }

std::vector<HostId> Network::route(HostId a, HostId b) const {
  if (a >= hosts_.size() || b >= hosts_.size()) return {};
  if (a == b) return {a};
  return *cached_route(a, b);
}

const Network::Path& Network::cached_route(HostId a, HostId b) const {
  Path& slot = routes_[dir_key(a, b)];
  if (!slot) {
    slot = std::make_shared<const std::vector<HostId>>(bfs_route(a, b));
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
  const auto& path = *cached_route(a, b);
  if (path.size() < 2) return SimDuration{-1};
  SimDuration total{0};
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkDir* d = find_dir(path[i], path[i + 1]);
    if (!d) return SimDuration{-1};
    total += d->cfg.latency;
  }
  return total;
}

bool Network::send(Packet p) {
  if (p.src >= hosts_.size() || p.dst >= hosts_.size()) return false;
  p.id = next_packet_++;
  packets_sent_.inc();
  bytes_sent_.inc(p.wire_size);
  if (trace_->enabled()) {
    trace_->emit(obs::EventType::kPacketSend, p.src,
                 static_cast<std::int64_t>(p.id), p.wire_size);
  }
  if (p.src == p.dst) {
    // Loopback: deliver after the current handler unwinds, keeping the
    // "receive is always asynchronous" invariant callers rely on. Move the
    // packet in — refcounted payloads make this pointer-cheap.
    sim_.schedule_after(usec(0), [this, p = std::move(p)] { deliver(p); });
    return true;
  }
  Path path = cached_route(p.src, p.dst);
  if (path->size() < 2) return false;
  forward(std::move(p), 0, std::move(path));
  return true;
}

void Network::forward(Packet p, std::size_t hop_index, Path path) {
  const HostId from = (*path)[hop_index];
  const HostId to = (*path)[hop_index + 1];
  LinkDir* dir = find_dir(from, to);
  if (!dir) return;  // topology changed under us; drop

  // Loss is drawn per hop, before queueing (wire loss, not buffer loss).
  if (rng_.bernoulli(dir->cfg.loss_rate)) {
    ++dir->stats.packets_dropped_loss;
    packets_dropped_loss_.inc();
    sim_.obs().flight().record(
        obs::FlightType::kFrameDrop, static_cast<std::uint32_t>(from), p.id,
        static_cast<std::uint64_t>(obs::DropCause::kLoss));
    if (trace_->enabled()) {
      trace_->emit(obs::EventType::kPacketDropLoss, from,
                   static_cast<std::int64_t>(p.id), to);
    }
    return;
  }

  const SimTime now = sim_.now();
  SimTime depart;
  if (p.channel != 0 && channels_.count(p.channel)) {
    // Reserved-rate serialization: the channel has its own serializer slice
    // and never competes with best-effort traffic.
    const auto& res = channels_.at(p.channel);
    SimTime& busy = dir->channel_busy_until[p.channel];
    const SimTime start = std::max(now, busy);
    const std::int64_t bps = std::max<std::int64_t>(res.rate_bps, 1);
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
      if (trace_->enabled()) {
        trace_->emit(obs::EventType::kPacketDropQueue, from,
                     static_cast<std::int64_t>(p.id), to);
      }
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

  const SimDuration jit = rng_.jitter(dir->cfg.jitter);
  SimTime arrive = depart + dir->cfg.latency + jit;
  // Jitter models queueing variance beyond the propagation floor: a packet
  // can be late, never faster than light.
  if (arrive < depart + dir->cfg.latency) arrive = depart + dir->cfg.latency;

  const std::uint32_t wire = p.wire_size;
  const bool best_effort = (p.channel == 0 || !channels_.count(p.channel));
  sim_.schedule_at(
      arrive, [this, p = std::move(p), hop_index, path = std::move(path), from,
               to, wire, best_effort]() mutable {
        if (best_effort) {
          if (LinkDir* d = find_dir(from, to)) {
            d->queued_bytes -= std::min<std::size_t>(d->queued_bytes, wire);
          }
        }
        if (hop_index + 2 >= path->size()) {
          deliver(p);
        } else {
          forward(std::move(p), hop_index + 1, std::move(path));
        }
      });
}

void Network::deliver(const Packet& p) {
  packets_delivered_.inc();
  if (trace_->enabled()) {
    trace_->emit(obs::EventType::kPacketRecv, p.dst,
                 static_cast<std::int64_t>(p.id), p.wire_size);
  }
  auto& host = hosts_.at(p.dst);
  auto it = host.ports.find(p.dst_port);
  if (it != host.ports.end() && it->second) it->second(p);
}

std::optional<ChannelId> Network::reserve_channel(HostId src, HostId dst,
                                                  std::int64_t rate_bps) {
  if (rate_bps <= 0) return std::nullopt;
  if (src >= hosts_.size() || dst >= hosts_.size() || src == dst) {
    return std::nullopt;
  }
  const auto& path = *cached_route(src, dst);
  if (path.size() < 2) return std::nullopt;
  // Admission control: every on-path direction must have spare capacity.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkDir* d = find_dir(path[i], path[i + 1]);
    if (!d || d->reserved_bps + rate_bps > d->cfg.bandwidth_bps) {
      return std::nullopt;
    }
  }
  ChannelReservation res;
  res.id = next_channel_++;
  res.src = src;
  res.dst = dst;
  res.rate_bps = rate_bps;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    find_dir(path[i], path[i + 1])->reserved_bps += rate_bps;
    res.path.emplace_back(path[i], path[i + 1]);
  }
  channels_.emplace(res.id, res);
  return res.id;
}

void Network::release_channel(ChannelId id) {
  auto it = channels_.find(id);
  if (it == channels_.end()) return;
  for (auto [from, to] : it->second.path) {
    if (LinkDir* d = find_dir(from, to)) {
      d->reserved_bps -= it->second.rate_bps;
      d->channel_busy_until.erase(id);
    }
  }
  channels_.erase(it);
}

bool Network::resize_channel(ChannelId id, std::int64_t new_rate_bps) {
  auto it = channels_.find(id);
  if (it == channels_.end() || new_rate_bps <= 0) return false;
  const std::int64_t delta = new_rate_bps - it->second.rate_bps;
  if (delta > 0) {
    for (auto [from, to] : it->second.path) {
      const LinkDir* d = find_dir(from, to);
      if (!d || d->reserved_bps + delta > d->cfg.bandwidth_bps) return false;
    }
  }
  for (auto [from, to] : it->second.path) {
    find_dir(from, to)->reserved_bps += delta;
  }
  it->second.rate_bps = new_rate_bps;
  return true;
}

std::optional<ChannelReservation> Network::channel_info(ChannelId id) const {
  auto it = channels_.find(id);
  if (it == channels_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Network::channel_rate_bps(ChannelId id) const {
  auto it = channels_.find(id);
  return it == channels_.end() ? 0 : it->second.rate_bps;
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
