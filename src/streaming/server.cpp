#include "lod/streaming/server.hpp"

#include <algorithm>

namespace lod::streaming {

using net::ByteReader;
using net::ByteWriter;
using proto::Ctl;

StreamingServer::StreamingServer(net::Transport& net, net::HostId host,
                                 ServerConfig cfg)
    : net_(net),
      host_(host),
      config_(cfg.validated()),
      ctl_(net, host, config_.control_port),
      data_(net, host, static_cast<net::Port>(config_.control_port + 1)) {
  auto& reg = net_.obs().metrics();
  trace_ = &net_.obs().trace();
  const obs::Labels host_label{{"host", std::to_string(host_)}};
  packets_sent_ = reg.counter("lod.server.packets_sent", host_label);
  bytes_sent_ = reg.counter("lod.server.bytes_sent", host_label);
  repairs_ = reg.counter("lod.server.repairs", host_label);
  sessions_opened_ = reg.counter("lod.server.sessions_opened", host_label);
  active_sessions_gauge_ = reg.gauge("lod.server.active_sessions", host_label);
  ctl_.on_receive(
      [this](const net::ReliableEndpoint::Message& m) { handle_control(m); });
}

void StreamingServer::configure(ServerConfig cfg) {
  // Pin the port before validating: the port is fixed at construction, so a
  // caller passing a default/stale struct must not be rejected for a field
  // that is ignored anyway.
  cfg.control_port = config_.control_port;
  config_ = cfg.validated();
}

StreamingServer::SessionCounters StreamingServer::make_session_counters(
    std::uint64_t id) {
  auto& reg = net_.obs().metrics();
  const obs::Labels labels{{"host", std::to_string(host_)},
                           {"session", std::to_string(id)}};
  SessionCounters c;
  c.packets_sent = reg.counter("lod.server.session.packets_sent", labels);
  c.bytes_sent = reg.counter("lod.server.session.bytes_sent", labels);
  c.seeks = reg.counter("lod.server.session.seeks", labels);
  c.pauses = reg.counter("lod.server.session.pauses", labels);
  c.repairs = reg.counter("lod.server.session.repairs", labels);
  return c;
}

void StreamingServer::end_session(Session& s) {
  if (s.stopped) return;
  s.stopped = true;
  active_sessions_gauge_.add(-1);
  // Cardinality hygiene: the session's labeled series leave the registry
  // (long simulations would otherwise grow it without bound). The handles
  // in s.stats stay valid — retire() moves the cells to a graveyard — so
  // session_stats() still reads the final values.
  net_.obs().metrics().retire(
      "lod.server.session.", {{"host", std::to_string(host_)},
                              {"session", std::to_string(s.id)}});
  if (trace_->enabled()) {
    trace_->emit(obs::EventType::kSessionStop, s.client,
                 static_cast<std::int64_t>(s.id));
  }
}

void StreamingServer::publish(std::string name, media::asf::File file) {
  auto it = files_.find(name);
  if (it != files_.end()) {
    // Republish keeps the node (and thus the File*) alive with new content;
    // the serialized-packet cache for the old content must go.
    packet_cache_.erase(&it->second);
    it->second = std::move(file);
    return;
  }
  files_.emplace(std::move(name), std::move(file));
}

std::function<void(const media::asf::DataPacket&)>
StreamingServer::open_live_channel(std::string name, media::asf::Header header) {
  live_[name] = LiveChannel{std::move(header), {}, true};
  return [this, name](const media::asf::DataPacket& pkt) {
    auto it = live_.find(name);
    if (it == live_.end() || !it->second.open) return;
    // Serialize once; every subscriber's datagram shares the same body.
    const net::Payload bytes{media::asf::serialize_packet(pkt)};
    for (std::uint64_t sid : it->second.subscribers) {
      if (Session* s = find_session(sid); s && !s->stopped && !s->paused) {
        // Live packets are unrepeatable; index mirrors the seq counter.
        send_packet(*s, bytes, static_cast<std::uint32_t>(s->next_seq));
      }
    }
  };
}

void StreamingServer::close_live_channel(const std::string& name) {
  auto it = live_.find(name);
  if (it == live_.end()) return;
  it->second.open = false;
  for (std::uint64_t sid : it->second.subscribers) {
    if (Session* s = find_session(sid); s && !s->stopped) {
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kEndOfStream));
      w.u64(sid);
      w.u32(0);  // live streams are unrepeatable: no repair horizon
      reply(*s, std::move(w).take());
    }
  }
}

std::size_t StreamingServer::active_sessions() const {
  std::size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s.stopped) ++n;
  }
  return n;
}

std::optional<SessionStats> StreamingServer::session_stats(
    std::uint64_t session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return std::nullopt;
  const SessionCounters& c = it->second.stats;
  SessionStats out;
  out.packets_sent = c.packets_sent.value();
  out.bytes_sent = c.bytes_sent.value();
  out.seeks = c.seeks.value();
  out.pauses = c.pauses.value();
  out.repairs = c.repairs.value();
  return out;
}

std::uint64_t ServerMetrics::packets_sent() const {
  return server_->packets_sent_.value();
}
std::uint64_t ServerMetrics::bytes_sent() const {
  return server_->bytes_sent_.value();
}
std::uint64_t ServerMetrics::repairs() const {
  return server_->repairs_.value();
}
std::uint64_t ServerMetrics::sessions_opened() const {
  return server_->sessions_opened_.value();
}
std::int64_t ServerMetrics::active_sessions() const {
  return server_->active_sessions_gauge_.value();
}
std::optional<SessionStats> ServerMetrics::session(std::uint64_t id) const {
  return server_->session_stats(id);
}
obs::Snapshot ServerMetrics::snapshot() const {
  return server_->net_.obs().snapshot();
}

StreamingServer::Session* StreamingServer::find_session(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

void StreamingServer::reply(const Session& s, std::vector<std::byte> payload) {
  ctl_.send_to(s.client, s.client_ctl_port, std::move(payload));
}
void StreamingServer::reply_to(net::HostId h, net::Port p,
                               std::vector<std::byte> payload) {
  ctl_.send_to(h, p, std::move(payload));
}

void StreamingServer::handle_control(const net::ReliableEndpoint::Message& m) {
  ByteReader r(m.payload);
  const Ctl tag = static_cast<Ctl>(r.u8());

  auto send_error = [&](const std::string& msg) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Ctl::kError));
    w.str(msg);
    reply_to(m.src, m.src_port, std::move(w).take());
  };

  switch (tag) {
    case Ctl::kDescribe: {
      const std::string name = r.str();
      const obs::TraceContext ctx = proto::read_trace_context(r);
      const media::asf::Header* header = nullptr;
      if (auto it = files_.find(name); it != files_.end()) {
        header = &it->second.header;
      } else if (auto lt = live_.find(name); lt != live_.end()) {
        header = &lt->second.header;
      }
      if (!header) {
        send_error("no such content: " + name);
        return;
      }
      // Instant span: the origin's handling is synchronous, but the marker
      // pins this hop (and its actor) into the caller's span tree.
      const std::uint64_t sp =
          trace_->begin_span(ctx, "server.describe", host_);
      trace_->end_span(ctx, sp, "server.describe", host_);
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kDescribeOk));
      w.blob(media::asf::serialize_header(*header));
      reply_to(m.src, m.src_port, std::move(w).take());
      return;
    }

    case Ctl::kPlay: {
      const std::string name = r.str();
      const net::SimDuration from{r.i64()};
      const net::Port data_port = r.u16();
      const net::ChannelId channel = r.u32();
      const obs::TraceContext ctx = proto::read_trace_context(r);
      auto it = files_.find(name);
      if (it == files_.end()) {
        send_error("no such content: " + name);
        return;
      }
      Session s;
      s.id = next_session_++;
      s.client = m.src;
      s.client_ctl_port = m.src_port;
      s.data_port = data_port;
      s.channel = channel;
      s.file = &it->second;
      s.next_packet = media::asf::seek_packet(*s.file, from);
      s.pace_epoch = net_.now();
      s.pace_offset = s.next_packet < s.file->packets.size()
                          ? s.file->packets[s.next_packet].send_time
                          : net::SimDuration{0};
      const std::uint64_t id = s.id;
      s.stats = make_session_counters(id);
      sessions_.emplace(id, std::move(s));
      sessions_opened_.inc();
      active_sessions_gauge_.add(1);
      const std::uint64_t sp = trace_->begin_span(ctx, "server.open", host_,
                                                  static_cast<std::int64_t>(id));
      trace_->end_span(ctx, sp, "server.open", host_,
                       static_cast<std::int64_t>(id));
      if (trace_->enabled()) {
        trace_->emit_in(ctx, obs::EventType::kSessionOpen, m.src,
                        static_cast<std::int64_t>(id), from.us, name);
      }
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kPlayOk));
      w.u64(id);
      reply_to(m.src, m.src_port, std::move(w).take());
      schedule_next(sessions_.at(id));
      return;
    }

    case Ctl::kJoinLive: {
      const std::string name = r.str();
      const net::Port data_port = r.u16();
      auto it = live_.find(name);
      if (it == live_.end()) {
        send_error("no such live channel: " + name);
        return;
      }
      Session s;
      s.id = next_session_++;
      s.client = m.src;
      s.client_ctl_port = m.src_port;
      s.data_port = data_port;
      s.live_name = name;
      const std::uint64_t id = s.id;
      s.stats = make_session_counters(id);
      sessions_.emplace(id, std::move(s));
      sessions_opened_.inc();
      active_sessions_gauge_.add(1);
      if (trace_->enabled()) {
        trace_->emit(obs::EventType::kSessionOpen, m.src,
                     static_cast<std::int64_t>(id), 0, name);
      }
      it->second.subscribers.push_back(id);
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kPlayOk));
      w.u64(id);
      reply_to(m.src, m.src_port, std::move(w).take());
      if (!it->second.open) close_live_channel(name);  // late join: EOS
      return;
    }

    case Ctl::kPause: {
      if (Session* s = find_session(r.u64()); s && s->file) {
        s->paused = true;
        s->stats.pauses.inc();
        if (trace_->enabled()) {
          trace_->emit(obs::EventType::kSessionPause, s->client,
                       static_cast<std::int64_t>(s->id));
        }
        if (s->timer) {
          net_.cancel(*s->timer);
          s->timer.reset();
        }
      }
      return;
    }

    case Ctl::kResume: {
      if (Session* s = find_session(r.u64()); s && s->file && s->paused) {
        s->paused = false;
        if (trace_->enabled()) {
          trace_->emit(obs::EventType::kSessionResume, s->client,
                       static_cast<std::int64_t>(s->id));
        }
        s->pace_epoch = net_.now();
        s->pace_offset = s->next_packet < s->file->packets.size()
                             ? s->file->packets[s->next_packet].send_time
                             : net::SimDuration{0};
        schedule_next(*s);
      }
      return;
    }

    case Ctl::kSeek: {
      const std::uint64_t sid = r.u64();
      const net::SimDuration to{r.i64()};
      if (Session* s = find_session(sid); s && s->file) {
        s->stats.seeks.inc();
        if (trace_->enabled()) {
          trace_->emit(obs::EventType::kSessionSeek, s->client,
                       static_cast<std::int64_t>(s->id), to.us);
        }
        ++s->epoch;  // packets from before the jump are now stale
        if (s->timer) {
          net_.cancel(*s->timer);
          s->timer.reset();
        }
        s->next_packet = media::asf::seek_packet(*s->file, to);
        s->pace_epoch = net_.now();
        s->pace_offset = s->next_packet < s->file->packets.size()
                             ? s->file->packets[s->next_packet].send_time
                             : net::SimDuration{0};
        if (!s->paused) schedule_next(*s);
      }
      return;
    }

    case Ctl::kSetRate: {
      const std::uint64_t sid = r.u64();
      const std::uint32_t permille = r.u32();
      const net::ChannelId channel = r.u32();
      if (Session* s = find_session(sid); s && s->file && permille > 0) {
        if (trace_->enabled()) {
          trace_->emit(obs::EventType::kSessionRate, s->client,
                       static_cast<std::int64_t>(s->id), permille);
        }
        s->channel = channel;  // the client renegotiated its QoS reservation
        // Re-anchor the pacing at the new speed, like resume does.
        if (s->timer) {
          net_.cancel(*s->timer);
          s->timer.reset();
        }
        s->rate = static_cast<double>(permille) / 1000.0;
        s->pace_epoch = net_.now();
        s->pace_offset = s->next_packet < s->file->packets.size()
                             ? s->file->packets[s->next_packet].send_time
                             : net::SimDuration{0};
        if (!s->paused) schedule_next(*s);
      }
      return;
    }

    case Ctl::kRepair: {
      // Selective retransmission: the client names the file packets it never
      // received; if the session is live-on-file we resend them out of band
      // (the paced schedule is untouched).
      const std::uint64_t sid = r.u64();
      const std::uint32_t count = r.u32();
      Session* s = find_session(sid);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t idx = r.u32();
        if (s && s->file && !s->stopped &&
            idx < s->file->packets.size()) {
          s->stats.repairs.inc();
          repairs_.inc();
          if (trace_->enabled()) {
            trace_->emit(obs::EventType::kRepairResend, s->client,
                         static_cast<std::int64_t>(s->id), idx);
          }
          send_packet(*s, cached_packet(s->file, idx), idx);
        }
      }
      return;
    }

    case Ctl::kStop:
    case Ctl::kLeaveLive: {
      const std::uint64_t sid = r.u64();
      if (Session* s = find_session(sid)) {
        end_session(*s);
        if (s->timer) {
          net_.cancel(*s->timer);
          s->timer.reset();
        }
        if (!s->live_name.empty()) {
          if (auto lt = live_.find(s->live_name); lt != live_.end()) {
            auto& subs = lt->second.subscribers;
            subs.erase(std::remove(subs.begin(), subs.end(), sid), subs.end());
          }
        }
      }
      return;
    }

    case Ctl::kTimeSync: {
      const std::int64_t client_local = r.i64();
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kTimeSyncReply));
      w.i64(client_local);
      w.i64(net_.local_now(host_).us);
      reply_to(m.src, m.src_port, std::move(w).take());
      return;
    }

    default:
      return;  // unknown/client-only tags ignored
  }
}

void StreamingServer::schedule_next(Session& s) {
  if (s.stopped || s.paused || !s.file) return;
  if (s.next_packet >= s.file->packets.size()) {
    if (trace_->enabled()) {
      trace_->emit(obs::EventType::kSessionEos, s.client,
                   static_cast<std::int64_t>(s.id));
    }
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Ctl::kEndOfStream));
    w.u64(s.id);
    // Total file packets: lets repair-mode clients NACK trailing losses.
    w.u32(static_cast<std::uint32_t>(s.file->packets.size()));
    reply(s, std::move(w).take());
    return;
  }
  // Pace by send_time, bursting the first preroll's worth ahead of schedule
  // so the client can fill its buffer fast — but cap the burst at ~4x the
  // content's bit-rate so the fast-start cannot overflow drop-tail queues
  // (real servers bound their fast-start rate the same way).
  const auto& pkt = s.file->packets[s.next_packet];
  const net::SimDuration media_ahead =
      pkt.send_time - s.pace_offset - s.file->header.props.preroll;
  net::SimTime due =
      s.pace_epoch + net::SimDuration{static_cast<std::int64_t>(
                         static_cast<double>(media_ahead.us) / s.rate)};
  const std::int64_t bps =
      std::max<std::int64_t>(s.file->header.props.avg_bitrate_bps, 8'000);
  double burst_bps = config_.fast_start_multiplier * static_cast<double>(bps);
  // A session on a reserved channel cannot burst past the reservation: the
  // channel serializer would just queue the excess and add head-of-line
  // delay in front of everything (including repair resends).
  if (s.channel != 0) {
    if (const std::int64_t rate = net_.channel_rate_bps(s.channel)) {
      burst_bps = std::min(burst_bps, static_cast<double>(rate) * 0.95);
    }
  }
  const net::SimDuration min_gap{static_cast<std::int64_t>(
      static_cast<double>(s.file->header.props.packet_bytes) * 8e6 /
      std::max(burst_bps, 8'000.0))};
  if (s.last_send.us > 0 && due < s.last_send + min_gap) {
    due = s.last_send + min_gap;
  }
  const net::SimTime now = net_.now();
  if (due < now) due = now;
  const std::uint64_t sid = s.id;
  s.timer_due = due;
  s.timer = net_.schedule_at(due, [this, sid] {
    Session* sp = find_session(sid);
    if (!sp || sp->stopped || sp->paused || !sp->file) return;
    sp->timer.reset();
    sp->last_send = sp->timer_due;
    send_packet(*sp, cached_packet(sp->file, sp->next_packet),
                static_cast<std::uint32_t>(sp->next_packet));
    ++sp->next_packet;
    schedule_next(*sp);
  });
}

const net::Payload& StreamingServer::cached_packet(const media::asf::File* f,
                                                   std::size_t idx) {
  auto& cache = packet_cache_[f];
  if (cache.size() != f->packets.size()) cache.resize(f->packets.size());
  net::Payload& slot = cache[idx];
  if (slot.empty()) slot = net::Payload{media::asf::serialize_packet(f->packets[idx])};
  return slot;
}

void StreamingServer::send_packet(Session& s, const net::Payload& bytes,
                                  std::uint32_t packet_index) {
  // Per-send frame header only; the serialized packet rides as a shared
  // body, so unicast fan-out, repairs and live broadcast all reuse the
  // same encoded bytes.
  ByteWriter w;
  w.u32(proto::kDataMagic);
  w.u64(s.id);
  w.u32(s.epoch);
  w.u64(s.next_seq++);
  w.u32(packet_index);

  net::Datagram p;
  p.src = host_;
  p.dst = s.client;
  p.src_port = data_.port();
  p.dst_port = s.data_port;
  p.payload = std::move(w).take();
  p.body = bytes;
  // ASF ships FIXED-size data packets (padding included), so the wire cost
  // is the nominal packet size + session framing + UDP/IP — never less,
  // even for a padded packet.
  const std::uint32_t nominal =
      (s.file ? s.file->header.props.packet_bytes : 1400u) + 20u;
  p.wire_size =
      std::max<std::uint32_t>(
          static_cast<std::uint32_t>(p.payload.size() + p.body.size()),
          nominal) +
      28;
  p.channel = s.channel;
  s.stats.packets_sent.inc();
  s.stats.bytes_sent.inc(p.wire_size);
  packets_sent_.inc();
  bytes_sent_.inc(p.wire_size);
  net_.send(std::move(p));
}

}  // namespace lod::streaming
