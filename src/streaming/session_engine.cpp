#include "lod/streaming/session_engine.hpp"

#include <algorithm>

namespace lod::streaming {

using net::ByteReader;
using net::ByteWriter;
using proto::Ctl;

SessionEngine::SessionEngine(net::Transport& net, net::HostId host,
                             net::Port control_port,
                             double fast_start_multiplier, std::string role)
    : net_(net),
      host_(host),
      flight_(&net.obs().flight()),
      fast_start_multiplier_(fast_start_multiplier),
      role_(std::move(role)),
      ctl_(net, host, control_port),
      data_(net, host, static_cast<net::Port>(control_port + 1)) {
  auto& reg = net_.obs().metrics();
  const obs::Labels host_label{{"host", std::to_string(host_)}};
  const std::string prefix = "lod." + role_ + ".";
  counters_.packets_sent = reg.counter(prefix + "packets_sent", host_label);
  counters_.bytes_sent = reg.counter(prefix + "bytes_sent", host_label);
  counters_.repairs = reg.counter(prefix + "repairs", host_label);
  counters_.sessions_opened =
      reg.counter(prefix + "sessions_opened", host_label);
  counters_.active_sessions = reg.gauge(prefix + "active_sessions", host_label);
  ctl_.on_receive([this](const Message& m) { handle_control(m); });
  net_.obs().add_sessions(this, [this](std::vector<obs::SessionRow>& rows) {
    for (const auto& [id, s] : sessions_) {
      rows.push_back({role_, host_, id, s.client, s.paused,
                      s.parked.has_value(), s.stats});
    }
  });
}

SessionEngine::~SessionEngine() {
  net_.obs().remove_sessions(this);
  for (auto& [id, s] : sessions_) {
    if (s.timer) net_.cancel(*s.timer);
  }
}

SessionEngine::Session* SessionEngine::find(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const SessionEngine::Session* SessionEngine::find(std::uint64_t id) const {
  return const_cast<SessionEngine*>(this)->find(id);
}

SessionEngine::Session* SessionEngine::playable(std::uint64_t id) {
  Session* s = find(id);
  return s && s->source ? s : nullptr;
}

void SessionEngine::trace(obs::FlightType type, const Session& s,
                          std::int64_t b) {
  flight_->emit(type, s.client, static_cast<std::int64_t>(s.id), b);
}

void SessionEngine::reply(net::HostId h, net::Port p,
                          std::vector<std::byte> payload) {
  ctl_.send_to(h, p, std::move(payload));
}

void SessionEngine::send_error(net::HostId h, net::Port p,
                               const std::string& msg) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Ctl::kError));
  w.str(msg);
  reply(h, p, std::move(w).take());
}

void SessionEngine::send_eos(const Session& s, std::uint32_t total) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Ctl::kEndOfStream));
  w.u64(s.id);
  w.u32(total);
  reply(s.client, s.client_ctl_port, std::move(w).take());
}

SessionEngine::Session& SessionEngine::open(net::HostId client,
                                            net::Port client_ctl_port,
                                            net::Port data_port,
                                            PacketSource* src,
                                            const obs::TraceContext& ctx) {
  const std::uint64_t id = next_session_++;
  Session& s = sessions_[id];
  s.id = id;
  s.client = client;
  s.client_ctl_port = client_ctl_port;
  s.data_port = data_port;
  s.source = src;
  s.ctx = ctx;
  counters_.sessions_opened.inc();
  counters_.active_sessions.add(1);
  return s;
}

SessionEngine::Session& SessionEngine::start(PacketSource& src,
                                             const Start& st) {
  Session& s = open(st.client, st.client_ctl_port, st.client_data_port, &src,
                    st.ctx);
  // An adopted session has no QoS channel yet: the reservation is
  // path-bound and the player can only re-reserve after adoption. A later
  // kSetRate carries the new id.
  s.channel = st.channel;
  s.epoch = st.epoch;  // an adopting player keeps its epoch
  // An adopted rate comes off the wire: one no player sends paces at 1x.
  s.clock.set_rate(net_.now(), proto::rate_permille(st.rate) ? st.rate : 1.0);
  s.paused = st.paused;
  // Resume exactly where the old replica's stream left off when the player
  // knows the index; derive it from the position when it does not (a kPlay,
  // or a session that never received a packet this epoch).
  anchor(s, st.resume_index != std::numeric_limits<std::uint32_t>::max()
                ? std::min(st.resume_index, src.packet_count())
                : src.seek(st.position));
  if (flight_->tracing()) {
    const auto id = static_cast<std::int64_t>(s.id);
    const std::string span = role_ + (st.adopted ? ".adopt" : ".open");
    const std::uint64_t sp = flight_->begin_span(st.ctx, span, host_, id);
    flight_->end_span(st.ctx, sp, span, host_, id,
                      st.adopted ? s.next_packet : 0);
    flight_->emit_in(st.ctx, obs::FlightType::kSessionOpen, st.client, id,
                     st.position.us, st.content);
  }
  if (!st.adopted) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Ctl::kPlayOk));
    w.u64(s.id);
    reply(st.client, st.client_ctl_port, std::move(w).take());
  }
  src.playhead_moved(s.next_packet, /*jump=*/true);
  if (!s.paused) schedule_next(s);
  return s;
}

void SessionEngine::end(Session& s) {
  counters_.active_sessions.add(-1);
  trace(obs::FlightType::kSessionStop, s);
  cancel_timer(s);
  sessions_.erase(s.id);
}

void SessionEngine::anchor(Session& s, std::uint32_t packet) {
  s.next_packet = packet;
  s.clock.start(net_.now(), packet < s.source->packet_count()
                                ? s.source->send_time(packet)
                                : net::SimDuration{0});
}

void SessionEngine::cancel_timer(Session& s) {
  if (s.timer) {
    net_.cancel(*s.timer);
    s.timer.reset();
  }
}

void SessionEngine::handle_control(const Message& m) {
  ByteReader r(m.payload);
  const Ctl tag = static_cast<Ctl>(r.u8());
  switch (tag) {
    case Ctl::kPlay: {
      Start st;
      st.content = r.str();
      st.position = net::SimDuration{r.i64()};
      st.client = m.src;
      st.client_ctl_port = m.src_port;
      st.client_data_port = r.u16();
      st.channel = r.u32();
      st.ctx = proto::read_trace_context(r);
      if (PacketSource* src = play_source(st.content)) {
        start(*src, st);
      } else {
        send_error(m.src, m.src_port, "no such content: " + st.content);
      }
      return;
    }

    case Ctl::kPause: {
      if (Session* s = playable(r.u64())) {
        s->paused = true;
        ++s->stats.pauses;
        trace(obs::FlightType::kSessionPause, *s);
        cancel_timer(*s);
      }
      return;
    }

    case Ctl::kResume: {
      if (Session* s = playable(r.u64()); s && s->paused) {
        s->paused = false;
        trace(obs::FlightType::kSessionResume, *s);
        anchor(*s, s->next_packet);
        schedule_next(*s);
      }
      return;
    }

    case Ctl::kSeek: {
      const std::uint64_t sid = r.u64();
      const net::SimDuration to{r.i64()};
      if (Session* s = playable(sid)) {
        ++s->stats.seeks;
        trace(obs::FlightType::kSessionSeek, *s, to.us);
        ++s->epoch;  // packets from before the jump are now stale
        cancel_timer(*s);
        // Any fill the session is parked on belongs to the abandoned
        // position; once unparked here, that fill only fills the source.
        s->parked.reset();
        anchor(*s, s->source->seek(to));
        s->source->playhead_moved(s->next_packet, /*jump=*/true);
        if (!s->paused) schedule_next(*s);
      }
      return;
    }

    case Ctl::kSetRate: {
      const std::uint64_t sid = r.u64();
      const std::uint32_t permille = r.u32();
      const net::ChannelId channel = r.u32();
      if (Session* s = playable(sid); s && permille > 0) {
        trace(obs::FlightType::kSessionRate, *s, permille);
        s->channel = channel;  // the client renegotiated its QoS reservation
        // Re-anchor the pacing at the new speed, like resume does.
        cancel_timer(*s);
        s->clock.set_rate(net_.now(), static_cast<double>(permille) / 1000.0);
        anchor(*s, s->next_packet);
        if (!s->paused) schedule_next(*s);
      }
      return;
    }

    case Ctl::kRepair: {
      // Selective retransmission: the client names the packets it never
      // received; they are resent out of band (the paced schedule is
      // untouched), or once the source's fill brings them in.
      const std::uint64_t sid = r.u64();
      const std::uint32_t count = r.u32();
      Session* s = playable(sid);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t idx = r.u32();
        if (!s || idx >= s->source->packet_count()) continue;
        if (const net::Payload* bytes = s->source->packet(idx)) {
          resend(sid, idx, *bytes);
        } else {
          s->source->park_repair(sid, idx);
        }
      }
      return;
    }

    case Ctl::kStop: {
      if (Session* s = find(r.u64())) end(*s);
      return;
    }

    case Ctl::kTimeSync: {
      const std::int64_t client_local = r.i64();
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kTimeSyncReply));
      w.i64(client_local);
      w.i64(net_.local_now(host_).us);
      reply(m.src, m.src_port, std::move(w).take());
      return;
    }

    default:
      handle_verb(tag, r, m);
      return;
  }
}

void SessionEngine::schedule_next(Session& s) {
  if (s.paused || s.parked || !s.source) return;
  cancel_timer(s);
  const PacketSource& src = *s.source;
  if (s.next_packet >= src.packet_count()) {
    trace(obs::FlightType::kSessionEos, s);
    // Total packets: lets repair-mode clients NACK trailing losses.
    send_eos(s, src.packet_count());
    return;
  }
  // Pace by send_time, bursting the first preroll's worth ahead of schedule
  // so the client can fill its buffer fast — but cap the burst at a
  // multiple of the content's bit-rate so the fast-start cannot overflow
  // drop-tail queues (real servers bound their fast-start rate the same way).
  const media::asf::FileProperties& props = src.props;
  net::SimTime due = s.clock.wall_at(src.send_time(s.next_packet) -
                                    props.preroll);
  const std::int64_t bps = std::max<std::int64_t>(props.avg_bitrate_bps, 8'000);
  double burst_bps = fast_start_multiplier_ * static_cast<double>(bps);
  // A session on a reserved channel cannot burst past the reservation: the
  // channel serializer would just queue the excess and add head-of-line
  // delay in front of everything (including repair resends).
  if (s.channel != 0) {
    if (const std::int64_t rate = net_.channel_rate_bps(s.channel)) {
      burst_bps = std::min(burst_bps, static_cast<double>(rate) * 0.95);
    }
  }
  const net::SimDuration min_gap{static_cast<std::int64_t>(
      static_cast<double>(props.packet_bytes) * 8e6 /
      std::max(burst_bps, 8'000.0))};
  if (s.last_send.us > 0 && due < s.last_send + min_gap) {
    due = s.last_send + min_gap;
  }
  const net::SimTime now = net_.now();
  if (due < now) due = now;
  s.timer_due = due;
  // The table's nodes never move, and every way out of it (`end`, the
  // destructor) cancels this timer first, so it may hold the session.
  s.timer = net_.schedule_at(due, [this, &s] { fire(s); });
}

void SessionEngine::fire(Session& s) {
  s.timer.reset();
  const std::uint32_t idx = s.next_packet;
  // The source may have shrunk since the timer was armed (a republished
  // file): such a session has reached its end of stream.
  if (idx < s.source->packet_count()) {
    const net::Payload* bytes = s.source->packet(idx);
    if (!bytes) {
      // Miss: park on the fill; it resumes the session, which then catches
      // up under the burst cap.
      s.parked = s.source->park(s.id, idx, s.ctx);
      return;
    }
    // The scheduled send time, not now(): a late timer must not delay the
    // rest of the burst. A session resumed by a fill was re-armed no
    // earlier than the fill, so its limiter still counts from then.
    s.last_send = s.timer_due;
    send_packet(s, *bytes, idx);
    ++s.next_packet;
    s.source->playhead_moved(s.next_packet, /*jump=*/false);
  }
  schedule_next(s);
}

void SessionEngine::unpark(std::uint64_t session, std::uint32_t token) {
  Session* s = find(session);
  if (!s || s->parked != token) return;
  s->parked.reset();
  if (!s->paused) schedule_next(*s);
}

void SessionEngine::resend(std::uint64_t session, std::uint32_t idx,
                           const net::Payload& bytes) {
  Session* s = find(session);
  if (!s) return;
  ++s->stats.repairs;
  counters_.repairs.inc();
  trace(obs::FlightType::kRepairResend, *s, idx);
  send_packet(*s, bytes, idx);
}

void SessionEngine::send_packet(Session& s, const net::Payload& bytes,
                                std::uint32_t packet_index) {
  // Per-send frame header only; the serialized packet rides as a shared
  // body, so unicast fan-out, repairs and live broadcast all reuse the
  // same encoded bytes.
  ByteWriter w;
  w.reserve(proto::kDataHeaderBytes);
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
      (s.source ? s.source->props.packet_bytes : 1400u) + 20u;
  p.wire_size =
      std::max<std::uint32_t>(
          static_cast<std::uint32_t>(p.payload.size() + p.body.size()),
          nominal) +
      28;
  p.channel = s.channel;
  ++s.stats.packets_sent;
  s.stats.bytes_sent += p.wire_size;
  counters_.packets_sent.inc();
  counters_.bytes_sent.inc(p.wire_size);
  net_.send(std::move(p));
}

}  // namespace lod::streaming
