#include "lod/edge/edge_node.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

namespace lod::edge {

using net::ByteReader;
using net::ByteWriter;
using streaming::proto::Ctl;

// --- OriginGateway -----------------------------------------------------------

OriginGateway::OriginGateway(net::Transport& net,
                             streaming::StreamingServer& origin, net::Port port)
    : origin_(origin), rpc_(net, origin.host(), port) {
  auto& reg = net.obs().metrics();
  trace_ = &net.obs().trace();
  const obs::Labels host_label{{"host", std::to_string(origin.host())}};
  m_meta_requests_ = reg.counter("lod.edge.origin.meta_requests", host_label);
  m_segment_requests_ =
      reg.counter("lod.edge.origin.segment_requests", host_label);
  m_segment_bytes_ = reg.counter("lod.edge.origin.segment_bytes", host_label);

  rpc_.route("/edge/meta", [this](std::string_view,
                                  std::span<const std::byte> body)
                               -> std::pair<int, std::vector<std::byte>> {
    m_meta_requests_.inc();
    ByteReader r(body);
    const std::string name = r.str();
    const obs::TraceContext ctx = streaming::proto::read_trace_context(r);
    const std::uint64_t sp =
        trace_->begin_span(ctx, "origin.meta", origin_.host());
    const media::asf::File* f = origin_.stored(name);
    trace_->end_span(ctx, sp, "origin.meta", origin_.host(), f ? 200 : 404);
    if (!f) return {404, {}};
    ByteWriter w;
    w.blob(media::asf::serialize_header(f->header));
    w.u32(static_cast<std::uint32_t>(f->packets.size()));
    w.u32(static_cast<std::uint32_t>(f->index.size()));
    for (const auto& e : f->index) {
      w.i64(e.time.us);
      w.u32(e.packet);
    }
    for (const auto& p : f->packets) w.i64(p.send_time.us);
    return {200, std::move(w).take()};
  });

  rpc_.route("/edge/segment", [this](std::string_view,
                                     std::span<const std::byte> body)
                                  -> std::pair<int, std::vector<std::byte>> {
    m_segment_requests_.inc();
    ByteReader r(body);
    const std::string name = r.str();
    const std::uint32_t seg = r.u32();
    const std::uint32_t per = r.u32();
    const obs::TraceContext ctx = streaming::proto::read_trace_context(r);
    const std::uint64_t sp =
        trace_->begin_span(ctx, "origin.segment", origin_.host(), seg);
    const media::asf::File* f = origin_.stored(name);
    if (!f || per == 0) {
      trace_->end_span(ctx, sp, "origin.segment", origin_.host(), seg, 404);
      return {404, {}};
    }
    const std::size_t n = f->packets.size();
    const std::size_t first = static_cast<std::size_t>(seg) * per;
    if (first >= n) {
      trace_->end_span(ctx, sp, "origin.segment", origin_.host(), seg, 404);
      return {404, {}};
    }
    const std::size_t last = std::min<std::size_t>(first + per, n);
    // Each packet is written straight into the reply as a length-prefixed
    // blob, with no per-packet buffer in between.
    std::size_t total = 4;
    for (std::size_t i = first; i < last; ++i) {
      total += 4 + media::asf::packet_wire_size(f->packets[i]);
    }
    ByteWriter w;
    w.reserve(total);
    w.u32(static_cast<std::uint32_t>(last - first));
    for (std::size_t i = first; i < last; ++i) {
      const auto& pkt = f->packets[i];
      w.u32(static_cast<std::uint32_t>(media::asf::packet_wire_size(pkt)));
      media::asf::write_packet(w, pkt);
    }
    auto out = std::move(w).take();
    m_segment_bytes_.inc(out.size());
    trace_->end_span(ctx, sp, "origin.segment", origin_.host(), seg, 200);
    return {200, std::move(out)};
  });
}

// --- EdgeNode ----------------------------------------------------------------

EdgeNode::EdgeNode(net::Transport& net, net::HostId host, EdgeConfig cfg)
    : net_(net),
      host_(host),
      config_(cfg.validated()),
      ctl_(net, host, config_.control_port),
      data_(net, host, static_cast<net::Port>(config_.control_port + 1)),
      origin_rpc_(net, host, static_cast<net::Port>(config_.control_port + 2)),
      migrate_rpc_(net, host,
                   static_cast<net::Port>(
                       config_.control_port +
                       streaming::proto::kMigratePortOffset)),
      cache_(config_.cache_budget_bytes, &net.obs().metrics(),
             obs::Labels{{"host", std::to_string(host)}}) {
  auto& reg = net_.obs().metrics();
  trace_ = &net_.obs().trace();
  const obs::Labels host_label{{"host", std::to_string(host_)}};
  m_packets_sent_ = reg.counter("lod.edge.packets_sent", host_label);
  m_bytes_sent_ = reg.counter("lod.edge.bytes_sent", host_label);
  m_sessions_opened_ = reg.counter("lod.edge.sessions_opened", host_label);
  m_active_sessions_ = reg.gauge("lod.edge.active_sessions", host_label);
  m_demand_fetches_ = reg.counter("lod.edge.demand_fetches", host_label);
  m_prefetch_fetches_ = reg.counter("lod.edge.prefetch_fetches", host_label);
  m_fetch_bytes_ = reg.counter("lod.edge.fetch_bytes", host_label);
  m_repairs_ = reg.counter("lod.edge.repairs", host_label);
  m_miss_fill_us_ = reg.histogram("lod.edge.miss_fill_us", host_label);
  ctl_.on_receive(
      [this](const net::ReliableEndpoint::Message& m) { handle_control(m); });
  migrate_rpc_.route(
      "/edge/migrate",
      [this](std::string_view, std::span<const std::byte> body) {
        return handle_migrate(body);
      });
}

EdgeNode::~EdgeNode() {
  // Session pacing timers capture `this` raw; killing the node (the failover
  // scenario) must pull them out of the simulator. RPC completions are
  // guarded by `alive_` instead, because the simulator owns those callbacks.
  *alive_ = false;
  for (auto& [id, s] : sessions_) {
    if (s.timer) net_.cancel(*s.timer);
  }
}

void EdgeNode::set_presentation_order(const std::string& content,
                                      std::vector<PacketRange> order) {
  ContentMeta& meta = contents_[content];
  meta.order_override = std::move(order);
  if (meta.ready) {
    meta.prefetch.emplace(meta.packet_count, config_.packets_per_segment,
                          *meta.order_override);
  }
}

std::size_t EdgeNode::active_sessions() const {
  std::size_t n = 0;
  for (const auto& [id, s] : sessions_) {
    if (!s.stopped) ++n;
  }
  return n;
}

EdgeNode::Session* EdgeNode::find_session(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

void EdgeNode::reply_to(net::HostId h, net::Port p,
                        std::vector<std::byte> payload) {
  ctl_.send_to(h, p, std::move(payload));
}

void EdgeNode::end_session(Session& s) {
  if (s.stopped) return;
  s.stopped = true;
  m_active_sessions_.add(-1);
  if (trace_->enabled()) {
    trace_->emit(obs::EventType::kSessionStop, s.client,
                 static_cast<std::int64_t>(s.id));
  }
}

EdgeNode::ContentMeta& EdgeNode::ensure_meta(const std::string& content,
                                             const obs::TraceContext& ctx) {
  ContentMeta& meta = contents_[content];
  if (meta.ready || meta.fetching) return meta;
  meta.fetching = true;
  meta.fill_ctx = ctx;
  meta.fill_span = trace_->begin_span(ctx, "edge.meta_fill", host_);
  ByteWriter w;
  w.str(content);
  streaming::proto::write_trace_context(
      w, meta.fill_span ? ctx.child(meta.fill_span) : obs::TraceContext{});
  auto alive = alive_;
  origin_rpc_.call(config_.origin, config_.origin_gateway_port, "/edge/meta",
                   std::move(w).take(),
                   [this, alive, content](net::Result<net::RpcReply> r) {
                     if (!*alive) return;
                     const int status = r ? r->status : 0;
                     if (status != 200) {
                       fail_meta(content, status);
                       return;
                     }
                     on_meta(content, r->body);
                   });
  return meta;
}

void EdgeNode::fail_meta(const std::string& content, int status) {
  ContentMeta& m = contents_[content];
  m.fetching = false;
  if (m.fill_span) {
    trace_->end_span(m.fill_ctx, m.fill_span, "edge.meta_fill", host_, status);
    m.fill_span = 0;
  }
  for (auto [h, p] : m.waiting_describe) {
    ByteWriter e;
    e.u8(static_cast<std::uint8_t>(Ctl::kError));
    e.str("no such content: " + content);
    reply_to(h, p, std::move(e).take());
  }
  m.waiting_describe.clear();
}

void EdgeNode::on_meta(const std::string& content,
                       std::span<const std::byte> body) {
  ContentMeta parsed;
  try {
    ByteReader r(body);
    parsed.header_bytes = r.blob();
    parsed.header = media::asf::parse_header(parsed.header_bytes);
    parsed.packet_count = r.u32();
    const std::uint32_t index_count = r.u32();
    parsed.index.reserve(r.bounded_count(index_count, 8 + 4));
    for (std::uint32_t i = 0; i < index_count; ++i) {
      media::asf::IndexEntry e;
      e.time = net::SimDuration{r.i64()};
      e.packet = r.u32();
      parsed.index.push_back(e);
    }
    parsed.send_times_us.reserve(r.bounded_count(parsed.packet_count, 8));
    for (std::uint32_t i = 0; i < parsed.packet_count; ++i) {
      parsed.send_times_us.push_back(r.i64());
    }
  } catch (const std::exception&) {
    fail_meta(content, 0);  // malformed reply: as if the origin refused
    return;
  }
  ContentMeta& meta = contents_[content];
  meta.fetching = false;
  meta.header_bytes = std::move(parsed.header_bytes);
  meta.header = std::move(parsed.header);
  meta.packet_count = parsed.packet_count;
  meta.index = std::move(parsed.index);
  meta.send_times_us = std::move(parsed.send_times_us);
  meta.ready = true;
  if (meta.fill_span) {
    trace_->end_span(meta.fill_ctx, meta.fill_span, "edge.meta_fill", host_,
                     meta.packet_count);
    meta.fill_span = 0;
  }
  if (meta.order_override) {
    meta.prefetch.emplace(meta.packet_count, config_.packets_per_segment,
                          *meta.order_override);
  } else {
    meta.prefetch.emplace(meta.packet_count, config_.packets_per_segment);
  }
  ByteWriter ok;
  ok.u8(static_cast<std::uint8_t>(Ctl::kDescribeOk));
  ok.blob(meta.header_bytes);
  const auto ok_bytes = std::move(ok).take();
  for (auto [h, p] : meta.waiting_describe) reply_to(h, p, ok_bytes);
  meta.waiting_describe.clear();
}

std::uint32_t EdgeNode::packet_for(const ContentMeta& meta,
                                   net::SimDuration t) const {
  std::uint32_t best = 0;
  for (const auto& e : meta.index) {
    if (e.time.us <= t.us) {
      best = e.packet;
    } else {
      break;
    }
  }
  return std::min(best, meta.packet_count);
}

void EdgeNode::handle_control(const net::ReliableEndpoint::Message& m) {
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
      const obs::TraceContext ctx = streaming::proto::read_trace_context(r);
      const std::uint64_t sp = trace_->begin_span(ctx, "edge.describe", host_);
      trace_->end_span(ctx, sp, "edge.describe", host_);
      ContentMeta& meta = ensure_meta(name, ctx);
      if (meta.ready) {
        ByteWriter w;
        w.u8(static_cast<std::uint8_t>(Ctl::kDescribeOk));
        w.blob(meta.header_bytes);
        reply_to(m.src, m.src_port, std::move(w).take());
      } else {
        meta.waiting_describe.emplace_back(m.src, m.src_port);
      }
      return;
    }

    case Ctl::kPlay: {
      const std::string name = r.str();
      const net::SimDuration from{r.i64()};
      const net::Port data_port = r.u16();
      const net::ChannelId channel = r.u32();
      const obs::TraceContext ctx = streaming::proto::read_trace_context(r);
      auto it = contents_.find(name);
      if (it == contents_.end() || !it->second.ready) {
        // Players DESCRIBE first (which pulls the meta); a PLAY without it
        // is a protocol misuse, not a transient.
        send_error("content not ready: " + name);
        return;
      }
      const ContentMeta& meta = it->second;
      Session s;
      s.id = next_session_++;
      s.client = m.src;
      s.client_ctl_port = m.src_port;
      s.data_port = data_port;
      s.channel = channel;
      s.content = name;
      s.ctx = ctx;
      s.next_packet = packet_for(meta, from);
      s.pace_epoch = net_.now();
      s.pace_offset = s.next_packet < meta.packet_count
                          ? net::SimDuration{meta.send_times_us[s.next_packet]}
                          : net::SimDuration{0};
      const std::uint64_t id = s.id;
      sessions_.emplace(id, std::move(s));
      m_sessions_opened_.inc();
      m_active_sessions_.add(1);
      const std::uint64_t sp = trace_->begin_span(
          ctx, "edge.open", host_, static_cast<std::int64_t>(id));
      trace_->end_span(ctx, sp, "edge.open", host_,
                       static_cast<std::int64_t>(id));
      if (trace_->enabled()) {
        trace_->emit_in(ctx, obs::EventType::kSessionOpen, m.src,
                        static_cast<std::int64_t>(id), from.us, name);
      }
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kPlayOk));
      w.u64(id);
      reply_to(m.src, m.src_port, std::move(w).take());
      prefetch_tick(name, sessions_.at(id).next_packet);
      schedule_next(sessions_.at(id));
      return;
    }

    case Ctl::kPause: {
      if (Session* s = find_session(r.u64()); s && !s->stopped) {
        s->paused = true;
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
      if (Session* s = find_session(r.u64()); s && !s->stopped && s->paused) {
        s->paused = false;
        if (trace_->enabled()) {
          trace_->emit(obs::EventType::kSessionResume, s->client,
                       static_cast<std::int64_t>(s->id));
        }
        const ContentMeta& meta = contents_.at(s->content);
        s->pace_epoch = net_.now();
        s->pace_offset =
            s->next_packet < meta.packet_count
                ? net::SimDuration{meta.send_times_us[s->next_packet]}
                : net::SimDuration{0};
        schedule_next(*s);
      }
      return;
    }

    case Ctl::kSeek: {
      const std::uint64_t sid = r.u64();
      const net::SimDuration to{r.i64()};
      if (Session* s = find_session(sid); s && !s->stopped) {
        if (trace_->enabled()) {
          trace_->emit(obs::EventType::kSessionSeek, s->client,
                       static_cast<std::int64_t>(s->id), to.us);
        }
        ++s->epoch;  // packets from before the jump are now stale
        if (s->timer) {
          net_.cancel(*s->timer);
          s->timer.reset();
        }
        // Any in-flight miss fill belongs to the abandoned position; the
        // completion handler checks this field, so clearing it here makes
        // that fill a pure cache insert.
        s->waiting_on.reset();
        const ContentMeta& meta = contents_.at(s->content);
        s->next_packet = packet_for(meta, to);
        s->pace_epoch = net_.now();
        s->pace_offset =
            s->next_packet < meta.packet_count
                ? net::SimDuration{meta.send_times_us[s->next_packet]}
                : net::SimDuration{0};
        prefetch_tick(s->content, s->next_packet);  // follow the jump
        if (!s->paused) schedule_next(*s);
      }
      return;
    }

    case Ctl::kSetRate: {
      const std::uint64_t sid = r.u64();
      const std::uint32_t permille = r.u32();
      const net::ChannelId channel = r.u32();
      if (Session* s = find_session(sid); s && !s->stopped && permille > 0) {
        if (trace_->enabled()) {
          trace_->emit(obs::EventType::kSessionRate, s->client,
                       static_cast<std::int64_t>(s->id), permille);
        }
        s->channel = channel;
        if (s->timer) {
          net_.cancel(*s->timer);
          s->timer.reset();
        }
        s->rate = static_cast<double>(permille) / 1000.0;
        const ContentMeta& meta = contents_.at(s->content);
        s->pace_epoch = net_.now();
        s->pace_offset =
            s->next_packet < meta.packet_count
                ? net::SimDuration{meta.send_times_us[s->next_packet]}
                : net::SimDuration{0};
        if (!s->paused && !s->waiting_on) schedule_next(*s);
      }
      return;
    }

    case Ctl::kRepair: {
      const std::uint64_t sid = r.u64();
      const std::uint32_t count = r.u32();
      Session* s = find_session(sid);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t idx = r.u32();
        if (!s || s->stopped) continue;
        const ContentMeta& meta = contents_.at(s->content);
        if (idx >= meta.packet_count) continue;
        const std::uint32_t seg = idx / config_.packets_per_segment;
        const SegmentKey key{s->content, seg};
        if (const auto* pkts = cache_.get(key)) {
          m_repairs_.inc();
          if (trace_->enabled()) {
            trace_->emit(obs::EventType::kRepairResend, s->client,
                         static_cast<std::int64_t>(s->id), idx);
          }
          send_packet(*s, (*pkts)[idx - seg * config_.packets_per_segment],
                      idx);
        } else {
          start_fetch(s->content, seg, /*demand=*/true);
          inflight_[key].waiting_repairs.emplace_back(sid, idx);
        }
      }
      return;
    }

    case Ctl::kStop: {
      const std::uint64_t sid = r.u64();
      if (Session* s = find_session(sid)) {
        end_session(*s);
        if (s->timer) {
          net_.cancel(*s->timer);
          s->timer.reset();
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
      return;  // live joins and client-only tags are origin business
  }
}

std::pair<int, std::vector<std::byte>> EdgeNode::handle_migrate(
    std::span<const std::byte> body) {
  std::string name;
  net::HostId client = 0;
  net::Port client_ctl_port = 0;
  net::Port client_data_port = 0;
  std::uint32_t resume_index = 0;
  net::SimDuration position{0};
  std::uint32_t epoch = 0;
  double rate = 1.0;
  bool paused = false;
  obs::TraceContext ctx;
  std::vector<std::byte> image;
  try {
    ByteReader r(body);
    if (r.u32() != streaming::proto::kMigrateMagic) return {400, {}};
    if (r.u16() != streaming::proto::kMigrateVersion) return {400, {}};
    name = r.str();
    client = static_cast<net::HostId>(r.u32());
    client_ctl_port = r.u16();
    client_data_port = r.u16();
    resume_index = r.u32();
    position = net::SimDuration{r.i64()};
    epoch = r.u32();
    rate = r.f64();
    paused = r.u8() != 0;
    ctx.trace_id = r.u64();
    ctx.parent_span_id = r.u64();
    image = r.blob();
  } catch (const std::exception&) {
    return {400, {}};
  }

  ContentMeta& meta = ensure_meta(name, ctx);
  if (!meta.ready) {
    // Adoption is synchronous — there is nowhere to park an RPC reply — so
    // a cold replica refuses, warms the meta in the background, and leaves
    // the player to its describe-path fallback (which knows how to park).
    return {503, {}};
  }

  Session s;
  s.id = next_session_++;
  s.client = client;
  s.client_ctl_port = client_ctl_port;
  s.data_port = client_data_port;
  s.content = name;
  s.ctx = ctx;
  // Resume exactly where the old replica's stream left off when the player
  // knows the index; derive it from the render position when it does not
  // (a session that never received a packet this epoch).
  s.next_packet =
      resume_index != std::numeric_limits<std::uint32_t>::max()
          ? std::min(resume_index, meta.packet_count)
          : packet_for(meta, position);
  s.epoch = epoch;  // the player keeps its epoch; stragglers still filter
  s.rate = rate > 0 ? rate : 1.0;
  s.paused = paused;
  // No QoS channel yet: the reservation is path-bound and the player can
  // only re-reserve after adoption. A later kSetRate carries the new id.
  s.pace_epoch = net_.now();
  s.pace_offset = s.next_packet < meta.packet_count
                      ? net::SimDuration{meta.send_times_us[s.next_packet]}
                      : net::SimDuration{0};
  const std::uint64_t id = s.id;
  const std::uint32_t start = s.next_packet;
  sessions_.emplace(id, std::move(s));
  if (!image.empty()) adopted_images_[id] = std::move(image);
  m_sessions_opened_.inc();
  m_active_sessions_.add(1);
  if (!m_migrations_adopted_) {
    m_migrations_adopted_ = net_.obs().metrics().counter(
        "lod.edge.migrations_adopted", {{"host", std::to_string(host_)}});
  }
  m_migrations_adopted_.inc();
  const std::uint64_t sp = trace_->begin_span(ctx, "edge.adopt", host_,
                                              static_cast<std::int64_t>(id));
  trace_->end_span(ctx, sp, "edge.adopt", host_,
                   static_cast<std::int64_t>(id), start);
  if (trace_->enabled()) {
    trace_->emit_in(ctx, obs::EventType::kSessionOpen, client,
                    static_cast<std::int64_t>(id), position.us, name);
  }
  prefetch_tick(name, start);
  if (!paused) schedule_next(sessions_.at(id));

  ByteWriter w;
  w.u64(id);
  w.u32(start);
  return {200, std::move(w).take()};
}

void EdgeNode::schedule_next(Session& s) {
  if (s.stopped || s.paused || s.waiting_on) return;
  if (s.timer) {
    net_.cancel(*s.timer);
    s.timer.reset();
  }
  const ContentMeta& meta = contents_.at(s.content);
  if (s.next_packet >= meta.packet_count) {
    if (trace_->enabled()) {
      trace_->emit(obs::EventType::kSessionEos, s.client,
                   static_cast<std::int64_t>(s.id));
    }
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Ctl::kEndOfStream));
    w.u64(s.id);
    w.u32(meta.packet_count);
    reply_to(s.client, s.client_ctl_port, std::move(w).take());
    return;
  }
  // Same pacing discipline as the origin server: send_time schedule with a
  // fast-start burst capped at a multiple of the content bit-rate (and at
  // the session's QoS reservation, if it rides one).
  const net::SimDuration send_time{meta.send_times_us[s.next_packet]};
  const net::SimDuration media_ahead =
      send_time - s.pace_offset - meta.header.props.preroll;
  net::SimTime due =
      s.pace_epoch + net::SimDuration{static_cast<std::int64_t>(
                         static_cast<double>(media_ahead.us) / s.rate)};
  const std::int64_t bps =
      std::max<std::int64_t>(meta.header.props.avg_bitrate_bps, 8'000);
  double burst_bps = config_.fast_start_multiplier * static_cast<double>(bps);
  if (s.channel != 0) {
    if (const std::int64_t rate = net_.channel_rate_bps(s.channel)) {
      burst_bps = std::min(burst_bps, static_cast<double>(rate) * 0.95);
    }
  }
  const net::SimDuration min_gap{static_cast<std::int64_t>(
      static_cast<double>(meta.header.props.packet_bytes) * 8e6 /
      std::max(burst_bps, 8'000.0))};
  if (s.last_send.us > 0 && due < s.last_send + min_gap) {
    due = s.last_send + min_gap;
  }
  const net::SimTime now = net_.now();
  if (due < now) due = now;
  const std::uint64_t sid = s.id;
  s.timer_due = due;
  s.timer = net_.schedule_at(due, [this, sid] { deliver_due(sid); });
}

void EdgeNode::deliver_due(std::uint64_t sid) {
  Session* s = find_session(sid);
  if (!s || s->stopped || s->paused || s->waiting_on) return;
  s->timer.reset();
  const std::uint32_t idx = s->next_packet;
  const std::uint32_t seg = idx / config_.packets_per_segment;
  const SegmentKey key{s->content, seg};
  if (const auto* pkts = cache_.get(key)) {
    // The scheduled send time, not now(): a late timer must not delay the
    // rest of the burst. A session resumed by a segment fill was re-armed
    // no earlier than the fill, so its limiter still counts from then.
    s->last_send = s->timer_due;
    send_packet(*s, (*pkts)[idx - seg * config_.packets_per_segment], idx);
    ++s->next_packet;
    if (s->next_packet % config_.packets_per_segment == 0) {
      // Crossed a segment boundary: advance the warm window.
      prefetch_tick(s->content, s->next_packet);
    }
    schedule_next(*s);
  } else {
    // Cold miss: park the session on the fill; it resumes (and catches up
    // under the burst cap) when the segment lands.
    s->waiting_on = key;
    start_fetch(s->content, seg, /*demand=*/true, s->ctx);
    auto& f = inflight_[key];
    f.demand = true;
    f.waiting_sessions.push_back(sid);
  }
}

void EdgeNode::send_packet(Session& s, const net::Payload& bytes,
                           std::uint32_t packet_index) {
  const ContentMeta& meta = contents_.at(s.content);
  // Per-send frame header only; the cached serialized packet rides as a
  // shared body — the edge relays media it never copied or parsed.
  ByteWriter w;
  w.u32(streaming::proto::kDataMagic);
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
  const std::uint32_t nominal = meta.header.props.packet_bytes + 20u;
  p.wire_size =
      std::max<std::uint32_t>(
          static_cast<std::uint32_t>(p.payload.size() + p.body.size()),
          nominal) +
      28;
  p.channel = s.channel;
  m_packets_sent_.inc();
  m_bytes_sent_.inc(p.wire_size);
  net_.send(std::move(p));
}

void EdgeNode::start_fetch(const std::string& content, std::uint32_t segment,
                           bool demand, const obs::TraceContext& ctx) {
  const SegmentKey key{content, segment};
  auto [it, inserted] = inflight_.try_emplace(key);
  it->second.demand |= demand;
  if (!inserted) return;  // already on the wire; callers just park on it
  fetch_started_[key] = net_.now();
  (demand ? m_demand_fetches_ : m_prefetch_fetches_).inc();
  if (demand) {
    // A demand fetch IS a cache miss on the session's critical path.
    net_.obs().flight().record(obs::FlightType::kCacheMiss,
                               static_cast<std::uint32_t>(host_), segment);
  }
  const char* span_name = demand ? "edge.miss_fill" : "edge.prefetch";
  if (ctx.valid()) {
    it->second.ctx = ctx;
    it->second.span = trace_->begin_span(ctx, span_name, host_, segment);
  } else if (trace_->enabled()) {
    // Context-free fill (prefetch, or an untraced session): keep the legacy
    // unlinked span events so the fetch still shows up in the stream.
    trace_->emit(obs::EventType::kSpanBegin, host_, segment, 0, span_name);
  }
  ByteWriter w;
  w.str(content);
  w.u32(segment);
  w.u32(config_.packets_per_segment);
  streaming::proto::write_trace_context(
      w, it->second.span ? ctx.child(it->second.span) : obs::TraceContext{});
  auto alive = alive_;
  origin_rpc_.call(config_.origin, config_.origin_gateway_port, "/edge/segment",
                   std::move(w).take(),
                   [this, alive, content, segment](net::Result<net::RpcReply> r) {
                     if (!*alive) return;
                     if (r) {
                       on_segment(content, segment, r->status, r->body);
                     } else {
                       on_segment(content, segment, 0, net::Payload{});
                     }
                   });
}

void EdgeNode::on_segment(const std::string& content, std::uint32_t segment,
                          int status, const net::Payload& body) {
  const SegmentKey key{content, segment};
  Fetch fetch;
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    fetch = std::move(it->second);
    inflight_.erase(it);
  }
  // Cache zero-copy slices of the fetch response: each cached packet is a
  // refcounted view of the one buffer the RPC already delivered. The edge
  // never parses media it only relays.
  std::vector<net::Payload> packets;
  if (status == 200) {
    try {
      ByteReader r(body);
      const std::uint32_t count = r.u32();
      packets.reserve(r.bounded_count(count, 4));
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t n = r.u32();
        packets.push_back(body.slice(r.offset(), n));
        r.raw(n);
      }
    } catch (const std::exception&) {
      status = 0;  // malformed reply: a failed fill
    }
  }
  net::SimDuration elapsed{0};
  if (auto it = fetch_started_.find(key); it != fetch_started_.end()) {
    elapsed = net_.now() - it->second;
    fetch_started_.erase(it);
  }
  if (fetch.span != 0) {
    trace_->end_span(fetch.ctx, fetch.span,
                     fetch.demand ? "edge.miss_fill" : "edge.prefetch", host_,
                     segment, status);
  } else if (trace_->enabled()) {
    trace_->emit(obs::EventType::kSpanEnd, host_, segment, status,
                 fetch.demand ? "edge.miss_fill" : "edge.prefetch");
  }
  if (status != 200) return;  // parked sessions stall; the player fails over

  m_fetch_bytes_.inc(body.size());
  if (fetch.demand) m_miss_fill_us_.observe(elapsed.us);
  cache_.put(key, std::move(packets), body.size());

  for (std::uint64_t sid : fetch.waiting_sessions) {
    Session* s = find_session(sid);
    if (!s || s->stopped || s->waiting_on != key) continue;
    s->waiting_on.reset();
    if (!s->paused) schedule_next(*s);
  }
  if (!fetch.waiting_repairs.empty()) {
    const auto* pkts = cache_.get(key);
    for (auto [sid, idx] : fetch.waiting_repairs) {
      Session* s = find_session(sid);
      if (!s || s->stopped || !pkts) continue;
      const std::uint32_t off = idx - segment * config_.packets_per_segment;
      if (off >= pkts->size()) continue;
      m_repairs_.inc();
      if (trace_->enabled()) {
        trace_->emit(obs::EventType::kRepairResend, s->client,
                     static_cast<std::int64_t>(s->id), idx);
      }
      send_packet(*s, (*pkts)[off], idx);
    }
  }
}

void EdgeNode::prefetch_tick(const std::string& content,
                             std::uint32_t playhead) {
  if (config_.prefetch_depth == 0) return;
  auto it = contents_.find(content);
  if (it == contents_.end() || !it->second.ready || !it->second.prefetch) {
    return;
  }
  PrefetchController& pc = *it->second.prefetch;
  pc.anchor_to(playhead);
  for (std::uint32_t seg : pc.warm_set(config_.prefetch_depth)) {
    const SegmentKey key{content, seg};
    if (cache_.contains(key) || inflight_.count(key) > 0) continue;
    start_fetch(content, seg, /*demand=*/false);
  }
}

}  // namespace lod::edge
