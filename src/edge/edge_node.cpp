#include "lod/edge/edge_node.hpp"

#include <algorithm>
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
  flight_ = &net.obs().flight();
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
        flight_->begin_span(ctx, "origin.meta", origin_.host());
    const media::asf::File* f = origin_.stored(name);
    flight_->end_span(ctx, sp, "origin.meta", origin_.host(), f ? 200 : 404);
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
        flight_->begin_span(ctx, "origin.segment", origin_.host(), seg);
    const media::asf::File* f = origin_.stored(name);
    if (!f || per == 0) {
      flight_->end_span(ctx, sp, "origin.segment", origin_.host(), seg, 404);
      return {404, {}};
    }
    const std::size_t n = f->packets.size();
    const std::size_t first = static_cast<std::size_t>(seg) * per;
    if (first >= n) {
      flight_->end_span(ctx, sp, "origin.segment", origin_.host(), seg, 404);
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
    flight_->end_span(ctx, sp, "origin.segment", origin_.host(), seg, 200);
    return {200, std::move(out)};
  });
}

// --- EdgeNode ----------------------------------------------------------------

EdgeNode::EdgeNode(net::Transport& net, net::HostId host, EdgeConfig cfg)
    : SessionEngine(net, host, cfg.validated().control_port,
                    cfg.validated().fast_start_multiplier, "edge"),
      config_(cfg.validated()),
      origin_rpc_(net, host, static_cast<net::Port>(config_.control_port + 2)),
      migrate_rpc_(net, host,
                   static_cast<net::Port>(
                       config_.control_port +
                       streaming::proto::kMigratePortOffset)),
      cache_(config_.cache_budget_bytes, &net.obs().metrics(),
             obs::Labels{{"host", std::to_string(host)}}) {
  auto& reg = net_.obs().metrics();
  const obs::Labels host_label{{"host", std::to_string(host_)}};
  m_demand_fetches_ = reg.counter("lod.edge.demand_fetches", host_label);
  m_prefetch_fetches_ = reg.counter("lod.edge.prefetch_fetches", host_label);
  m_fetch_bytes_ = reg.counter("lod.edge.fetch_bytes", host_label);
  m_miss_fill_us_ = reg.histogram("lod.edge.miss_fill_us", host_label);
  migrate_rpc_.route(
      "/edge/migrate",
      [this](std::string_view, std::span<const std::byte> body) {
        return handle_migrate(body);
      });
}

EdgeNode::~EdgeNode() {
  // RPC completions are owned by the transport and may outlive the node
  // (the failover scenario), so they check `alive_`. The engine cancels its
  // own pacing timers.
  *alive_ = false;
}

EdgeNode::ContentMeta& EdgeNode::meta_for(const std::string& content) {
  return contents_.try_emplace(content, this, content).first->second;
}

void EdgeNode::set_presentation_order(const std::string& content,
                                      std::vector<PacketRange> order) {
  ContentMeta& meta = meta_for(content);
  meta.order_override = std::move(order);
  meta.prefetch.reset();  // the next tick plans with the new order
}

EdgeNode::ContentMeta& EdgeNode::ensure_meta(const std::string& content,
                                             const obs::TraceContext& ctx) {
  ContentMeta& meta = meta_for(content);
  if (meta.ready || meta.fetching) return meta;
  meta.fetching = true;
  meta.fill_ctx = ctx;
  meta.fill_span = flight_->begin_span(ctx, "edge.meta_fill", host_);
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
                     if (status == 200) {
                       on_meta(content, r->body);
                     } else {
                       meta_done(meta_for(content), status);
                     }
                   });
  return meta;
}

void EdgeNode::meta_done(ContentMeta& meta, std::int64_t result) {
  meta.fetching = false;
  if (meta.fill_span) {
    flight_->end_span(meta.fill_ctx, meta.fill_span, "edge.meta_fill", host_,
                      result);
    meta.fill_span = 0;
  }
  for (auto [h, p] : meta.waiting_describe) describe_reply(meta, h, p);
  meta.waiting_describe.clear();
}

void EdgeNode::describe_reply(const ContentMeta& meta, net::HostId h,
                              net::Port p) {
  if (!meta.ready) {
    send_error(h, p, "no such content: " + meta.name);
    return;
  }
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Ctl::kDescribeOk));
  w.blob(meta.header_bytes);
  reply(h, p, std::move(w).take());
}

void EdgeNode::on_meta(const std::string& content,
                       std::span<const std::byte> body) {
  ContentMeta& meta = meta_for(content);
  try {
    ByteReader r(body);
    meta.header_bytes = r.blob();
    meta.props = media::asf::parse_header(meta.header_bytes).props;
    const std::uint32_t packet_count = r.u32();
    const std::uint32_t index_count = r.u32();
    meta.index.clear();
    meta.index.reserve(r.bounded_count(index_count, 8 + 4));
    for (std::uint32_t i = 0; i < index_count; ++i) {
      media::asf::IndexEntry e;
      e.time = net::SimDuration{r.i64()};
      e.packet = r.u32();
      meta.index.push_back(e);
    }
    meta.send_times_us.clear();
    meta.send_times_us.reserve(r.bounded_count(packet_count, 8));
    for (std::uint32_t i = 0; i < packet_count; ++i) {
      meta.send_times_us.push_back(r.i64());
    }
  } catch (const std::exception&) {
    meta_done(meta, 0);  // malformed reply: as if the origin refused
    return;
  }
  meta.ready = true;
  meta_done(meta, meta.packet_count());
}

streaming::PacketSource* EdgeNode::play_source(const std::string& name) {
  // Players DESCRIBE first (which pulls the meta); a PLAY without it is a
  // protocol misuse, not a transient.
  auto it = contents_.find(name);
  return it == contents_.end() || !it->second.ready ? nullptr : &it->second;
}

void EdgeNode::handle_verb(Ctl tag, ByteReader& r, const Message& m) {
  if (tag != Ctl::kDescribe) return;  // live joins are origin business
  const std::string name = r.str();
  const obs::TraceContext ctx = streaming::proto::read_trace_context(r);
  const std::uint64_t sp = flight_->begin_span(ctx, "edge.describe", host_);
  flight_->end_span(ctx, sp, "edge.describe", host_);
  ContentMeta& meta = ensure_meta(name, ctx);
  if (meta.ready) {
    describe_reply(meta, m.src, m.src_port);
  } else {
    meta.waiting_describe.emplace_back(m.src, m.src_port);
  }
}

std::pair<int, std::vector<std::byte>> EdgeNode::handle_migrate(
    std::span<const std::byte> body) {
  Start a;
  a.adopted = true;
  try {
    ByteReader r(body);
    if (r.u32() != streaming::proto::kMigrateMagic) return {400, {}};
    if (r.u16() != streaming::proto::kMigrateVersion) return {400, {}};
    a.content = r.str();
    a.client = static_cast<net::HostId>(r.u32());
    a.client_ctl_port = r.u16();
    a.client_data_port = r.u16();
    a.resume_index = r.u32();
    a.position = net::SimDuration{r.i64()};
    a.epoch = r.u32();
    a.rate = r.f64();
    a.paused = r.u8() != 0;
    a.ctx.trace_id = r.u64();
    a.ctx.parent_span_id = r.u64();
    // The state image is the client's business (the sync layer); the edge
    // only checks that it is there.
    r.blob();
  } catch (const std::exception&) {
    return {400, {}};
  }

  ContentMeta& meta = ensure_meta(a.content, a.ctx);
  if (!meta.ready) {
    // Adoption is synchronous — there is nowhere to park an RPC reply — so
    // a cold replica refuses, warms the meta in the background, and leaves
    // the player to its describe-path fallback (which knows how to park).
    return {503, {}};
  }
  const Session& s = start(meta, a);
  if (!m_migrations_adopted_) {
    m_migrations_adopted_ = net_.obs().metrics().counter(
        "lod.edge.migrations_adopted", {{"host", std::to_string(host_)}});
  }
  m_migrations_adopted_.inc();
  ByteWriter w;
  w.u64(s.id);
  w.u32(s.next_packet);
  return {200, std::move(w).take()};
}

const net::Payload* EdgeNode::ContentMeta::packet(std::uint32_t i) {
  const std::uint32_t per = node->config_.packets_per_segment;
  const auto* pkts = node->cache_.get(SegmentKey{name, i / per});
  return pkts && i % per < pkts->size() ? &(*pkts)[i % per] : nullptr;
}

std::uint32_t EdgeNode::ContentMeta::park(std::uint64_t session,
                                          std::uint32_t i,
                                          const obs::TraceContext& ctx) {
  const std::uint32_t seg = i / node->config_.packets_per_segment;
  node->start_fetch(name, seg, /*demand=*/true, ctx)
      .waiting_sessions.push_back(session);
  return seg;
}

void EdgeNode::ContentMeta::park_repair(std::uint64_t session,
                                        std::uint32_t i) {
  node->start_fetch(name, i / node->config_.packets_per_segment,
                    /*demand=*/true)
      .waiting_repairs.emplace_back(session, i);
}

void EdgeNode::ContentMeta::playhead_moved(std::uint32_t i, bool jump) {
  // Follow every jump; otherwise advance the warm window at each segment
  // boundary.
  if (jump || i % node->config_.packets_per_segment == 0) {
    node->prefetch_tick(*this, i);
  }
}

EdgeNode::Fetch& EdgeNode::start_fetch(const std::string& content,
                                       std::uint32_t segment, bool demand,
                                       const obs::TraceContext& ctx) {
  auto [it, inserted] = inflight_.try_emplace(SegmentKey{content, segment});
  Fetch& f = it->second;
  f.demand |= demand;
  if (!inserted) return f;  // already on the wire; callers just park on it
  f.started = net_.now();
  (demand ? m_demand_fetches_ : m_prefetch_fetches_).inc();
  if (demand) {
    // A demand fetch IS a cache miss on the session's critical path.
    flight_->record(obs::FlightType::kCacheMiss,
                    static_cast<std::uint32_t>(host_), segment);
  }
  const char* span_name = demand ? "edge.miss_fill" : "edge.prefetch";
  if (ctx.valid()) {
    f.ctx = ctx;
    f.span = flight_->begin_span(ctx, span_name, host_, segment);
  } else {
    // Context-free fill (prefetch, or an untraced session): keep the legacy
    // unlinked span events so the fetch still shows up in the stream.
    flight_->emit(obs::FlightType::kSpanBegin, host_, segment, 0, span_name);
  }
  ByteWriter w;
  w.str(content);
  w.u32(segment);
  w.u32(config_.packets_per_segment);
  streaming::proto::write_trace_context(
      w, f.span ? ctx.child(f.span) : obs::TraceContext{});
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
  return f;
}

void EdgeNode::on_segment(const std::string& content, std::uint32_t segment,
                          int status, const net::Payload& body) {
  const SegmentKey key{content, segment};
  auto done = inflight_.extract(key);
  Fetch fetch = done ? std::move(done.mapped()) : Fetch{};
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
  if (fetch.span != 0) {
    flight_->end_span(fetch.ctx, fetch.span,
                      fetch.demand ? "edge.miss_fill" : "edge.prefetch", host_,
                      segment, status);
  } else {
    flight_->emit(obs::FlightType::kSpanEnd, host_, segment, status,
                  fetch.demand ? "edge.miss_fill" : "edge.prefetch");
  }
  if (status != 200) return;  // parked sessions stall; the player fails over

  m_fetch_bytes_.inc(body.size());
  if (fetch.demand) m_miss_fill_us_.observe((net_.now() - fetch.started).us);
  cache_.put(key, std::move(packets), body.size());

  for (std::uint64_t sid : fetch.waiting_sessions) unpark(sid, segment);
  if (!fetch.waiting_repairs.empty()) {
    if (const auto* pkts = cache_.get(key)) {
      for (auto [sid, idx] : fetch.waiting_repairs) {
        const std::uint32_t off = idx - segment * config_.packets_per_segment;
        if (off < pkts->size()) resend(sid, idx, (*pkts)[off]);
      }
    }
  }
}

void EdgeNode::prefetch_tick(ContentMeta& meta, std::uint32_t playhead) {
  if (config_.prefetch_depth == 0) return;
  if (!meta.prefetch) {
    const std::uint32_t n = meta.packet_count();
    meta.prefetch.emplace(
        n, config_.packets_per_segment,
        meta.order_override.value_or(std::vector<PacketRange>{{0, n}}));
  }
  PrefetchController& pc = *meta.prefetch;
  pc.anchor_to(playhead);
  for (std::uint32_t seg : pc.warm_set(config_.prefetch_depth)) {
    const SegmentKey key{meta.name, seg};
    if (cache_.contains(key) || inflight_.count(key) > 0) continue;
    start_fetch(meta.name, seg, /*demand=*/false);
  }
}

}  // namespace lod::edge
