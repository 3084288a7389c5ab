#include "lod/streaming/server.hpp"

namespace lod::streaming {

using net::ByteReader;
using net::ByteWriter;
using proto::Ctl;

StreamingServer::StreamingServer(net::Transport& net, net::HostId host,
                                 ServerConfig cfg)
    : SessionEngine(net, host, cfg.validated().control_port,
                    cfg.validated().fast_start_multiplier, "server"),
      config_(cfg.validated()) {}

void StreamingServer::configure(ServerConfig cfg) {
  // Pin the port before validating: the port is fixed at construction, so a
  // caller passing a default/stale struct must not be rejected for a field
  // that is ignored anyway.
  cfg.control_port = config_.control_port;
  config_ = cfg.validated();
  set_fast_start_multiplier(config_.fast_start_multiplier);
}

void StreamingServer::publish(std::string name, media::asf::File file) {
  // Republish keeps the node (and thus every session's source) alive with
  // new content; the serialized packets of the old content must go.
  Stored& st = files_[std::move(name)];
  st.file = std::move(file);
  st.serialized.assign(st.file.packets.size(), net::Payload{});
  st.props = st.file.header.props;
  st.index = st.file.index;
  st.send_times_us.clear();
  for (const auto& p : st.file.packets) {
    st.send_times_us.push_back(p.send_time.us);
  }
}

const net::Payload* StreamingServer::Stored::packet(std::uint32_t i) {
  net::Payload& slot = serialized[i];
  if (slot.empty()) {
    slot = net::Payload{media::asf::serialize_packet(file.packets[i])};
  }
  return &slot;
}

PacketSource* StreamingServer::play_source(const std::string& name) {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
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
      if (auto* s = find(sid); s && !s->paused) {
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
    if (const auto* s = find(sid)) {
      send_eos(*s, 0);  // live streams are unrepeatable: no repairs
    }
  }
}

std::uint64_t ServerMetrics::packets_sent() const {
  return server_->counters().packets_sent.value();
}
std::uint64_t ServerMetrics::bytes_sent() const {
  return server_->counters().bytes_sent.value();
}
std::uint64_t ServerMetrics::repairs() const {
  return server_->counters().repairs.value();
}
std::uint64_t ServerMetrics::sessions_opened() const {
  return server_->counters().sessions_opened.value();
}
std::int64_t ServerMetrics::active_sessions() const {
  return server_->counters().active_sessions.value();
}
std::optional<SessionStats> ServerMetrics::session(std::uint64_t id) const {
  if (const SessionEngine::Session* s = server_->find(id)) return s->stats;
  return std::nullopt;
}
obs::Snapshot ServerMetrics::snapshot() const {
  return server_->net_.obs().snapshot();
}

void StreamingServer::handle_verb(Ctl tag, ByteReader& r, const Message& m) {
  switch (tag) {
    case Ctl::kDescribe: {
      const std::string name = r.str();
      const obs::TraceContext ctx = proto::read_trace_context(r);
      const media::asf::Header* header = nullptr;
      if (auto it = files_.find(name); it != files_.end()) {
        header = &it->second.file.header;
      } else if (auto lt = live_.find(name); lt != live_.end()) {
        header = &lt->second.header;
      }
      if (!header) {
        send_error(m.src, m.src_port, "no such content: " + name);
        return;
      }
      // Instant span: the origin's handling is synchronous, but the marker
      // pins this hop (and its actor) into the caller's span tree.
      const std::uint64_t sp =
          flight_->begin_span(ctx, "server.describe", host_);
      flight_->end_span(ctx, sp, "server.describe", host_);
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kDescribeOk));
      w.blob(media::asf::serialize_header(*header));
      reply(m.src, m.src_port, std::move(w).take());
      return;
    }

    case Ctl::kJoinLive: {
      const std::string name = r.str();
      const net::Port data_port = r.u16();
      auto it = live_.find(name);
      if (it == live_.end()) {
        send_error(m.src, m.src_port, "no such live channel: " + name);
        return;
      }
      Session& s = open(m.src, m.src_port, data_port, nullptr);
      flight_->emit(obs::FlightType::kSessionOpen, m.src,
                    static_cast<std::int64_t>(s.id), 0, name);
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kPlayOk));
      w.u64(s.id);
      reply(m.src, m.src_port, std::move(w).take());
      if (it->second.open) {
        it->second.subscribers.push_back(s.id);
      } else {
        send_eos(s, 0);  // a late join: the channel already ended
      }
      return;
    }

    case Ctl::kLeaveLive: {
      const std::uint64_t sid = r.u64();
      if (Session* s = find(sid)) end(*s);
      for (auto& [name, ch] : live_) std::erase(ch.subscribers, sid);
      return;
    }

    default:
      return;  // unknown/client-only tags ignored
  }
}

}  // namespace lod::streaming
