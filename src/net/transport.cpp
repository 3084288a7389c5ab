#include "lod/net/transport.hpp"

#include <algorithm>

namespace lod::net {

namespace {
// Wire tags for ReliableEndpoint frames.
constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kAck = 2;
// Both frames are tag + incarnation + seq (or cumulative ACK).
constexpr std::size_t kDataHeaderBytes = 1 + 8 + 8;
constexpr std::size_t kAckHeaderBytes = 1 + 8 + 8;

/// Incarnation source. thread_local, not global: each simulation shard runs
/// on its own thread (see net::ShardedRunner), and a process-wide counter
/// would both race under TSan and make a shard's incarnation numbers depend
/// on cross-thread interleaving, breaking per-shard determinism. Within one
/// thread the single-threaded simulator keeps a plain counter deterministic.
std::uint64_t next_incarnation() {
  thread_local std::uint64_t counter = 0x1c4b;
  return ++counter;
}
// Rough per-segment framing overhead charged on the wire (TCP/IP-ish).
constexpr std::uint32_t kSegmentOverhead = 40;
}  // namespace

// --- DatagramSocket ---------------------------------------------------------

DatagramSocket::DatagramSocket(Transport& net, HostId host, Port port)
    : net_(net), host_(host), port_(port) {
  net_.bind(host_, port_, [this](const Datagram& p) {
    if (handler_) handler_(p);
  });
}

DatagramSocket::~DatagramSocket() { net_.unbind(host_, port_); }

bool DatagramSocket::send_to(HostId dst, Port dst_port, Payload payload,
                             std::uint32_t header_overhead, ChannelId channel) {
  Datagram p;
  p.src = host_;
  p.dst = dst;
  p.src_port = port_;
  p.dst_port = dst_port;
  p.wire_size = static_cast<std::uint32_t>(payload.size()) + header_overhead;
  p.payload = std::move(payload);
  p.channel = channel;
  return net_.send(std::move(p));
}

bool DatagramSocket::send_to(HostId dst, Port dst_port, Payload header,
                             Payload body, std::uint32_t header_overhead,
                             ChannelId channel) {
  Datagram p;
  p.src = host_;
  p.dst = dst;
  p.src_port = port_;
  p.dst_port = dst_port;
  p.wire_size = static_cast<std::uint32_t>(header.size() + body.size()) +
                header_overhead;
  p.payload = std::move(header);
  p.body = std::move(body);
  p.channel = channel;
  return net_.send(std::move(p));
}

// --- ReliableEndpoint -------------------------------------------------------

ReliableEndpoint::ReliableEndpoint(Transport& net, HostId host, Port port,
                                   SimDuration rto, int max_retries)
    : incarnation_(next_incarnation()),
      net_(net),
      host_(host),
      port_(port),
      rto_(rto),
      max_retries_(max_retries) {
  auto& reg = net_.obs().metrics();
  messages_sent_ = reg.counter("lod.transport.messages_sent");
  messages_delivered_ = reg.counter("lod.transport.messages_delivered");
  retransmissions_metric_ = reg.counter("lod.transport.retransmissions");
  net_.bind(host_, port_, [this](const Datagram& p) { handle_packet(p); });
}

ReliableEndpoint::~ReliableEndpoint() {
  *alive_ = false;
  net_.unbind(host_, port_);
}

const Payload* ReliableEndpoint::TxState::inflight(std::uint64_t seq) const {
  if (seq < base || seq >= next_seq) return nullptr;
  const Slot& s = ring[index(seq)];
  return s.live ? &s.msg : nullptr;
}

void ReliableEndpoint::TxState::push(Payload msg) {
  const std::size_t count = next_seq - base;
  if (count == ring.size()) {
    std::vector<Slot> grown(std::max<std::size_t>(1, 2 * ring.size()));
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = std::move(ring[index(base + i)]);
    }
    ring = std::move(grown);
    head = 0;
  }
  ring[index(next_seq++)] = Slot{std::move(msg), true};
}

void ReliableEndpoint::TxState::ack(std::uint64_t upto) {
  if (upto <= acked_upto) return;
  for (std::uint64_t s = std::max(acked_upto, base);
       s < std::min(upto, next_seq); ++s) {
    ring[index(s)] = Slot{};
  }
  acked_upto = upto;
  // Seqs sent after an ACK already covered them stay live: only a done
  // prefix leaves the ring.
  while (base < next_seq && !ring[head].live) {
    head = (head + 1) & (ring.size() - 1);
    ++base;
  }
}

void ReliableEndpoint::send_to(HostId dst, Port dst_port, Payload payload) {
  const PeerKey peer{dst, dst_port};
  TxState& tx = tx_[peer];
  const std::uint64_t seq = tx.next_seq;
  tx.push(std::move(payload));
  messages_sent_.inc();
  transmit(peer, seq, *tx.inflight(seq));
  arm_retransmit(peer, seq, max_retries_);
}

void ReliableEndpoint::transmit(const PeerKey& peer, std::uint64_t seq,
                                const Payload& msg) {
  // Per-transmit frame header only; the message bytes ride as a shared body
  // attachment, so retransmissions re-send the same buffer copy-free.
  ByteWriter w;
  w.reserve(kDataHeaderBytes);
  w.u8(kData);
  w.u64(incarnation_);
  w.u64(seq);

  Datagram p;
  p.src = host_;
  p.dst = peer.host;
  p.src_port = port_;
  p.dst_port = peer.port;
  p.payload = std::move(w).take();
  p.body = msg;
  p.wire_size = static_cast<std::uint32_t>(p.payload.size() + p.body.size()) +
                kSegmentOverhead;
  net_.send(std::move(p));
}

void ReliableEndpoint::arm_retransmit(const PeerKey& peer, std::uint64_t seq,
                                      int tries_left) {
  if (tries_left <= 0) return;  // give up; peer is unreachable
  net_.schedule_after(
      rto_, [this, alive = alive_, peer, seq, tries_left] {
        if (!*alive) return;
        auto it = tx_.find(peer);
        if (it == tx_.end()) return;
        const Payload* msg = it->second.inflight(seq);
        if (!msg) return;
        ++retransmissions_;
        retransmissions_metric_.inc();
        net_.obs().flight().emit(obs::FlightType::kMsgRetransmit, host_,
                                 static_cast<std::int64_t>(seq), peer.host);
        transmit(peer, seq, *msg);
        arm_retransmit(peer, seq, tries_left - 1);
      });
}

void ReliableEndpoint::send_ack(const PeerKey& peer,
                                std::uint64_t peer_incarnation,
                                std::uint64_t ack_upto) {
  ByteWriter w;
  w.reserve(kAckHeaderBytes);
  w.u8(kAck);
  w.u64(peer_incarnation);  // which incarnation this ACK answers
  w.u64(ack_upto);
  Datagram p;
  p.src = host_;
  p.dst = peer.host;
  p.src_port = port_;
  p.dst_port = peer.port;
  p.payload = std::move(w).take();
  p.wire_size = static_cast<std::uint32_t>(p.payload.size()) + kSegmentOverhead;
  net_.send(std::move(p));
}

void ReliableEndpoint::handle_packet(const Datagram& p) {
  ByteReader r(p.payload);
  const std::uint8_t tag = r.u8();
  const PeerKey peer{p.src, p.src_port};

  if (tag == kAck) {
    const std::uint64_t for_incarnation = r.u64();
    if (for_incarnation != incarnation_) return;  // stale ACK for a past self
    tx_[peer].ack(r.u64());
    return;
  }

  if (tag != kData) return;  // unknown frame; drop
  const std::uint64_t incarnation = r.u64();
  const std::uint64_t seq = r.u64();
  // The message is the body attachment, a zero-copy view. Bytes after the
  // header belong to no framing this endpoint speaks: drop the frame.
  if (!r.done()) return;
  Payload msg = p.body;

  RxState& rx = rx_[peer];
  if (rx.peer_incarnation != incarnation) {
    // Incarnation 0 means "never heard from this peer" — just learn it.
    // A CHANGED incarnation means a new endpoint took over the peer's
    // (host, port): restart the conversation in BOTH directions — fresh
    // receive state instead of treating the new sequence space as
    // duplicates, and a fresh send sequence (in-flight messages were
    // addressed to the old peer, which no longer exists to ack them).
    const bool reincarnated = rx.peer_incarnation != 0;
    rx = RxState{};
    rx.peer_incarnation = incarnation;
    if (reincarnated) tx_.erase(peer);
  }
  if (seq == rx.next_expected) {
    // Fast path: the common in-order case delivers without touching the
    // out-of-order buffer at all.
    ++rx.next_expected;
    messages_delivered_.inc();
    if (handler_) handler_(Message{peer.host, peer.port, std::move(msg)});
    // Drain any now-contiguous stash (gap fill), still in seq order.
    for (auto hole = rx.out_of_order.find(rx.next_expected);
         hole != rx.out_of_order.end();
         hole = rx.out_of_order.find(rx.next_expected)) {
      Payload next = std::move(hole->second);
      rx.out_of_order.erase(hole);
      ++rx.next_expected;
      messages_delivered_.inc();
      if (handler_) handler_(Message{peer.host, peer.port, std::move(next)});
    }
  } else if (seq > rx.next_expected) {
    rx.out_of_order.emplace(seq, std::move(msg));  // no-op on duplicates
  }
  // Cumulative ACK (also re-ACKs duplicates so the sender can stop retrying).
  send_ack(peer, rx.peer_incarnation, rx.next_expected);
}

bool ReliableEndpoint::all_acked() const {
  for (const auto& [peer, tx] : tx_) {
    if (!tx.empty()) return false;
  }
  return true;
}

// --- RpcServer / RpcClient --------------------------------------------------

namespace {
constexpr std::uint8_t kRpcRequest = 1;
constexpr std::uint8_t kRpcResponse = 2;
}  // namespace

RpcServer::RpcServer(Transport& net, HostId host, Port port)
    : ep_(net, host, port) {
  ep_.on_receive([this](const ReliableEndpoint::Message& m) { dispatch(m); });
}

void RpcServer::route(std::string path, Handler h) {
  routes_[std::move(path)] = std::move(h);
}

std::pair<int, std::vector<std::byte>> RpcServer::handle(
    std::string_view path, std::span<const std::byte> body) const {
  auto it = routes_.find(std::string(path));
  if (it == routes_.end()) return {404, {}};
  return it->second(path, body);
}

void RpcServer::dispatch(const ReliableEndpoint::Message& m) {
  ByteReader r(m.payload);
  if (r.u8() != kRpcRequest) return;
  const std::uint64_t req_id = r.u64();
  const std::string path = r.str();
  const std::uint32_t body_len = r.u32();
  const auto body = r.raw(body_len);

  auto [status, resp_body] = handle(path, body);

  ByteWriter w;
  w.reserve(1 + 8 + 4 + 4 + resp_body.size());
  w.u8(kRpcResponse);
  w.u64(req_id);
  w.u32(static_cast<std::uint32_t>(status));
  w.blob(resp_body);
  ep_.send_to(m.src, m.src_port, std::move(w).take());
}

RpcClient::RpcClient(Transport& net, HostId host, Port port)
    : net_(net), ep_(net, host, port) {
  ep_.on_receive([this](const ReliableEndpoint::Message& m) {
    ByteReader r(m.payload);
    if (r.u8() != kRpcResponse) return;
    const std::uint64_t req_id = r.u64();
    const int status = static_cast<int>(r.u32());
    const std::uint32_t body_len = r.u32();
    // Zero-copy: the callback's body is a slice of the response message.
    const Payload body = m.payload.slice(r.offset(), body_len);
    auto it = pending_.find(req_id);
    if (it == pending_.end()) return;  // late reply after a timeout fired
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.deadline != 0) net_.cancel(p.deadline);
    p.cb(RpcReply{status, body});
  });
}

RpcClient::~RpcClient() {
  // Disarm outstanding deadlines; their closures reference this object.
  for (auto& [id, p] : pending_) {
    if (p.deadline != 0) net_.cancel(p.deadline);
  }
}

void RpcClient::call(HostId server, Port server_port, std::string_view path,
                     std::vector<std::byte> body, Callback cb,
                     CallOptions opts) {
  const std::uint64_t id = next_req_++;
  Pending p;
  p.cb = std::move(cb);
  if (opts.timeout.us >= 0) {
    p.deadline = net_.schedule_after(opts.timeout, [this, id] {
      auto it = pending_.find(id);
      if (it == pending_.end()) return;
      Callback cb = std::move(it->second.cb);
      pending_.erase(it);
      cb(Error::kTimeout);
    });
  }
  pending_.emplace(id, std::move(p));
  ByteWriter w;
  w.reserve(1 + 8 + 4 + path.size() + 4 + body.size());
  w.u8(kRpcRequest);
  w.u64(id);
  w.str(path);
  w.blob(body);
  ep_.send_to(server, server_port, std::move(w).take());
}

}  // namespace lod::net
