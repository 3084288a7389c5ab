#include "lod/net/real_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "lod/net/frame.hpp"
#include "lod/net/transport.hpp"
#include "lod/obs/debug.hpp"
#include "lod/obs/export.hpp"

namespace lod::net {

namespace {

/// Frame codecs live in frame.hpp (socket-free, property-tested); the
/// listener also sniffs `frame::kRpcMagic` to tell RPC connections from
/// HTTP ones (no HTTP method starts with "LODR").
constexpr std::size_t kUdpHeader = frame::kUdpHeaderSize;

void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, 4); }

/// One monotonic microsecond timeline per process: every RealTransport
/// instance (one per modeled machine) reads the same clock, so cross-node
/// timestamps compare meaningfully — like NTP-disciplined LAN hosts.
std::chrono::steady_clock::time_point process_epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

std::string ip_to_string(std::uint32_t host_order) {
  in_addr a{};
  a.s_addr = htonl(host_order);
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &a, buf, sizeof buf);
  return buf;
}

/// Assemble one complete HTTP/1.1 response (always Connection: close).
std::string http_response_string(int status, std::string_view reason,
                                 std::string_view body,
                                 std::string_view content_type) {
  std::string resp = "HTTP/1.1 " + std::to_string(status) + " ";
  resp += reason;
  resp += "\r\nContent-Type: ";
  resp += content_type;
  resp += "\r\nContent-Length: " + std::to_string(body.size());
  resp += "\r\nConnection: close\r\n\r\n";
  resp += body;
  return resp;
}

/// Write all of \p n bytes, polling briefly on a full socket buffer.
bool write_fully(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w > 0) {
      p += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pf{fd, POLLOUT, 0};
      if (::poll(&pf, 1, 5000) <= 0) return false;
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

Error errno_to_error(int err) {
  switch (err) {
    case ECONNREFUSED: return Error::kRefused;
    case ETIMEDOUT: return Error::kTimeout;
    case ECONNRESET: case EPIPE: return Error::kClosed;
    case EMSGSIZE: return Error::kTooLarge;
    case ENETUNREACH: case EHOSTUNREACH: return Error::kUnroutable;
    default: return Error::kIo;
  }
}

/// Non-blocking connect with a poll deadline; returns the connected fd.
Result<int> connect_with_timeout(const std::string& ip, Port port,
                                 int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_aton(ip.c_str(), &addr.sin_addr) == 0) return Error::kUnroutable;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error::kIo;
  const int flags = ::fcntl(fd, F_GETFL);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      const Error e = errno_to_error(errno);
      ::close(fd);
      return e;
    }
    pollfd pf{fd, POLLOUT, 0};
    const int r = ::poll(&pf, 1, timeout_ms);
    if (r <= 0) {
      ::close(fd);
      return r == 0 ? Error::kTimeout : Error::kIo;
    }
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      const Error e = errno_to_error(err);
      ::close(fd);
      return e;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking; reads use poll deadlines
  return fd;
}

/// Read exactly \p n bytes with a per-call poll deadline.
Result<void> read_exact(int fd, std::byte* out, std::size_t n, int timeout_ms) {
  while (n > 0) {
    pollfd pf{fd, POLLIN, 0};
    const int r = ::poll(&pf, 1, timeout_ms);
    if (r == 0) return Error::kTimeout;
    if (r < 0) return Error::kIo;
    const ssize_t got = ::recv(fd, out, n, 0);
    if (got == 0) return Error::kClosed;
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return errno_to_error(errno);
    }
    out += got;
    n -= static_cast<std::size_t>(got);
  }
  return {};
}

}  // namespace

// --- RealTransport -----------------------------------------------------------

RealTransport::RealTransport(Config cfg) {
  (void)process_epoch();  // pin the shared timeline at first construction
  if (cfg.base_ip != 0) {
    base_ip_ = cfg.base_ip;
  } else {
    // A per-process /20 inside 127.0.0.0/8: parallel test processes get
    // disjoint address blocks, instances within one process agree on the
    // same block (and therefore the same HostId -> address mapping).
    const auto pid = static_cast<std::uint32_t>(::getpid());
    base_ip_ = 0x7F000000u + ((pid % 4094u + 1u) << 12);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  tx_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  rx_buf_.resize(1 << 16);
  timers_.fast_forward(now().us);
  hub_.set_clock([this] { return now().us; });
  obs::RollupStore::Config rcfg;
  rcfg.window_us = cfg.rollup_window_us;
  rcfg.windows = cfg.rollup_windows;
  rollup_ = obs::RollupStore(rcfg);
  rollup_window_us_ = cfg.rollup_window_us;
  auto& reg = hub_.metrics();
  m_dg_sent_ = reg.counter("lod.realnet.datagrams_sent");
  m_dg_recv_ = reg.counter("lod.realnet.datagrams_received");
  m_dg_dropped_ = reg.counter("lod.realnet.datagrams_dropped");
  m_bind_fail_ = reg.counter("lod.realnet.bind_failures");
  m_frames_dropped_ = reg.counter("lod.net.frames_dropped");
}

RealTransport::~RealTransport() {
  for (auto& [fd, c] : conns_) ::close(fd);
  for (auto& [fd, l] : listeners_) ::close(fd);
  for (auto& [fd, s] : udp_) ::close(fd);
  if (tx_fd_ >= 0) ::close(tx_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

SimTime RealTransport::now() const {
  const auto d = std::chrono::steady_clock::now() - process_epoch();
  return SimTime{
      std::chrono::duration_cast<std::chrono::microseconds>(d).count()};
}

EventId RealTransport::schedule_at(SimTime t, TimerFn fn) {
  std::lock_guard lk(timer_mu_);
  const EventId id = timers_.schedule(t.us, std::move(fn));
  // A loop blocked in epoll_wait with a longer (or no) deadline must re-read
  // the wheel; scheduling from the loop thread itself needs no kick.
  if (running_.load() && std::this_thread::get_id() != loop_thread_) wakeup();
  return id;
}

bool RealTransport::cancel(EventId id) {
  std::lock_guard lk(timer_mu_);
  return timers_.cancel(id);
}

HostClock& RealTransport::clock(HostId h) {
  register_host(h);
  return hosts_[h].clock;
}

SimTime RealTransport::local_now(HostId h) const {
  const auto it = hosts_.find(h);
  // Real hosts' clocks start true; an unregistered host reads true time.
  return it == hosts_.end() ? now() : it->second.clock.local_time(now());
}

std::string RealTransport::endpoint_name(HostId h) const {
  const auto it = hosts_.find(h);
  if (it != hosts_.end() && !it->second.name.empty()) return it->second.name;
  return host_address(h);
}

std::optional<HostId> RealTransport::find_endpoint(std::string_view name) const {
  for (const auto& [h, st] : hosts_) {
    if (!st.name.empty() && st.name == name) return h;
  }
  for (const auto& [h, st] : hosts_) {
    if (host_address(h) == name) return h;
  }
  return std::nullopt;
}

HostId RealTransport::add_host(std::string name) {
  const HostId h = next_host_;
  register_host(h, std::move(name));
  return h;
}

void RealTransport::register_host(HostId h, std::string name) {
  auto [it, inserted] = hosts_.try_emplace(h);
  if (!name.empty() && it->second.name.empty()) it->second.name = std::move(name);
  next_host_ = std::max(next_host_, h + 1);
}

std::string RealTransport::host_address(HostId h) const {
  return ip_to_string(ip_of(h));
}

std::size_t RealTransport::pending_timers() const {
  std::lock_guard lk(timer_mu_);
  return timers_.pending();
}

void RealTransport::bind(HostId h, Port port, Receiver r) {
  register_host(h);
  const std::uint64_t key = port_key(h, port);
  if (const auto it = udp_by_port_.find(key); it != udp_by_port_.end()) {
    udp_[it->second].receiver = std::move(r);  // rebind replaces the receiver
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    m_bind_fail_.inc();
    return;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  int rcvbuf = 1 << 21;  // media bursts arrive faster than the loop drains
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip_of(h));
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    m_bind_fail_.inc();
    ::close(fd);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  udp_by_port_[key] = fd;
  udp_.emplace(fd, UdpSocket{fd, h, port, std::move(r)});
}

void RealTransport::unbind(HostId h, Port port) {
  const auto it = udp_by_port_.find(port_key(h, port));
  if (it == udp_by_port_.end()) return;
  const int fd = it->second;
  udp_by_port_.erase(it);
  udp_.erase(fd);
  ::close(fd);  // closing removes it from the epoll set
}

bool RealTransport::send(Datagram d) {
  const std::size_t total = kUdpHeader + d.payload.size() + d.body.size();
  if (total > kMaxDatagram || tx_fd_ < 0) {
    m_dg_dropped_.inc();
    hub_.flight().record(
        obs::FlightType::kFrameDrop, static_cast<std::uint32_t>(d.dst), total,
        static_cast<std::uint64_t>(obs::DropCause::kUndeliverable));
    return false;
  }
  std::byte hdr[kUdpHeader];
  frame::encode_udp_header(
      hdr, {d.src, d.src_port, d.channel,
            static_cast<std::uint32_t>(d.payload.size())});

  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(ip_of(d.dst));
  dst.sin_port = htons(d.dst_port);

  // Scatter-gather straight from the shared Payload bodies: the frame
  // header is the only bytes assembled per send.
  iovec iov[3];
  int iov_n = 0;
  iov[iov_n++] = {hdr, kUdpHeader};
  if (!d.payload.empty()) {
    iov[iov_n++] = {const_cast<std::byte*>(d.payload.data()), d.payload.size()};
  }
  if (!d.body.empty()) {
    iov[iov_n++] = {const_cast<std::byte*>(d.body.data()), d.body.size()};
  }
  msghdr msg{};
  msg.msg_name = &dst;
  msg.msg_namelen = sizeof dst;
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(iov_n);
  if (::sendmsg(tx_fd_, &msg, 0) < 0) {
    m_dg_dropped_.inc();
    hub_.flight().record(
        obs::FlightType::kFrameDrop, static_cast<std::uint32_t>(d.dst), total,
        static_cast<std::uint64_t>(obs::DropCause::kUndeliverable));
    return false;
  }
  m_dg_sent_.inc();
  return true;
}

Result<void> RealTransport::listen_tcp(HostId h, Port port, RpcServer& rpc,
                                       const std::string& bind_address,
                                       int backlog) {
  register_host(h);
  std::uint32_t ip = ip_of(h);
  if (!bind_address.empty()) {
    in_addr a{};
    if (inet_aton(bind_address.c_str(), &a) == 0) return Error::kMalformed;
    ip = ntohl(a.s_addr);
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Error::kIo;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0) {
    const Error e = errno == EACCES || errno == EADDRINUSE ? Error::kRefused
                                                           : errno_to_error(errno);
    ::close(fd);
    return e;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  tcp_by_port_[port_key(h, port)] = fd;
  listeners_.emplace(fd, TcpListener{fd, h, port, &rpc});
  return {};
}

void RealTransport::close_tcp(HostId h, Port port) {
  const auto it = tcp_by_port_.find(port_key(h, port));
  if (it == tcp_by_port_.end()) return;
  const int fd = it->second;
  tcp_by_port_.erase(it);
  listeners_.erase(fd);
  ::close(fd);
}

void RealTransport::wakeup() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t w = ::write(wake_fd_, &one, sizeof one);
}

int RealTransport::next_timeout_ms() {
  std::lock_guard lk(timer_mu_);
  const std::int64_t t = now().us;
  // A lower bound on the next deadline only wakes the loop early.
  const std::int64_t due = timers_.next_due(t);
  if (due < 0) return -1;
  const std::int64_t delta_us = due - t;
  if (delta_us <= 0) return 0;
  return static_cast<int>(std::min<std::int64_t>((delta_us + 999) / 1000, 60'000));
}

void RealTransport::fire_due_timers() {
  while (!stop_.load()) {
    TimingWheel::Due due;
    {
      std::lock_guard lk(timer_mu_);
      if (!timers_.pop_due(now().us, due)) return;
    }
    due.task();  // outside the lock: timers schedule timers
  }
}

void RealTransport::rollup_tick() {
  rollup_.roll(hub_.snapshot(), now().us);
  schedule_at(SimTime{now().us + rollup_window_us_}, [this] { rollup_tick(); });
}

void RealTransport::run() {
  loop_thread_ = std::this_thread::get_id();
  stop_.store(false);
  running_.store(true);
  if (rollup_window_us_ > 0 && !rollup_armed_) {
    // Prime the rollup baseline now; every subsequent tick appends one
    // window of Snapshot deltas for /debug/vars rates. The timer chain
    // stops firing with the loop and re-arms on a later run().
    rollup_armed_ = true;
    rollup_tick();
  }
  std::array<epoll_event, 64> events;
  while (!stop_.load()) {
    fire_due_timers();
    if (stop_.load()) break;
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), events.size(), next_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n && !stop_.load(); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t v;
        while (::read(wake_fd_, &v, sizeof v) > 0) {
        }
        continue;
      }
      if (const auto it = udp_.find(fd); it != udp_.end()) {
        on_udp_readable(it->second);
        continue;
      }
      if (const auto it = listeners_.find(fd); it != listeners_.end()) {
        on_tcp_accept(it->second);
        continue;
      }
      if (conns_.count(fd)) on_tcp_readable(fd);
    }
  }
  running_.store(false);
}

void RealTransport::stop() {
  stop_.store(true);
  wakeup();
}

void RealTransport::on_udp_readable(UdpSocket& s) {
  const int fd = s.fd;
  while (true) {
    const ssize_t n = ::recv(fd, rx_buf_.data(), rx_buf_.size(), 0);
    if (n < 0) return;  // EAGAIN (drained) or a transient error
    const auto it = udp_.find(fd);
    if (it == udp_.end()) return;  // a callback unbound this socket
    const auto hdr = frame::decode_udp_header(
        {rx_buf_.data(), static_cast<std::size_t>(n)});
    if (!hdr) {
      // Stray loopback traffic, truncation, or corruption: count and drop.
      m_frames_dropped_.inc();
      hub_.flight().record(
          obs::FlightType::kFrameDrop, static_cast<std::uint32_t>(it->second.host),
          static_cast<std::uint64_t>(n),
          static_cast<std::uint64_t>(obs::DropCause::kBadFrame));
      continue;
    }
    Datagram d;
    d.src = hdr->src;
    d.src_port = hdr->src_port;
    d.channel = hdr->channel;
    const std::uint32_t payload_len = hdr->payload_len;
    const std::size_t data_len = static_cast<std::size_t>(n) - kUdpHeader;
    d.dst = it->second.host;
    d.dst_port = it->second.port;
    d.wire_size = static_cast<std::uint32_t>(n) + 28;  // UDP/IP framing
    d.id = next_datagram_++;
    // One copy at the kernel boundary, then refcounted views: payload and
    // body are slices of the same adopted buffer, recreating exactly the
    // split the sender chose.
    Payload whole(std::vector<std::byte>(rx_buf_.begin() + kUdpHeader,
                                         rx_buf_.begin() + n));
    d.payload = whole.slice(0, payload_len);
    d.body = whole.slice(payload_len, data_len - payload_len);
    m_dg_recv_.inc();
    hub_.flight().record(obs::FlightType::kNetEvent,
                         static_cast<std::uint32_t>(d.dst), d.id,
                         static_cast<std::uint64_t>(n),
                         obs::FlightRecorder::kLaneDispatch);
    const Receiver recv = it->second.receiver;  // callback may rebind
    if (recv) recv(d);
    if (!udp_.count(fd)) return;
  }
}

void RealTransport::on_tcp_accept(TcpListener& l) {
  while (true) {
    const int cfd = ::accept4(l.fd, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) return;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = cfd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev);
    conns_.emplace(cfd, TcpConn{cfd, l.rpc, &hub_, {}, TcpConn::Mode::kSniff});
  }
}

void RealTransport::on_tcp_readable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  TcpConn& c = it->second;
  bool peer_closed = false;
  while (true) {
    std::byte tmp[4096];
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n > 0) {
      c.buf.insert(c.buf.end(), tmp, tmp + n);
      continue;
    }
    if (n == 0) peer_closed = true;
    break;  // EAGAIN, error, or EOF
  }
  if (!drain_tcp_conn(c) || peer_closed) close_conn(fd);
}

bool RealTransport::drain_tcp_conn(TcpConn& c) {
  if (c.mode == TcpConn::Mode::kSniff) {
    if (c.buf.size() < 4) return true;
    c.mode = std::memcmp(c.buf.data(), frame::kRpcMagic, 4) == 0
                 ? TcpConn::Mode::kRpc
                 : TcpConn::Mode::kHttp;
  }

  if (c.mode == TcpConn::Mode::kRpc) {
    // [LODR][u32 path_len][path][u32 body_len][body], repeated per request;
    // each answered with [u32 status][u32 body_len][body]. The codec is
    // frame::parse_rpc_frame; a malformed frame is counted and the
    // connection closed (mid-stream garbage means framing is lost for good).
    while (true) {
      frame::RpcFrame f;
      switch (frame::parse_rpc_frame(c.buf, f)) {
        case frame::RpcParse::kNeedMore:
          return true;
        case frame::RpcParse::kMalformed:
          m_frames_dropped_.inc();
          hub_.flight().record(
              obs::FlightType::kFrameDrop, 0, c.buf.size(),
              static_cast<std::uint64_t>(obs::DropCause::kBadFrame));
          return false;
        case frame::RpcParse::kFrame:
          break;
      }
      const std::string_view path(
          reinterpret_cast<const char*>(c.buf.data() + f.path_offset),
          f.path_len);
      const std::span<const std::byte> body(c.buf.data() + f.body_offset,
                                            f.body_len);
      auto [status, resp] = c.rpc->handle(path, body);
      std::vector<std::byte> out(8 + resp.size());
      put_u32(out.data(), static_cast<std::uint32_t>(status));
      put_u32(out.data() + 4, static_cast<std::uint32_t>(resp.size()));
      std::copy(resp.begin(), resp.end(), out.begin() + 8);
      if (!write_fully(c.fd, out.data(), out.size())) return false;
      c.buf.erase(c.buf.begin(), c.buf.begin() + f.frame_size);
    }
  }

  // HTTP: one request, answered and closed (Connection: close keeps the
  // state machine trivial; Prometheus scrapers are fine with it). The
  // parser survives arbitrarily split reads — it only acts once the full
  // header has arrived — and bounds what a client can make it buffer: the
  // request line at kMaxRequestLine (431 past that), the whole header at
  // 64 KB (dropped without a response; nothing legitimate is that large).
  static constexpr char kCrlf2[] = "\r\n\r\n";
  static constexpr std::size_t kMaxRequestLine = 8192;
  const auto* begin = reinterpret_cast<const char*>(c.buf.data());
  const std::string_view have(begin, c.buf.size());
  const std::size_t line_end = have.find("\r\n");
  if (line_end == std::string_view::npos
          ? have.size() > kMaxRequestLine
          : line_end > kMaxRequestLine) {
    const std::string resp = http_response_string(
        431, "Request Header Fields Too Large", "request line too long\n",
        "text/plain; charset=utf-8");
    write_fully(c.fd, resp.data(), resp.size());
    return false;
  }
  const std::size_t head_end = have.find(kCrlf2);
  if (head_end == std::string_view::npos) return c.buf.size() < (64u << 10);
  const std::string_view line = have.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : line.find(' ', sp1 + 1);
  std::string_view method, target;
  if (sp2 != std::string_view::npos) {
    method = line.substr(0, sp1);
    target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  const std::string resp = http_respond(method, target);
  write_fully(c.fd, resp.data(), resp.size());
  return false;  // close after the one response
}

std::string RealTransport::http_respond(std::string_view method,
                                        std::string_view target) {
  // Split "?query" off the path; /debug/trace takes trace_id=<decimal>.
  const std::size_t q = target.find('?');
  const std::string_view path =
      q == std::string_view::npos ? target : target.substr(0, q);
  const std::string_view query =
      q == std::string_view::npos ? std::string_view{} : target.substr(q + 1);

  const bool known =
      path == "/metrics" || path == "/debug/vars" ||
      path == "/debug/sessions" || path == "/debug/sync" ||
      path == "/debug/trace" || path == "/debug/flight";
  if (!known) {
    return http_response_string(404, "Not Found",
                                "not found\n"
                                "try: /metrics /debug/vars /debug/sessions "
                                "/debug/sync /debug/trace /debug/flight\n",
                                "text/plain; charset=utf-8");
  }
  if (method != "GET") {
    return http_response_string(405, "Method Not Allowed",
                                "method not allowed; use GET\n",
                                "text/plain; charset=utf-8");
  }

  if (path == "/metrics") {
    return http_response_string(200, "OK", obs::to_prometheus(hub_.snapshot()),
                                "text/plain; version=0.0.4; charset=utf-8");
  }
  if (path == "/debug/vars") {
    return http_response_string(
        200, "OK", obs::debug_vars_json(hub_.snapshot(), &rollup_, now().us),
        "application/json");
  }
  if (path == "/debug/sessions") {
    return http_response_string(
        200, "OK", obs::debug_sessions_json(hub_.snapshot(), hub_.sessions()),
        "application/json");
  }
  if (path == "/debug/sync") {
    return http_response_string(200, "OK",
                                obs::debug_sync_json(hub_.snapshot()),
                                "application/json");
  }
  if (path == "/debug/trace") {
    std::uint64_t trace_id = 0;
    static constexpr std::string_view kKey = "trace_id=";
    if (const std::size_t at = query.find(kKey);
        at != std::string_view::npos) {
      const std::string_view v = query.substr(at + kKey.size());
      for (const char ch : v) {
        if (ch < '0' || ch > '9') break;
        trace_id = trace_id * 10 + static_cast<std::uint64_t>(ch - '0');
      }
    }
    return http_response_string(
        200, "OK",
        obs::debug_trace_json(hub_.flight().trace_events(), trace_id),
        "application/json");
  }
  // /debug/flight: the live journal in dump format (meta line + JSONL).
  return http_response_string(
      200, "OK", obs::debug_flight_jsonl(hub_.flight(), now().us),
      "application/x-ndjson");
}

void RealTransport::close_conn(int fd) {
  conns_.erase(fd);
  ::close(fd);
}

// --- blocking helpers --------------------------------------------------------

Result<HttpResponse> http_get(const std::string& ip, Port port,
                              const std::string& path, int timeout_ms) {
  Result<int> fd = connect_with_timeout(ip, port, timeout_ms);
  if (!fd) return fd.error();
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + ip +
                          "\r\nConnection: close\r\n\r\n";
  if (!write_fully(*fd, req.data(), req.size())) {
    ::close(*fd);
    return Error::kIo;
  }
  std::string resp;
  char tmp[4096];
  while (true) {
    pollfd pf{*fd, POLLIN, 0};
    const int r = ::poll(&pf, 1, timeout_ms);
    if (r <= 0) {
      ::close(*fd);
      return r == 0 ? Error::kTimeout : Error::kIo;
    }
    const ssize_t n = ::recv(*fd, tmp, sizeof tmp, 0);
    if (n == 0) break;  // server closed: response complete
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(*fd);
      return errno_to_error(errno);
    }
    resp.append(tmp, static_cast<std::size_t>(n));
  }
  ::close(*fd);
  if (resp.rfind("HTTP/1.", 0) != 0) return Error::kMalformed;
  const std::size_t sp = resp.find(' ');
  const std::size_t head_end = resp.find("\r\n\r\n");
  if (sp == std::string::npos || head_end == std::string::npos) {
    return Error::kMalformed;
  }
  HttpResponse out;
  out.status = std::atoi(resp.c_str() + sp + 1);
  out.body = resp.substr(head_end + 4);
  return out;
}

TcpRpcClient::TcpRpcClient(std::string ip, Port port)
    : ip_(std::move(ip)), port_(port) {}

TcpRpcClient::~TcpRpcClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<void> TcpRpcClient::ensure_connected(int timeout_ms) {
  if (fd_ >= 0) return {};
  Result<int> fd = connect_with_timeout(ip_, port_, timeout_ms);
  if (!fd) return fd.error();
  fd_ = *fd;
  return {};
}

Result<RpcReply> TcpRpcClient::call(std::string_view path,
                                    std::span<const std::byte> body,
                                    int timeout_ms) {
  if (Result<void> c = ensure_connected(timeout_ms); !c) return c.error();
  std::vector<std::byte> req(8 + path.size() + 4 + body.size());
  std::memcpy(req.data(), frame::kRpcMagic, 4);
  put_u32(req.data() + 4, static_cast<std::uint32_t>(path.size()));
  std::memcpy(req.data() + 8, path.data(), path.size());
  put_u32(req.data() + 8 + path.size(),
          static_cast<std::uint32_t>(body.size()));
  std::copy(body.begin(), body.end(), req.begin() + 8 + path.size() + 4);
  if (!write_fully(fd_, req.data(), req.size())) {
    ::close(fd_);
    fd_ = -1;
    return Error::kIo;
  }
  std::byte head[8];
  if (Result<void> r = read_exact(fd_, head, sizeof head, timeout_ms); !r) {
    ::close(fd_);
    fd_ = -1;
    return r.error();
  }
  const int status = static_cast<int>(frame::detail::get_u32(head));
  const std::uint32_t body_len = frame::detail::get_u32(head + 4);
  if (body_len > (1u << 28)) {
    ::close(fd_);
    fd_ = -1;
    return Error::kMalformed;
  }
  std::vector<std::byte> resp(body_len);
  if (body_len > 0) {
    if (Result<void> r = read_exact(fd_, resp.data(), body_len, timeout_ms);
        !r) {
      ::close(fd_);
      fd_ = -1;
      return r.error();
    }
  }
  return RpcReply{status, Payload(std::move(resp))};
}

}  // namespace lod::net
