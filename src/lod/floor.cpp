#include "lod/lod/floor.hpp"

#include <algorithm>

namespace lod::lod {

using net::ByteReader;
using net::ByteWriter;

// --- FloorControl -----------------------------------------------------------------

FloorControl::FloorControl(std::vector<std::string> users) {
  floor_free_ = net_.add_place("floor_free", 1);
  for (auto& u : users) {
    UserRec rec;
    rec.requesting = net_.add_place("req_" + u, 1);
    rec.holding = net_.add_place("hold_" + u, 1);
    rec.grant = net_.add_transition("grant_" + u);
    rec.release = net_.add_transition("release_" + u);
    net_.add_input(rec.requesting, rec.grant);
    net_.add_input(floor_free_, rec.grant);
    net_.add_output(rec.grant, rec.holding);
    net_.add_input(rec.holding, rec.release);
    net_.add_output(rec.release, floor_free_);
    users_.emplace(std::move(u), rec);
  }
  marking_ = net_.empty_marking();
  marking_[floor_free_] = 1;
}

const FloorControl::UserRec* FloorControl::find(const std::string& user) const {
  auto it = users_.find(user);
  return it == users_.end() ? nullptr : &it->second;
}

void FloorControl::attach_observability(obs::Hub* hub) {
  hub_ = hub;
  if (!hub_) {
    m_requests_ = {};
    m_grants_ = {};
    m_denies_ = {};
    m_releases_ = {};
    m_grant_wait_us_ = {};
    return;
  }
  auto& reg = hub_->metrics();
  m_requests_ = reg.counter("lod.floor.requests");
  m_grants_ = reg.counter("lod.floor.grants");
  m_denies_ = reg.counter("lod.floor.denies");
  m_releases_ = reg.counter("lod.floor.releases");
  m_grant_wait_us_ = reg.histogram("lod.floor.grant_wait_us");
}

bool FloorControl::request(const std::string& user) {
  const UserRec* rec = find(user);
  if (!rec || marking_[rec->requesting] > 0 || marking_[rec->holding] > 0) {
    // Unknown, already queued, or already holding.
    m_denies_.inc();
    if (hub_) hub_->flight().emit(obs::FlightType::kFloorDeny, 0, 0, 0, user);
    return false;
  }
  // Deposit a request token; the grant transition may fire when this user
  // reaches the head of the FIFO and the floor is free.
  marking_[rec->requesting] = 1;
  fifo_.push_back(user);
  log_.push_back(Event{Event::Kind::kRequest, user});
  m_requests_.inc();
  if (hub_) {
    asked_at_[user] = hub_->now_us();
    if (auto& trace = hub_->flight(); trace.tracing()) {
      const obs::TraceContext root = trace.make_trace();
      const std::uint64_t sp = trace.begin_span(root, "floor.request");
      request_spans_[user] = {root, sp};
      trace.emit_in(root.child(sp), obs::FlightType::kFloorRequest, 0, 0, 0,
                    user);
    }
  }
  try_grant();
  return true;
}

bool FloorControl::release(const std::string& user) {
  const UserRec* rec = find(user);
  if (!rec || !net_.enabled(rec->release, marking_)) {
    m_denies_.inc();
    if (hub_) hub_->flight().emit(obs::FlightType::kFloorDeny, 0, 1, 0, user);
    return false;
  }
  net_.fire_in_place(rec->release, marking_);
  log_.push_back(Event{Event::Kind::kRelease, user});
  m_releases_.inc();
  if (hub_) hub_->flight().emit(obs::FlightType::kFloorRelease, 0, 0, 0, user);
  try_grant();
  return true;
}

void FloorControl::set_user_priority(const std::string& user,
                                     std::int32_t priority) {
  auto it = users_.find(user);
  if (it == users_.end()) {
    throw std::invalid_argument("set_user_priority: unknown user " + user);
  }
  net_.set_priority(it->second.grant, priority);
}

void FloorControl::try_grant() {
  while (!fifo_.empty()) {
    // Pick the waiting user whose grant transition is maximal under the
    // prioritized firing rule; FIFO order breaks priority ties (fifo_ is
    // arrival-ordered, so the first maximal entry wins).
    auto best = fifo_.end();
    std::int32_t best_prio = 0;
    for (auto it = fifo_.begin(); it != fifo_.end(); ++it) {
      const std::int32_t prio = net_.priority(users_.at(*it).grant);
      if (best == fifo_.end() || prio > best_prio) {
        best = it;
        best_prio = prio;
      }
    }
    const UserRec& head = users_.at(*best);
    if (!net_.enabled(head.grant, marking_)) return;  // floor busy
    net_.fire_in_place(head.grant, marking_);
    log_.push_back(Event{Event::Kind::kGrant, *best});
    m_grants_.inc();
    if (hub_) {
      if (auto it = asked_at_.find(*best); it != asked_at_.end()) {
        m_grant_wait_us_.observe(hub_->now_us() - it->second);
        asked_at_.erase(it);
      }
      if (auto it = request_spans_.find(*best); it != request_spans_.end()) {
        auto& trace = hub_->flight();
        const auto [root, sp] = it->second;
        trace.emit_in(root.child(sp), obs::FlightType::kFloorGrant, 0, 0, 0,
                      *best);
        trace.end_span(root, sp, "floor.request");
        request_spans_.erase(it);
      } else {
        hub_->flight().emit(obs::FlightType::kFloorGrant, 0, 0, 0, *best);
      }
    }
    fifo_.erase(best);
  }
}

std::optional<std::string> FloorControl::holder() const {
  for (const auto& [name, rec] : users_) {
    if (marking_[rec.holding] > 0) return name;
  }
  return std::nullopt;
}

std::vector<std::string> FloorControl::waiting() const {
  return {fifo_.begin(), fifo_.end()};
}

FloorControl::State FloorControl::state() const {
  return State{marking_, {fifo_.begin(), fifo_.end()}};
}

void FloorControl::restore(const State& s) {
  if (s.marking.size() != net_.place_count()) {
    throw std::invalid_argument("FloorControl::restore: marking size " +
                                std::to_string(s.marking.size()) +
                                " != place count " +
                                std::to_string(net_.place_count()));
  }
  for (core::PlaceId p = 0; p < s.marking.size(); ++p) {
    const std::uint32_t cap = net_.place_capacity(p);
    if (cap > 0 && s.marking[p] > cap) {
      throw std::invalid_argument("FloorControl::restore: place " +
                                  net_.place_name(p) + " over capacity");
    }
  }
  for (auto it = s.fifo.begin(); it != s.fifo.end(); ++it) {
    if (find(*it) == nullptr) {
      throw std::invalid_argument("FloorControl::restore: unknown user " + *it);
    }
    if (std::find(s.fifo.begin(), it, *it) != it) {
      throw std::invalid_argument("FloorControl::restore: duplicate queued " +
                                  *it);
    }
  }
  marking_ = s.marking;
  fifo_.assign(s.fifo.begin(), s.fifo.end());
  const auto queued = [this](const std::string& u) {
    return std::find(fifo_.begin(), fifo_.end(), u) != fifo_.end();
  };
  for (auto it = asked_at_.begin(); it != asked_at_.end();) {
    it = queued(it->first) ? std::next(it) : asked_at_.erase(it);
  }
  for (auto it = request_spans_.begin(); it != request_spans_.end();) {
    it = queued(it->first) ? std::next(it) : request_spans_.erase(it);
  }
}

std::vector<std::int64_t> FloorControl::exclusion_invariant() const {
  std::vector<std::int64_t> w(net_.place_count(), 0);
  w[floor_free_] = 1;
  for (const auto& [name, rec] : users_) w[rec.holding] = 1;
  return w;
}

// --- FloorService -------------------------------------------------------------------

namespace {
std::vector<std::byte> str_bytes(std::string_view s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}
std::string bytes_str(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}
std::pair<int, std::vector<std::byte>> verdict(bool ok) {
  return {ok ? 200 : 403, {}};
}
}  // namespace

FloorService::FloorService(net::Network& net, net::HostId host,
                           net::Port rpc_port, std::vector<std::string> users)
    : net_(net),
      rpc_(net, host, rpc_port),
      relay_(net, host, static_cast<net::Port>(rpc_port + 1)),
      floor_(std::move(users)) {
  floor_.attach_observability(&net_.simulator().obs());
  m_relayed_ = net_.simulator().obs().metrics().counter("lod.floor.relayed");
  // Body convention: "user" or "user\ntext" (speak), or "user\nhost:port"
  // (join). Kept deliberately simple — it is a classroom protocol.
  rpc_.route("/floor/join", [this](std::string_view,
                                   std::span<const std::byte> body) {
    const std::string s = bytes_str(body);
    const auto nl = s.find('\n');
    if (nl == std::string::npos) return verdict(false);
    const std::string user = s.substr(0, nl);
    const auto colon = s.find(':', nl);
    if (colon == std::string::npos) return verdict(false);
    Member m;
    m.host = static_cast<net::HostId>(
        std::stoul(s.substr(nl + 1, colon - nl - 1)));
    m.port = static_cast<net::Port>(std::stoul(s.substr(colon + 1)));
    members_[user] = m;
    return verdict(true);
  });
  rpc_.route("/floor/request",
             [this](std::string_view, std::span<const std::byte> body) {
               return verdict(floor_.request(bytes_str(body)));
             });
  rpc_.route("/floor/release",
             [this](std::string_view, std::span<const std::byte> body) {
               return verdict(floor_.release(bytes_str(body)));
             });
  rpc_.route("/floor/speak", [this](std::string_view,
                                    std::span<const std::byte> body) {
    const std::string s = bytes_str(body);
    const auto nl = s.find('\n');
    if (nl == std::string::npos) return verdict(false);
    const std::string user = s.substr(0, nl);
    if (floor_.holder() != user) return verdict(false);  // no floor, no mic
    const std::string line = user + ": " + s.substr(nl + 1);
    for (const auto& [name, m] : members_) {
      relay_.send_to(m.host, m.port, str_bytes(line));
      ++relayed_;
      m_relayed_.inc();
    }
    return verdict(true);
  });
}

// --- FloorClient ---------------------------------------------------------------------

FloorClient::FloorClient(net::Network& net, net::HostId host,
                         net::Port base_port, std::string user,
                         net::HostId service_host, net::Port service_port,
                         std::function<void(const std::string&)> on_message)
    : rpc_(net, host, base_port),
      inbox_(net, host, static_cast<net::Port>(base_port + 1)),
      user_(std::move(user)),
      service_host_(service_host),
      service_port_(service_port) {
  inbox_.on_receive([cb = std::move(on_message)](
                        const net::ReliableEndpoint::Message& m) {
    if (cb) cb(bytes_str(m.payload));
  });
}

void FloorClient::call(const std::string& path, std::vector<std::byte> body,
                       std::function<void(bool)> done) {
  call_result(path, std::move(body),
              [done = std::move(done)](net::Result<bool> r) {
                if (done) done(r && *r);
              });
}

void FloorClient::call_result(const std::string& path,
                              std::vector<std::byte> body, ResultFn done) {
  rpc_.call(service_host_, service_port_, path, std::move(body),
            [done = std::move(done)](net::Result<net::RpcReply> r) {
              if (!done) return;
              if (!r) {
                done(r.error());
              } else {
                done(r->status == 200);
              }
            },
            net::RpcClient::CallOptions{timeout_});
}

void FloorClient::request_floor_result(ResultFn done) {
  call_result("/floor/request", str_bytes(user_), std::move(done));
}

void FloorClient::release_floor_result(ResultFn done) {
  call_result("/floor/release", str_bytes(user_), std::move(done));
}

void FloorClient::join(std::function<void(bool)> done) {
  const std::string body = user_ + "\n" + std::to_string(inbox_.host()) + ":" +
                           std::to_string(inbox_.port());
  call("/floor/join", str_bytes(body), std::move(done));
}

void FloorClient::request_floor(std::function<void(bool)> done) {
  call("/floor/request", str_bytes(user_), std::move(done));
}

void FloorClient::release_floor(std::function<void(bool)> done) {
  call("/floor/release", str_bytes(user_), std::move(done));
}

void FloorClient::speak(const std::string& text,
                        std::function<void(bool)> done) {
  call("/floor/speak", str_bytes(user_ + "\n" + text), std::move(done));
}

}  // namespace lod::lod
