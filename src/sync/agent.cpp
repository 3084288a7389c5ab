#include "lod/sync/agent.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lod::sync {

namespace {

/// 'LSYG' little-endian — sync gossip/delta datagrams.
constexpr std::uint32_t kGossipMagic = 0x4759534cu;
constexpr std::uint8_t kGossipVersion = 1;

enum class MsgType : std::uint8_t {
  kEpoch = 1,         ///< {epoch, checksum, local stamp, structure, authority}
  kDeltaRequest = 2,  ///< {epoch, structure, per-block sums}
  kDeltaReply = 3,    ///< {epoch, state image}
};

}  // namespace

SyncAgent::SyncAgent(net::Transport& net, net::HostId host,
                     SessionState& state, SyncConfig cfg)
    : net_(net),
      host_(host),
      state_(state),
      cfg_(cfg),
      sock_(net, host, cfg.port) {
  if (cfg_.epoch_interval.us <= 0) cfg_.epoch_interval = net::msec(500);
  detector_ = DesyncDetector({cfg_.persistent_after});
  sock_.on_receive([this](const net::Datagram& d) { handle_datagram(d); });

  auto& reg = net_.obs().metrics();
  const obs::Labels l{{"host", std::to_string(host_)}};
  m_epochs_ = reg.counter("lod.sync.epochs", l);
  m_gossip_tx_ = reg.counter("lod.sync.gossip_tx", l);
  m_gossip_rx_ = reg.counter("lod.sync.gossip_rx", l);
  m_mismatch_ = reg.counter("lod.sync.mismatch", l);
  m_transient_ = reg.counter("lod.sync.desync_transient", l);
  m_persistent_ = reg.counter("lod.sync.desync_persistent", l);
  m_resync_request_ = reg.counter("lod.sync.resync_requests", l);
  m_resync_serve_ = reg.counter("lod.sync.resync_serves", l);
  m_resync_ok_ = reg.counter("lod.sync.resync_ok", l);
  m_resync_fail_ = reg.counter("lod.sync.resync_fail", l);
  m_delta_bytes_ = reg.counter("lod.sync.delta_bytes", l);
  m_blocks_transferred_ = reg.counter("lod.sync.blocks_transferred", l);
  m_malformed_ = reg.counter("lod.sync.malformed", l);
  m_stale_ = reg.counter("lod.sync.stale", l);
  m_structure_mismatch_ = reg.counter("lod.sync.structure_mismatch", l);
  m_full_bytes_ = reg.gauge("lod.sync.full_state_bytes", l);
  m_drift_us_ = reg.histogram("lod.sync.drift_us", l);
}

SyncAgent::~SyncAgent() { stop(); }

void SyncAgent::add_peer(net::HostId h, net::Port port) {
  const net::Port p = port == 0 ? cfg_.port : port;
  const auto it = std::find_if(
      peers_.begin(), peers_.end(),
      [&](const PeerAddr& a) { return a.host == h && a.port == p; });
  if (it == peers_.end()) peers_.push_back({h, p});
}

void SyncAgent::start() {
  if (running_) return;
  running_ = true;
  if (!ctx_.valid()) ctx_ = net_.obs().flight().make_trace();
  arm_epoch_timer();
}

void SyncAgent::stop() {
  running_ = false;
  if (epoch_timer_) {
    net_.cancel(*epoch_timer_);
    epoch_timer_.reset();
  }
}

void SyncAgent::arm_epoch_timer() {
  // Absolute boundaries: all sites tick at multiples of the interval, so an
  // epoch NUMBER means the same instant everywhere with no negotiation.
  const std::int64_t interval = cfg_.epoch_interval.us;
  const std::int64_t now = net_.now().us;
  const std::int64_t next = (now / interval + 1) * interval;
  epoch_timer_ = net_.schedule_at(net::SimTime{next}, [this] {
    epoch_timer_.reset();
    if (!running_) return;
    epoch_tick();
    if (running_) arm_epoch_timer();
  });
}

void SyncAgent::epoch_tick() {
  const std::int64_t interval = cfg_.epoch_interval.us;
  const std::uint64_t epoch =
      static_cast<std::uint64_t>(net_.now().us / interval);
  last_epoch_ = epoch;
  ticked_any_ = true;

  state_.refresh();
  const std::int64_t stamp = net_.local_now(host_).us;
  history_.push_back({epoch, state_.checksum(), stamp});
  while (history_.size() > cfg_.history) history_.pop_front();

  ++stats_.epochs;
  m_epochs_.inc();
  m_full_bytes_.set(static_cast<std::int64_t>(state_.full_size_bytes()));

  if (cfg_.authoritative && !peers_.empty()) {
    net::ByteWriter w;
    w.u32(kGossipMagic);
    w.u8(kGossipVersion);
    w.u8(static_cast<std::uint8_t>(MsgType::kEpoch));
    w.u64(epoch);
    w.u64(state_.checksum());
    w.i64(stamp);
    w.u64(cfg_.structure);
    w.u8(1);
    broadcast(std::move(w).take());
  }

  // A report that raced ahead of our tick can be judged now.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->first <= epoch) {
      handle_epoch_report(it->first, it->second);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void SyncAgent::broadcast(const std::vector<std::byte>& msg) {
  for (const PeerAddr& p : peers_) {
    sock_.send_to(p.host, p.port, net::Payload(msg));
    ++stats_.gossip_tx;
    m_gossip_tx_.inc();
  }
}

void SyncAgent::handle_datagram(const net::Datagram& d) {
  if (!running_) return;
  try {
    net::ByteReader r(d.payload.view());
    if (r.u32() != kGossipMagic || r.u8() != kGossipVersion) {
      ++stats_.malformed;
      m_malformed_.inc();
      return;
    }
    switch (static_cast<MsgType>(r.u8())) {
      case MsgType::kEpoch: {
        ++stats_.gossip_rx;
        m_gossip_rx_.inc();
        const std::uint64_t epoch = r.u64();
        EpochReport rep;
        rep.checksum = r.u64();
        rep.local_stamp_us = r.i64();
        const std::uint64_t structure = r.u64();
        const bool authoritative = r.u8() != 0;
        // Replicas act on the authority's view only; our own role flag can
        // flip at runtime when the floor moves, so check per message.
        if (cfg_.authoritative || !authoritative) return;
        if (structure != cfg_.structure) {
          ++stats_.structure_mismatches;
          m_structure_mismatch_.inc();
          return;
        }
        rep.from = d.src;
        rep.from_port = d.src_port;
        handle_epoch_report(epoch, rep);
        return;
      }
      case MsgType::kDeltaRequest: {
        handle_delta_request(d, r);
        return;
      }
      case MsgType::kDeltaReply: {
        handle_delta_reply(r);
        return;
      }
    }
    ++stats_.malformed;
    m_malformed_.inc();
  } catch (const std::exception&) {
    // Truncated/corrupt sync datagram: count and drop, never crash —
    // the same contract the transport's own frame parsers honor.
    ++stats_.malformed;
    m_malformed_.inc();
  }
}

const SyncAgent::EpochRecord* SyncAgent::history_find(
    std::uint64_t epoch) const {
  for (const EpochRecord& rec : history_) {
    if (rec.epoch == epoch) return &rec;
  }
  return nullptr;
}

void SyncAgent::handle_epoch_report(std::uint64_t epoch,
                                    const EpochReport& rep) {
  if (history_find(epoch) != nullptr) {
    compare(epoch, rep);
    return;
  }
  if (!ticked_any_ || epoch > last_epoch_) {
    // Our own boundary hasn't fired yet (gossip beat the timer, or we
    // started mid-session): hold the report until it does.
    pending_[epoch] = rep;
    if (pending_.size() > cfg_.history) pending_.erase(pending_.begin());
    return;
  }
  ++stats_.stale;
  m_stale_.inc();
}

void SyncAgent::compare(std::uint64_t epoch, const EpochReport& rep) {
  const EpochRecord* mine = history_find(epoch);
  if (mine == nullptr) return;

  const std::int64_t drift =
      std::abs(mine->local_stamp_us - rep.local_stamp_us);
  m_drift_us_.observe(drift);

  const bool match = mine->checksum == rep.checksum;
  if (!match) {
    ++stats_.mismatches;
    m_mismatch_.inc();
  }
  const DesyncDetector::Verdict verdict = detector_.observe(epoch, match);
  auto& flight = net_.obs().flight();
  flight.record(obs::FlightType::kSyncVerdict,
                static_cast<std::uint32_t>(rep.from), epoch,
                static_cast<std::uint64_t>(verdict));
  switch (verdict) {
    case DesyncDetector::Verdict::kInSync:
      break;
    case DesyncDetector::Verdict::kTransient:
      ++stats_.transient;
      m_transient_.inc();
      break;
    case DesyncDetector::Verdict::kPersistent:
      ++stats_.persistent;
      m_persistent_.inc();
      // (Re)request unless a request for this same epoch is already out:
      // a lost request or reply heals itself at the next epoch, when the
      // still-persistent verdict lands here again with a later epoch.
      if (!resync_inflight_ || *resync_inflight_ < epoch) {
        // Dump before the resync starts: the journal at this instant is
        // the evidence of HOW we desynced (one dump per resync attempt,
        // not per persistent epoch).
        flight.trigger_dump("sync.persistent_desync");
        send_resync_request(epoch, {rep.from, rep.from_port});
      }
      break;
  }
}

void SyncAgent::send_resync_request(std::uint64_t epoch, const PeerAddr& to) {
  resync_inflight_ = epoch;
  ++stats_.resync_requests;
  m_resync_request_.inc();

  if (resync_span_ == 0) {
    resync_span_ = net_.obs().flight().begin_span(
        ctx_, "sync.resync", host_, static_cast<std::int64_t>(epoch),
        detector_.streak());
  }

  net::ByteWriter w;
  w.u32(kGossipMagic);
  w.u8(kGossipVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kDeltaRequest));
  w.u64(epoch);
  w.u64(cfg_.structure);
  const std::vector<BlockSum> sums = state_.block_sums();
  w.u32(static_cast<std::uint32_t>(sums.size()));
  for (const BlockSum& s : sums) {
    w.u32(s.id);
    w.u64(s.sum);
  }
  sock_.send_to(to.host, to.port, net::Payload(std::move(w).take()));
}

void SyncAgent::handle_delta_request(const net::Datagram& d,
                                     net::ByteReader& r) {
  const std::uint64_t epoch = r.u64();
  const std::uint64_t structure = r.u64();
  if (!cfg_.authoritative) return;  // only the authority serves state
  if (structure != cfg_.structure) {
    ++stats_.structure_mismatches;
    m_structure_mismatch_.inc();
    return;
  }
  std::vector<BlockSum> peer;
  const std::uint32_t n = r.u32();
  peer.reserve(r.bounded_count(n, 4 + 8));
  for (std::uint32_t i = 0; i < n; ++i) {
    BlockSum s;
    s.id = r.u32();
    s.sum = r.u64();
    peer.push_back(s);
  }

  // Serve the CURRENT state, not epoch-e state: the requester wants to
  // converge on now, and the next epoch's gossip verifies it did.
  state_.refresh();
  const std::vector<std::byte> image = state_.serialize_delta(peer);
  ++stats_.resync_serves;
  m_resync_serve_.inc();
  stats_.delta_bytes += image.size();
  m_delta_bytes_.inc(image.size());

  net::ByteWriter w;
  w.u32(kGossipMagic);
  w.u8(kGossipVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kDeltaReply));
  w.u64(epoch);
  w.blob(image);
  sock_.send_to(d.src, d.src_port, net::Payload(std::move(w).take()));
}

void SyncAgent::handle_delta_reply(net::ByteReader& r) {
  const std::uint64_t epoch = r.u64();
  const std::vector<std::byte> image = r.blob();
  if (!resync_inflight_) return;  // duplicate or long-lost reply
  resync_inflight_.reset();

  const SessionState::ApplyResult res = state_.apply(image);
  stats_.delta_bytes += res.bytes;
  m_delta_bytes_.inc(res.bytes);
  stats_.blocks_transferred += res.blocks_applied;
  m_blocks_transferred_.inc(res.blocks_applied);

  auto& flight = net_.obs().flight();
  if (res.ok && res.checksum_match) {
    ++stats_.resync_ok;
    m_resync_ok_.inc();
    detector_.note_resynced();
    if (resync_span_ != 0) {
      flight.end_span(ctx_, resync_span_, "sync.resync", host_,
                      static_cast<std::int64_t>(res.blocks_applied),
                      static_cast<std::int64_t>(res.bytes));
      resync_span_ = 0;
    }
    // Journal the heal and dump again: this second journal covers the
    // whole recovery (persistent verdict -> resync span -> delta applied),
    // which is what the storm test asserts end-to-end.
    flight.record(obs::FlightType::kResync, static_cast<std::uint32_t>(host_),
                  epoch, res.blocks_applied);
    flight.trigger_dump("sync.resync_complete");
    if (on_resync_) on_resync_(epoch, res.blocks_applied);
  } else if (res.ok) {
    // Blocks landed but the authority moved on while the delta was in
    // flight (its trailing checksum names a state we can't reach from
    // here). Not a failure: the next epoch either matches or re-requests.
    ++stats_.resync_fail;
    m_resync_fail_.inc();
  } else {
    ++stats_.resync_fail;
    m_resync_fail_.inc();
  }
}

}  // namespace lod::sync
