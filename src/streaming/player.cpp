#include "lod/streaming/player.hpp"

#include <algorithm>
#include <limits>

namespace lod::streaming {

using net::ByteReader;
using net::ByteWriter;
using proto::Ctl;

std::string to_string(SyncModel m) {
  switch (m) {
    case SyncModel::kOcpn: return "OCPN";
    case SyncModel::kXocpn: return "XOCPN";
    case SyncModel::kEtpn: return "ETPN";
  }
  return "?";
}

Player::Player(net::Transport& net, net::HostId host, PlayerConfig cfg,
               media::DrmSystem* drm)
    : net_(net),
      host_(host),
      cfg_(cfg),
      drm_(drm),
      ctl_(net, host, cfg.ctl_port),
      data_(net, host, cfg.data_port),
      web_(net, host, static_cast<net::Port>(cfg.data_port + 1)) {
  auto& reg = net_.obs().metrics();
  flight_ = &net_.obs().flight();
  const obs::Labels l{{"host", std::to_string(host_)}};
  m_packets_received_ = reg.counter("lod.player.packets_received", l);
  m_units_rendered_ = reg.counter("lod.player.units_rendered", l);
  m_units_lost_ = reg.counter("lod.player.units_lost", l);
  m_stalls_ = reg.counter("lod.player.stalls", l);
  m_slides_shown_ = reg.counter("lod.player.slides_shown", l);
  m_repairs_requested_ = reg.counter("lod.player.repairs_requested", l);
  m_failovers_ = reg.counter("lod.player.failovers", l);
  m_startup_us_ = reg.histogram("lod.player.startup_us", l);
  m_stall_us_ = reg.histogram("lod.player.stall_us", l);
  m_slide_fetch_us_ = reg.histogram("lod.player.slide_fetch_us", l);
  m_render_offset_us_ = reg.histogram("lod.player.render_offset_us", l);
  ctl_.on_receive(
      [this](const net::ReliableEndpoint::Message& m) { handle_control(m); });
  data_.on_receive([this](const net::Datagram& p) { handle_data(p); });
}

Player::~Player() {
  *alive_ = false;
  cancel_timer(render_timer_);
  cancel_timer(sync_timer_);
  cancel_timer(failover_timer_);
  release_channel();
}

net::SimTime Player::local_now() const { return net_.local_now(host_); }

void Player::cancel_timer(std::optional<net::EventId>& timer) {
  if (timer) net_.cancel(*timer);
  timer.reset();
}

void Player::end_phase(std::uint64_t& span, const char* name,
                       std::int64_t a) {
  if (span == 0) return;
  flight_->end_span(session_ctx_, span, name, host_, a);
  span = 0;
}

void Player::enter_finished() {
  const bool was_finished = state_ == State::kFinished;
  state_ = State::kFinished;
  buffer_.clear();  // nothing renders any more: release the storage
  if (!was_finished && observer_) observer_->on_finished();
  if (!was_finished && cfg_.auto_stop_on_finish) send_session_stop();
  if (session_span_ != 0) {
    // Close the in-flight phase spans before the session root so the tree
    // nests cleanly even when the session ends mid-open or mid-failover.
    end_phase(describe_span_, "player.describe");
    end_phase(startup_span_, "player.startup");
    end_phase(failover_span_, "player.failover");
    const obs::TraceContext root{session_ctx_.trace_id, 0};
    flight_->end_span(root, session_span_, "player.session", host_,
                      static_cast<std::int64_t>(failovers_));
    session_span_ = 0;
    session_ctx_ = {};
  }
  cancel_timer(sync_timer_);
  cancel_timer(render_timer_);
  cancel_timer(failover_timer_);
}

net::SimDuration Player::effective_preroll() const {
  return cfg_.preroll_override.us > 0 ? cfg_.preroll_override
                                      : header_.props.preroll;
}

// --- session setup ---------------------------------------------------------------

void Player::reset_stream() {
  cancel_timer(render_timer_);
  waiting_since_.reset();
  buffer_.clear();
  scripts_.clear();
  pending_slide_.reset();
  eos_received_ = false;
  expected_seq_reset_ = true;
  highest_index_ = -1;
  max_index_seen_ = -1;
  received_index_.clear();
  nack_attempts_.clear();
  reorder_.clear();
  next_feed_ = -1;
  repair_total_ = -1;
  eos_deferrals_ = 0;
}

void Player::new_demuxer() {
  demux_ = std::make_unique<media::asf::Demuxer>(header_);
  if (license_) demux_->set_license(drm_, *license_, cfg_.user);
}

void Player::reserve_channel(double rate) {
  if (cfg_.model == SyncModel::kOcpn || header_.props.avg_bitrate_bps <= 0) {
    return;
  }
  const auto bps = static_cast<std::int64_t>(
      static_cast<double>(header_.props.avg_bitrate_bps) *
      cfg_.channel_headroom * rate);
  if (channel_ == 0) {
    if (auto ch = net_.reserve_channel(server_, host_, bps)) channel_ = *ch;
  } else if (!net_.resize_channel(channel_, bps)) {
    release_channel();  // no capacity for that rate: drop to best effort
  }
}

void Player::release_channel() {
  if (channel_ != 0) net_.release_channel(channel_);
  channel_ = 0;
}

void Player::begin_session(SiteSelector* sel,
                           std::vector<std::string> renditions) {
  selector_ = sel;
  ladder_ = std::move(renditions);
  rendition_ = 0;
  stalls_at_switch_ = stalls_.size();
  downshifts_.clear();
  begin_session_trace();
}

void Player::open_and_play(net::HostId server, std::string content,
                           net::SimDuration from) {
  begin_session(nullptr, {});
  reopen(server, std::move(content), from);
}

void Player::open_and_play_via(SiteSelector& sel, std::string content,
                               net::SimDuration from) {
  begin_session(&sel, {});
  reopen(sel.pick_site(), std::move(content), from);
}

void Player::open_and_play_ladder(net::HostId server,
                                  std::vector<std::string> renditions,
                                  net::SimDuration from) {
  if (renditions.empty()) return;
  std::string top = renditions.front();
  begin_session(nullptr, std::move(renditions));
  reopen(server, std::move(top), from);
}

void Player::join_live(net::HostId server, std::string name) {
  begin_session(nullptr, {});
  reopen(server, std::move(name), kLiveJoin);
}

void Player::begin_session_trace() {
  // One trace per user-facing open; a failover reopen stays in the same
  // trace so its spans land in the same tree. A restored (migrated /
  // replayed) session adopts the original identity instead of minting one.
  if (adopted_trace_) {
    adopted_trace_ = false;
    return;
  }
  const obs::TraceContext root = flight_->make_trace();
  session_span_ = flight_->begin_span(root, "player.session", host_);
  session_ctx_ = root.child(session_span_);
}

void Player::restore_session_trace(std::uint64_t trace_id,
                                   std::uint64_t root_span) {
  session_span_ = root_span;
  session_ctx_.trace_id = trace_id;
  session_ctx_.parent_span_id = root_span;
  adopted_trace_ = trace_id != 0;
}

net::SimDuration Player::resume_point() const {
  // Never before the pending open/seek target. While stalled, just past the
  // last unit actually shown: position() keeps advancing through a stall
  // and would skip media that never rendered, and discard_below_ is a
  // strict lower bound, so resuming AT that unit would show it twice.
  // Otherwise where the viewer is: the render cursor, or the pause point.
  net::SimDuration at =
      discard_below_.us >= 0 ? discard_below_ : net::SimDuration{0};
  if (state_ == State::kPlaying && waiting_since_) {
    if (!rendered_.empty()) {
      at = std::max(at, rendered_.back().pts + net::SimDuration{1});
    }
  } else if (state_ == State::kPlaying || state_ == State::kPaused) {
    at = std::max(at, position());
  }
  return at;
}

void Player::reopen(net::HostId site, std::string content,
                    net::SimDuration resume_at, Reopen how) {
  // A QoS reservation is bound to the old path and bit-rate; the new stream
  // reserves its own once its header is known.
  if (how != Reopen::kReplay) release_channel();
  if (how == Reopen::kMigrate) {
    start_migration(site, resume_at);
  } else {
    reset_stream();
    session_ = 0;
    stream_epoch_ = 0;
    awaiting_display_.clear();
    // Any in-flight migration handshake is obsolete the moment a reopen
    // starts; the token bump makes its eventual reply a no-op.
    migration_inflight_ = false;
    ++migration_token_;
    held_verbs_.clear();
    server_ = site;
    content_ = std::move(content);
    discard_below_ = resume_at;  // render begins at the requested position
    if (how == Reopen::kReplay) {
      new_demuxer();
      send_play(net::SimDuration{0});
    } else {
      live_ = resume_at.us < 0;
      state_ = State::kOpening;
      demux_.reset();  // nothing is ingested until the new header is known
      describe_span_ = flight_->begin_span(session_ctx_, "player.describe",
                                           host_,
                                           static_cast<std::int64_t>(server_));
      ByteWriter w;
      w.u8(static_cast<std::uint8_t>(Ctl::kDescribe));
      w.str(content_);
      // Causal context piggybacks at the tail; pre-span receivers simply
      // stop reading before it.
      w.u64(session_ctx_.trace_id);
      w.u64(describe_span_);
      describe_sent_ = net_.now();
      ctl_.send_to(server_, cfg_.server_port, std::move(w).take());
    }
  }
  arm_watchdog();
}

void Player::send_ctl(net::HostId site, Ctl tag, std::uint64_t session,
                      std::span<const std::byte> args) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(tag));
  w.u64(session);
  w.raw(args);
  ctl_.send_to(site, cfg_.server_port, std::move(w).take());
}

void Player::send_verb(Ctl tag, std::span<const std::byte> args) {
  if (migration_inflight_) {
    // The site being abandoned would act on it and the adopting one would
    // never hear of it: hold the verb for the adopted session instead.
    held_verbs_.emplace_back(tag,
                             std::vector<std::byte>(args.begin(), args.end()));
    return;
  }
  send_ctl(server_, tag, session_, args);
}

void Player::on_described(std::span<const std::byte> header_bytes) {
  header_ = media::asf::parse_header(header_bytes);

  // DRM: "mandatory for rendering" — acquire a license or render nothing.
  license_.reset();
  if (header_.drm.is_protected && drm_) {
    license_ = drm_->issue_license(header_.drm.key_id, cfg_.user,
                                   net::SimTime::max());
  }
  if (header_.drm.is_protected && !license_) drm_blocked_ = true;
  new_demuxer();

  // XOCPN/ETPN: reserve a QoS channel sized to the content's bit-rate.
  reserve_channel(1.0);

  // ETPN: synchronize the local clock against the server, now and periodically.
  if (cfg_.model == SyncModel::kEtpn) run_clock_sync();

  if (live_) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Ctl::kJoinLive));
    w.str(content_);
    w.u16(cfg_.data_port);
    ctl_.send_to(server_, cfg_.server_port, std::move(w).take());
    play_issued_ = net_.now();
    flight_->emit(obs::FlightType::kPlayIssued, host_, 0, 1, content_);
    state_ = State::kBuffering;
  } else {
    const net::SimDuration from =
        discard_below_.us >= 0 ? discard_below_ : net::SimDuration{0};
    send_play(from);
  }
}

void Player::send_play(net::SimDuration from) {
  // The startup span opens at the same instant kPlayIssued stamps, so its
  // duration equals startup_delay() exactly.
  startup_span_ =
      flight_->begin_span(session_ctx_, "player.startup", host_, from.us);
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Ctl::kPlay));
  w.str(content_);
  w.i64(from.us);
  w.u16(cfg_.data_port);
  w.u32(channel_);
  w.u64(session_ctx_.trace_id);
  w.u64(startup_span_);
  ctl_.send_to(server_, cfg_.server_port, std::move(w).take());
  play_issued_ = net_.now();
  flight_->emit_in(session_ctx_, obs::FlightType::kPlayIssued, host_, from.us,
                   0, content_);
  expected_seq_reset_ = true;
  eos_received_ = false;
  state_ = State::kBuffering;
}

void Player::send_session_stop() {
  if (session_ == 0) return;
  send_ctl(server_, live_ ? Ctl::kLeaveLive : Ctl::kStop, session_);
  session_ = 0;  // closed: later stop()/finish paths must not re-send
}

void Player::stop() {
  send_session_stop();
  enter_finished();
}

// --- the session watchdog: starvation failover and rendition downshift ---------------

void Player::arm_watchdog(bool restart) {
  cancel_timer(failover_timer_);
  const bool failover_policy = selector_ && cfg_.failover_timeout.us > 0;
  const bool downshift_policy = rendition_ + 1 < ladder_.size();
  if (!failover_policy && !downshift_policy) return;
  if (restart) {
    watchdog_last_packets_ = packets_received_;
    watchdog_stuck_since_ = net_.now();
  }
  failover_timer_ = net_.schedule_after(
      cfg_.failover_check_interval, [this, alive = alive_] {
        if (!*alive) return;
        failover_timer_.reset();
        watchdog_tick();
      });
}

void Player::watchdog_tick() {
  if (state_ == State::kFinished || state_ == State::kIdle) return;
  // Starvation (selector sessions) = the site owes us data and none is
  // arriving. A paused session and smooth playback owe nothing.
  const bool owed = state_ == State::kOpening || state_ == State::kBuffering ||
                    (state_ == State::kPlaying && waiting_since_);
  const bool starved = selector_ && cfg_.failover_timeout.us > 0 && owed &&
                       packets_received_ == watchdog_last_packets_;
  if (starved &&
      net_.now() - watchdog_stuck_since_ >= cfg_.failover_timeout) {
    do_failover();
    return;  // the reopen re-armed the watchdog
  }
  // Repeated stalls with a lower rendition left: the current one is more
  // than the path can carry.
  if (rendition_ + 1 < ladder_.size() && state_ != State::kPaused &&
      stalls_.size() - stalls_at_switch_ >= kDownshiftStalls) {
    downshift();
    return;
  }
  arm_watchdog(/*restart=*/!starved);
}

void Player::downshift() {
  const net::SimDuration at = resume_point();
  downshifts_.push_back(Downshift{net_.now(), at,
                                  state_ == State::kPlaying &&
                                      waiting_since_.has_value()});
  stalls_at_switch_ = stalls_.size();
  send_session_stop();  // the higher rendition's session is over
  ++rendition_;
  reopen(server_, ladder_[rendition_], at);
}

void Player::do_failover() {
  ++failovers_;
  m_failovers_.inc();
  flight_->record(obs::FlightType::kFailover,
                  static_cast<std::uint32_t>(host_), server_);
  if (failover_span_ == 0) {
    failover_span_ = flight_->begin_span(session_ctx_, "player.failover", host_,
                                         static_cast<std::int64_t>(server_));
  }
  // A watchdog firing while a migration RPC is still in flight means the
  // migration TARGET went quiet too: that is the site to mark down.
  const net::HostId failed = migration_inflight_ ? migration_target_ : server_;
  const net::HostId next = selector_->failover_from(failed);
  const bool migrate = cfg_.migrate_on_failover && !live_ && demux_ &&
                       state_ != State::kOpening;
  reopen(next, content_, resume_point(),
         migrate ? Reopen::kMigrate : Reopen::kDescribe);
}

void Player::start_migration(net::HostId next, net::SimDuration resume_at) {
  // A new handshake ships the session's current state, so verbs held for
  // a superseded one are already in the image; the token bump turns that
  // handshake's reply (if it ever lands) into a no-op.
  held_verbs_.clear();
  const std::uint64_t token = ++migration_token_;
  migration_inflight_ = true;
  migration_target_ = next;
  if (!m_migrations_) {
    // Bound lazily so migration-free runs publish no series at all.
    m_migrations_ = net_.obs().metrics().counter(
        "lod.player.migrations", {{"host", std::to_string(host_)}});
  }
  ByteWriter w;
  w.u32(proto::kMigrateMagic);
  w.u16(proto::kMigrateVersion);
  w.str(content_);
  w.u32(static_cast<std::uint32_t>(host_));
  w.u16(cfg_.ctl_port);
  w.u16(cfg_.data_port);
  const std::uint32_t resume_index =
      max_index_seen_ >= 0
          ? static_cast<std::uint32_t>(max_index_seen_ + 1)
          : std::numeric_limits<std::uint32_t>::max();
  w.u32(resume_index);
  w.i64(resume_at.us);
  w.u32(stream_epoch_);
  w.f64(clock_.rate());
  w.u8(state_ == State::kPaused ? 1 : 0);
  w.u64(session_ctx_.trace_id);
  w.u64(failover_span_ != 0 ? failover_span_ : session_ctx_.parent_span_id);
  const std::vector<std::byte> image =
      image_provider_ ? image_provider_() : std::vector<std::byte>{};
  w.blob(image);

  // The sim transport does not refuse sends to unbound ports, so a replica
  // without the migrate RPC would hang the handshake forever without a
  // deadline. Keep it well inside the watchdog timeout: the fallback reopen
  // must fire before the watchdog declares this site dead too.
  net::RpcClient::CallOptions opts;
  opts.timeout = cfg_.failover_timeout.us > 0 ? cfg_.failover_timeout / 2
                                              : net::msec(1000);
  web_.call(
      next,
      static_cast<net::Port>(cfg_.server_port + proto::kMigratePortOffset),
      "/edge/migrate", std::move(w).take(),
      [this, alive = alive_, token, next](net::Result<net::RpcReply> r) {
        if (!*alive || token != migration_token_) return;
        migration_inflight_ = false;
        std::uint64_t sid = 0;
        try {
          if (r && r->status == 200) {
            ByteReader rr(r->body);
            sid = rr.u64();
            (void)rr.u32();  // the replica's first packet index
          }
        } catch (const std::exception&) {
          sid = 0;
        }
        if (sid == 0) {
          // The replica cannot adopt (cold meta, pre-migration build,
          // timeout): fall back to the re-describe reopen, which knows how
          // to park and warm up. A verb issued meanwhile moved the target.
          reopen(next, content_, resume_point());
          return;
        }
        complete_migration(next, sid);
      },
      opts);
  // The watchdog keeps running through the handshake (the reopen re-arms
  // it); if the target answers nothing at all the next failover marks IT
  // down (see do_failover).
}

void Player::complete_migration(net::HostId next, std::uint64_t session_id) {
  ++migrations_;
  m_migrations_.inc();
  if (state_ == State::kFinished || state_ == State::kIdle) {
    // Playback ended while the handshake was in flight: release the adopted
    // session instead of leaking it on the new replica.
    send_ctl(next, Ctl::kStop, session_id);
    return;
  }
  server_ = next;
  session_ = session_id;
  expected_seq_reset_ = true;  // the replica's transmission counter is fresh
  reserve_channel(clock_.rate());  // the QoS reservation follows the new path
  // ETPN: the clock discipline must track the new serving site.
  if (cfg_.model == SyncModel::kEtpn) {
    cancel_timer(sync_timer_);
    run_clock_sync();
  }
  // (The adopting edge emits the kSessionOpen event, exactly as it does on
  // the kPlay path — one open event per session per site.)
  // Rendering never stopped (the jitter buffer carried the handshake), so
  // the failover episode is over the moment the session is adopted.
  if (state_ == State::kPlaying || state_ == State::kPaused) {
    end_phase(failover_span_, "player.failover",
              static_cast<std::int64_t>(server_));
  }
  arm_watchdog();
  // The image described the session as it was when the handshake began;
  // bring the adopted session up to the viewer's later verbs.
  for (const auto& [tag, args] : held_verbs_) {
    send_ctl(server_, tag, session_, args);
  }
  held_verbs_.clear();
}

// --- clock synchronization (ETPN) ---------------------------------------------------

void Player::run_clock_sync() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Ctl::kTimeSync));
  w.i64(local_now().us);
  ctl_.send_to(server_, cfg_.server_port, std::move(w).take());
  if (cfg_.clock_sync_interval.us > 0) {
    sync_timer_ = net_.schedule_after(
        cfg_.clock_sync_interval, [this, alive = alive_] {
          if (!*alive) return;
          sync_timer_.reset();
          run_clock_sync();
        });
  }
}

// --- control plane ---------------------------------------------------------------------

void Player::handle_control(const net::ReliableEndpoint::Message& m) {
  ByteReader r(m.payload);
  const Ctl tag = static_cast<Ctl>(r.u8());
  switch (tag) {
    case Ctl::kDescribeOk: {
      if (selector_) {
        // One-way delay estimate from the DESCRIBE round trip (true time:
        // both ends are this host's schedule, no clock skew involved).
        selector_->observe(server_,
                           (net_.now() - describe_sent_) / 2);
      }
      end_phase(describe_span_, "player.describe",
                static_cast<std::int64_t>(server_));
      const auto hb = r.blob();
      on_described(hb);
      return;
    }
    case Ctl::kPlayOk: {
      session_ = r.u64();
      return;
    }
    case Ctl::kTimeSyncReply: {
      // NTP two-timestamp estimate: offset = ts + rtt/2 - t2.
      const net::SimTime t1{r.i64()};
      const net::SimTime ts{r.i64()};
      const net::SimTime t2 = local_now();
      const net::SimDuration rtt = t2 - t1;
      const net::SimDuration offset = (ts - t2) + rtt / 2;
      net_.clock(host_).adjust(offset);
      last_correction_ = offset;
      if (selector_) selector_->observe(server_, rtt / 2);
      flight_->emit(obs::FlightType::kClockSync, host_, offset.us, rtt.us);
      return;
    }
    case Ctl::kEndOfStream: {
      (void)r.u64();  // session id (already known)
      repair_total_ = static_cast<std::int64_t>(r.u32());
      handle_eos();
      return;
    }
    case Ctl::kError:
    default:
      return;
  }
}

void Player::handle_eos() {
  if (cfg_.repair_losses && !live_ && repair_total_ > 0) {
    // Trailing losses leave no higher index to expose them: NACK everything
    // missing up to the file's end, and give the repairs a moment to land
    // before declaring the stream over.
    if (highest_index_ + 1 < repair_total_) {
      request_repair(static_cast<std::uint32_t>(highest_index_ + 1),
                     static_cast<std::uint32_t>(repair_total_));
      highest_index_ = repair_total_ - 1;
    }
    const bool holes_pending =
        !reorder_.empty() ||
        (next_feed_ >= 0 && next_feed_ < repair_total_);
    if (holes_pending && eos_deferrals_ < 5) {
      ++eos_deferrals_;
      if (!reorder_.empty()) arm_hole_timer();
      net_.schedule_after(net::msec(500),
                                      [this, alive = alive_] {
                                        if (!*alive) return;
                                        handle_eos();
                                      });
      return;
    }
    // Flush whatever is still held (holes included) before finishing.
    while (!reorder_.empty()) {
      next_feed_ = static_cast<std::int64_t>(reorder_.begin()->first);
      drain_reorder();
    }
  }
  eos_received_ = true;
  if (state_ == State::kBuffering) maybe_start_rendering();
  if (state_ == State::kPlaying && buffer_.empty() && scripts_.empty()) {
    enter_finished();
  }
}

// --- data plane -------------------------------------------------------------------------

void Player::handle_data(const net::Datagram& p) {
  ByteReader r(p.payload);
  std::uint64_t seq = 0;
  std::uint32_t index = 0;
  try {
    if (r.u32() != proto::kDataMagic) return;
    const std::uint64_t sess = r.u64();
    if (session_ != 0 && sess != session_) return;  // stale session's data
    const std::uint32_t epoch = r.u32();
    if (epoch != stream_epoch_) return;  // straggler from before a seek
    seq = r.u64();
    index = r.u32();
  } catch (const std::exception&) {
    return;  // malformed datagram: drop
  }
  // The packet bytes ride as the shared body attachment; parsing waits
  // until ingest, and only repair mode's reorder buffer keeps a reference.
  ++packets_received_;
  m_packets_received_.inc();
  if (static_cast<std::int64_t>(index) > max_index_seen_) {
    max_index_seen_ = static_cast<std::int64_t>(index);
  }
  if (expected_seq_reset_) {
    expected_seq_reset_ = false;
    last_seq_ = seq;
  } else if (seq > last_seq_ + 1) {
    units_lost_ += seq - last_seq_ - 1;  // packet-level loss estimate
    m_units_lost_.inc(seq - last_seq_ - 1);
    flight_->record(
        obs::FlightType::kFrameDrop, static_cast<std::uint32_t>(host_), seq,
        static_cast<std::uint64_t>(obs::DropCause::kUnitLost));
    last_seq_ = seq;
  } else if (seq > last_seq_) {
    last_seq_ = seq;
  }

  // Selective repair (extension): a repaired packet arrives out of order
  // with the same index — deduplicate, and NACK holes as they appear.
  if (cfg_.repair_losses && !live_) {
    if (!received_index_.insert(index).second) return;  // duplicate
    if (nack_attempts_.erase(index) > 0) ++repairs_received_;
    if (static_cast<std::int64_t>(index) > highest_index_ + 1 &&
        highest_index_ >= 0) {
      request_repair(static_cast<std::uint32_t>(highest_index_) + 1, index);
    }
    if (static_cast<std::int64_t>(index) > highest_index_) {
      highest_index_ = static_cast<std::int64_t>(index);
    }
  }

  if (!cfg_.repair_losses || live_) {
    ingest_bytes(p.body);
    return;
  }
  // Repair mode: hold out-of-order packets so the demuxer sees a contiguous
  // stream; give a NACKed hole a grace period before skipping it.
  if (next_feed_ < 0) next_feed_ = static_cast<std::int64_t>(index);
  if (static_cast<std::int64_t>(index) < next_feed_) return;  // stale
  reorder_.emplace(index, p.body);
  drain_reorder();
  if (!reorder_.empty()) arm_hole_timer();
}

void Player::request_repair(std::uint32_t first, std::uint32_t last) {
  constexpr std::uint8_t kMaxAttempts = 3;
  std::uint32_t count = 0;
  net::ByteWriter idxw;
  for (std::uint32_t miss = first; miss < last; ++miss) {
    if (received_index_.count(miss)) continue;
    auto& attempts = nack_attempts_[miss];
    if (attempts >= kMaxAttempts) continue;
    ++attempts;
    idxw.u32(miss);
    ++count;
    ++repairs_requested_;
  }
  if (count == 0) return;
  m_repairs_requested_.inc(count);
  flight_->emit(obs::FlightType::kRepairRequest, host_, count);
  ByteWriter args;
  args.u32(count);
  args.raw(idxw.bytes());
  send_ctl(server_, Ctl::kRepair, session_, args.bytes());
}

void Player::arm_hole_timer() {
  const std::uint32_t hole = static_cast<std::uint32_t>(next_feed_);
  net_.schedule_after(net::msec(400), [this, alive = alive_,
                                                   hole] {
    if (!*alive) return;
    if (next_feed_ != static_cast<std::int64_t>(hole) ||
        reorder_.count(hole)) {
      return;  // already filled or moved past
    }
    // Re-NACK while the attempt budget lasts; then give up and move on.
    auto it = nack_attempts_.find(hole);
    if (it == nack_attempts_.end() || it->second < 3) {
      request_repair(hole, hole + 1);
      if (!reorder_.empty()) arm_hole_timer();
      return;
    }
    next_feed_ = hole + 1;  // the repair never came; move on
    drain_reorder();
    if (!reorder_.empty()) arm_hole_timer();
  });
}

void Player::drain_reorder() {
  while (!reorder_.empty()) {
    auto it = reorder_.begin();
    if (static_cast<std::int64_t>(it->first) < next_feed_) {
      reorder_.erase(it);  // skipped hole got filled too late
      continue;
    }
    if (static_cast<std::int64_t>(it->first) != next_feed_) break;  // hole
    net::Payload bytes = std::move(it->second);
    reorder_.erase(it);
    ++next_feed_;
    ingest_bytes(bytes);
  }
}

void Player::ingest_bytes(const net::Payload& bytes) {
  if (!demux_) return;
  try {
    demux_->feed(bytes, local_now());
  } catch (const std::exception&) {
    return;  // malformed packet body: dropped whole, before any of it is fed
  }
  if (demux_->undecryptable()) drm_blocked_ = true;

  // Only what rendering needs is kept; the units borrow `bytes`.
  while (auto u = demux_->next_unit()) {
    if (discard_below_.us >= 0 && u->meta.pts < discard_below_) continue;
    if (drm_blocked_) continue;  // cannot render protected media
    buffer_.push({u->meta.pts, u->meta.stream_id, u->meta.type});
  }
  while (auto s = demux_->next_script()) {
    if (discard_below_.us >= 0 && s->at < discard_below_) {
      // Keep the latest skipped SLIDE so the right slide shows on arrival.
      if (s->type == "SLIDE") pending_slide_ = *s;
      continue;
    }
    if (cfg_.prefetch_slides && s->type == "SLIDE" &&
        !prefetched_.count(s->param)) {
      start_prefetch(s->param);
    }
    scripts_[s->at.us].push_back(std::move(*s));
  }

  if (state_ == State::kBuffering) {
    maybe_start_rendering();
  } else if (state_ == State::kPlaying && waiting_since_ && !buffer_.empty()) {
    // Stall recovery: rebase the render clock by how late we are.
    const net::SimTime deadline_true = unit_due(buffer_.front().pts);
    const net::SimTime now_true = net_.now();
    if (now_true > deadline_true) {
      clock_.shift(now_true - deadline_true);
      const StallEvent ev{*waiting_since_,
                          net_.now() - *waiting_since_};
      stalls_.push_back(ev);
      m_stalls_.inc();
      m_stall_us_.observe(ev.duration.us);
      flight_->emit_in(session_ctx_, obs::FlightType::kStall, host_,
                       ev.duration.us);
      if (observer_) observer_->on_stall(ev);
    }
    waiting_since_.reset();
    arm_render_timer();
  }
}

void Player::maybe_start_rendering() {
  if (buffer_.empty()) {
    if (eos_received_) {
      // Nothing buffered and nothing more coming: run any remaining script
      // commands (unless DRM blocked the session entirely) and finish.
      if (!drm_blocked_) {
        execute_scripts_upto(net::SimDuration{
            std::numeric_limits<std::int64_t>::max() / 2});
      }
      scripts_.clear();
      enter_finished();
    }
    return;
  }
  const net::SimDuration lo = buffer_.front().pts;
  const net::SimDuration hi = buffer_.back().pts;
  if (hi - lo < effective_preroll() && !eos_received_ && !live_) return;
  // Live joins start as soon as half a second is buffered.
  if (live_ && hi - lo < net::msec(500) && !eos_received_) return;

  // Scheduled presentation: pts p renders at local instant start + p. A
  // synchronized clock makes that the MASTER instant; a skewed one shifts
  // the whole site by its offset — which is exactly what the distributed
  // benches measure.
  clock_.start(cfg_.scheduled_start
                   ? std::max(local_now(), *cfg_.scheduled_start + lo)
                   : local_now(),
               lo);
  state_ = State::kPlaying;
  render_start_pending_ = true;
  if (startup_delay_.us < 0) {
    startup_delay_ = net_.now() - play_issued_;
    m_startup_us_.observe(startup_delay_.us);
  }
  end_phase(startup_span_, "player.startup", startup_delay_.us);
  end_phase(failover_span_, "player.failover",
            static_cast<std::int64_t>(server_));
  if (pending_slide_) {
    // Apply the slide that should already be on screen at this position.
    auto cmd = *pending_slide_;
    pending_slide_.reset();
    cmd.at = lo;
    scripts_[cmd.at.us].insert(scripts_[cmd.at.us].begin(), std::move(cmd));
  }
  waiting_since_.reset();
  arm_render_timer();
}

net::SimDuration Player::position() const {
  switch (state_) {
    case State::kPlaying:
    case State::kPaused:
      return clock_.media_at(local_now());
    case State::kBuffering:
      return discard_below_.us >= 0 ? discard_below_ : clock_.anchor_media();
    case State::kFinished:
      return rendered_.empty() ? net::SimDuration{0} : rendered_.back().pts;
    default:
      return {};
  }
}

PlayerSyncCursor Player::sync_cursor() const {
  PlayerSyncCursor c;
  c.media_us = clock_.anchor_media().us;
  c.wall_us = clock_.anchor_wall().us;
  c.paused_at_us = clock_.paused_at().us;
  c.rate = clock_.rate();
  c.next_feed = next_feed_;
  c.highest_index = highest_index_;
  c.stream_epoch = stream_epoch_;
  return c;
}

void Player::restore_sync_cursor(const PlayerSyncCursor& c) {
  clock_ = core::PresentationClock(net::SimTime{c.wall_us},
                                  net::SimDuration{c.media_us},
                                  net::SimDuration{c.paused_at_us},
                                  c.rate > 0 ? c.rate : clock_.rate());
  if (state_ == State::kPaused) clock_.pause(clock_.paused_at());
  next_feed_ = c.next_feed;
  highest_index_ = c.highest_index;
  stream_epoch_ = c.stream_epoch;
  if (state_ == State::kPlaying) {
    // The restored mapping may have jumped the playhead forward: catch up
    // through every script command now due, then reschedule rendering on
    // the restored timeline.
    execute_scripts_upto(position());
    arm_render_timer();
  }
}

// --- session snapshot (sync/migration surfaces) -------------------------------------

PlayerReorderSnapshot Player::reorder_snapshot() const {
  PlayerReorderSnapshot s;
  s.held.reserve(reorder_.size());
  for (const auto& [index, payload] : reorder_) {
    s.held.emplace_back(index, payload.to_vector());
  }
  s.next_feed = next_feed_;
  s.repair_total = repair_total_;
  s.eos_received = eos_received_;
  return s;
}

void Player::restore_reorder(const PlayerReorderSnapshot& s) {
  reorder_.clear();
  for (const auto& [index, bytes] : s.held) {
    reorder_.emplace(index, net::Payload(bytes));
  }
  next_feed_ = s.next_feed;
  repair_total_ = s.repair_total;
  eos_received_ = s.eos_received;
  // As if the held packets just arrived: feed whatever became contiguous and
  // put the head-of-line hole back on the clock.
  drain_reorder();
  if (!reorder_.empty()) arm_hole_timer();
}

PlayerRepairSnapshot Player::repair_snapshot() const {
  PlayerRepairSnapshot s;
  s.received.assign(received_index_.begin(), received_index_.end());
  std::sort(s.received.begin(), s.received.end());
  s.nacks.assign(nack_attempts_.begin(), nack_attempts_.end());
  std::sort(s.nacks.begin(), s.nacks.end());
  s.highest_index = highest_index_;
  s.max_index_seen = max_index_seen_;
  s.repairs_requested = repairs_requested_;
  s.repairs_received = repairs_received_;
  return s;
}

void Player::restore_repair(const PlayerRepairSnapshot& s) {
  received_index_.clear();
  received_index_.insert(s.received.begin(), s.received.end());
  nack_attempts_.clear();
  nack_attempts_.insert(s.nacks.begin(), s.nacks.end());
  highest_index_ = s.highest_index;
  max_index_seen_ = s.max_index_seen;
  repairs_requested_ = s.repairs_requested;
  repairs_received_ = s.repairs_received;
}

PlayerSlideCacheSnapshot Player::slide_cache_snapshot() const {
  PlayerSlideCacheSnapshot s;
  for (const auto& [url, done] : prefetched_) {
    if (done.has_value()) s.cached.push_back(url);
  }
  std::sort(s.cached.begin(), s.cached.end());
  return s;
}

void Player::restore_slide_cache(const PlayerSlideCacheSnapshot& s) {
  // Completion stamps do not migrate; what matters is "cached, appears
  // instantly" — stamp them as of now.
  const net::SimTime now = net_.now();
  for (const auto& url : s.cached) prefetched_[url] = now;
}

void Player::arm_render_timer() {
  cancel_timer(render_timer_);
  if (state_ != State::kPlaying) return;
  if (buffer_.empty()) {
    if (eos_received_) {
      execute_scripts_upto(net::SimDuration{
          std::numeric_limits<std::int64_t>::max() / 2});
      enter_finished();
    } else {
      waiting_since_ = net_.now();  // underrun: wait for data
    }
    return;
  }
  net::SimTime due = unit_due(buffer_.front().pts);
  const net::SimTime now = net_.now();
  if (due < now) due = now;
  // `this` alone: ~Player cancels render_timer_, so it never fires late.
  render_timer_ = net_.schedule_at(due, [this] {
    render_timer_.reset();
    render_due();
  });
}

net::SimTime Player::unit_due(net::SimDuration pts) const {
  // Deadline on the local clock, mapped back to simulator (true) time. The
  // renderer compares in TRUE time throughout so clock-rate rounding cannot
  // livelock the timer loop. Playback rate scales media time to wall time.
  return net_.clock(host_).true_time(clock_.wall_at(pts));
}

void Player::render_due() {
  if (state_ != State::kPlaying) return;
  const net::SimTime now = net_.now();
  const net::SimTime now_local = local_now();

  while (!buffer_.empty() && unit_due(buffer_.front().pts) <= now) {
    const QueuedUnit meta = buffer_.front();
    buffer_.pop_front();
    const RenderEvent ev{meta.type, meta.stream_id, meta.pts, now};
    rendered_.push_back(ev);
    m_units_rendered_.inc();
    m_render_offset_us_.observe(now.us - meta.pts.us);
    if (render_start_pending_) {
      render_start_pending_ = false;
      flight_->emit_in(session_ctx_, obs::FlightType::kRenderStart, host_,
                       meta.pts.us, 0, content_);
    }
    if (observer_) observer_->on_render(ev);
    note_render_for_interactions(now);
  }
  execute_scripts_upto(clock_.media_at(now_local));
  arm_render_timer();
}

void Player::start_prefetch(const std::string& url) {
  prefetched_[url] = std::nullopt;  // in flight
  web_.call(cfg_.web_server, cfg_.web_port, "/" + url, {},
            [this, alive = alive_, url](net::Result<net::RpcReply> r) {
              if (!*alive || !r || r->status != 200) return;
              const net::SimTime now = net_.now();
              prefetched_[url] = now;
              // If the flip time already passed, the slide appears the
              // instant its bytes land.
              if (auto it = awaiting_display_.find(url);
                  it != awaiting_display_.end()) {
                record_slide(SlideEvent{url, it->second.first, now,
                                        now - it->second.second});
                awaiting_display_.erase(it);
              }
            });
}

void Player::show_slide(const std::string& url, net::SimDuration at) {
  const net::SimTime now = net_.now();
  if (cfg_.prefetch_slides) {
    auto it = prefetched_.find(url);
    if (it != prefetched_.end() && it->second.has_value()) {
      // Already in the browser cache: appears instantly.
      record_slide(SlideEvent{url, at, now, net::SimDuration{0}});
      return;
    }
    if (it != prefetched_.end()) {
      // Fetch still in flight: display when it lands.
      awaiting_display_[url] = {at, now};
      return;
    }
    // Never prefetched (e.g. landed via pending_slide_): fall through.
  }
  web_.call(cfg_.web_server, cfg_.web_port, "/" + url, {},
            [this, alive = alive_, asked = now, at, url](
                net::Result<net::RpcReply> r) {
              if (!*alive || !r || r->status != 200) return;
              const net::SimTime done = net_.now();
              record_slide(SlideEvent{url, at, done, done - asked});
            });
}

void Player::record_slide(SlideEvent ev) {
  m_slides_shown_.inc();
  m_slide_fetch_us_.observe(ev.fetch_latency.us);
  flight_->emit(obs::FlightType::kSlideShow, host_, ev.pts.us,
                ev.fetch_latency.us, ev.url);
  slides_.push_back(std::move(ev));
  if (observer_) observer_->on_slide(slides_.back());
}

void Player::execute_scripts_upto(net::SimDuration pos) {
  while (!scripts_.empty() && net::SimDuration{scripts_.begin()->first} <= pos) {
    auto node = scripts_.extract(scripts_.begin());
    for (auto& cmd : node.mapped()) {
      if (cmd.type == "SLIDE") {
        show_slide(cmd.param, cmd.at);
      } else if (cmd.type == "ANNOT") {
        annotations_.push_back(
            AnnotationEvent{cmd.param, cmd.at, net_.now()});
        flight_->emit(obs::FlightType::kAnnotation, host_, cmd.at.us, 0,
                      cmd.param);
        if (observer_) observer_->on_annotation(annotations_.back());
      }
    }
  }
}

void Player::note_render_for_interactions(net::SimTime t) {
  for (auto& ir : interactions_) {
    if (!ir.satisfied) {
      ir.first_render_after = t;
      ir.satisfied = true;
    }
  }
}

// --- user interactions ---------------------------------------------------------------

void Player::note_interaction(InteractionRecord::Kind kind,
                              obs::FlightType type, std::int64_t b,
                              net::SimDuration target) {
  // A pause needs no resync: it is satisfied the moment it is issued.
  interactions_.push_back(InteractionRecord{
      kind, net_.now(), target, net::SimTime::max(),
      kind == InteractionRecord::Kind::kPause});
  flight_->emit(type, host_, static_cast<std::int64_t>(session_), b);
  if (observer_) observer_->on_interaction(interactions_.back());
}

void Player::pause() {
  if (state_ != State::kPlaying && state_ != State::kBuffering) return;
  clock_.pause(position());
  note_interaction(InteractionRecord::Kind::kPause,
                   obs::FlightType::kSessionPause);
  if (cfg_.model == SyncModel::kEtpn) {
    // The extended model pauses the schedule in place.
    cancel_timer(render_timer_);
    waiting_since_.reset();
    send_verb(Ctl::kPause);
  } else {
    // OCPN/XOCPN have no pause transition: the only legal move is to tear
    // the pre-orchestrated playout down. Resume must restart from the top.
    send_session_stop();
    reset_stream();
  }
  state_ = State::kPaused;
}

void Player::resume() {
  if (state_ != State::kPaused) return;
  note_interaction(InteractionRecord::Kind::kResume,
                   obs::FlightType::kSessionResume);
  if (cfg_.model == SyncModel::kEtpn) {
    send_verb(Ctl::kResume);
    // Rebase the render clock and keep going with whatever is buffered.
    clock_.resume(local_now());
    state_ = State::kPlaying;
    render_start_pending_ = true;
    arm_render_timer();
  } else {
    reopen(server_, content_, resume_point(), Reopen::kReplay);
  }
}

void Player::seek(net::SimDuration to) {
  if (state_ == State::kIdle || state_ == State::kOpening || live_) return;
  note_interaction(InteractionRecord::Kind::kSeek,
                   obs::FlightType::kSessionSeek, to.us, to);
  if (cfg_.model == SyncModel::kEtpn) {
    ByteWriter args;
    args.i64(to.us);
    send_verb(Ctl::kSeek, args.bytes());
    // The jump lands on a far-away packet index: restart the receive state
    // or the gap would read as one enormous hole, and expect the server's
    // next stream epoch so stragglers are dropped.
    reset_stream();
    new_demuxer();
    discard_below_ = to;
    ++stream_epoch_;
    state_ = State::kBuffering;
  } else {
    send_session_stop();
    reopen(server_, content_, to, Reopen::kReplay);
  }
}

void Player::set_rate(double rate) {
  const std::uint32_t permille = proto::rate_permille(rate);
  if (permille == 0 || cfg_.model != SyncModel::kEtpn) return;
  // Quantized once: the render clock and the server pace at one rate.
  rate = static_cast<double>(permille) / 1000.0;
  clock_.set_rate(local_now(), rate);
  if (state_ != State::kPlaying && state_ != State::kPaused &&
      state_ != State::kBuffering) {
    return;
  }
  note_interaction(InteractionRecord::Kind::kRate,
                   obs::FlightType::kSessionRate, permille);
  // Faster playback needs a fatter pipe: renegotiate the QoS channel for
  // the scaled bit-rate (XOCPN's "channels according to the required QoS").
  // Mid-handshake there is no path to renegotiate on: adoption reserves at
  // this rate.
  if (!migration_inflight_) reserve_channel(rate);
  ByteWriter args;
  args.u32(permille);
  args.u32(channel_);
  send_verb(Ctl::kSetRate, args.bytes());
  if (state_ == State::kPlaying) arm_render_timer();
}

}  // namespace lod::streaming
