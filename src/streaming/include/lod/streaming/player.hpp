#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lod/core/presentation_clock.hpp"
#include "lod/media/asf.hpp"
#include "lod/media/drm.hpp"
#include "lod/net/transport.hpp"
#include "lod/streaming/protocol.hpp"
#include "lod/streaming/render_log.hpp"
#include "lod/streaming/render_queue.hpp"
#include "lod/streaming/selector.hpp"

/// \file player.hpp
/// The media player / browser plug-in stand-in.
///
/// "Using the browser with the windows media services allows those students
/// to view live video of the teacher giving his speech, along with
/// synchronized images of his presentation slides and all the annotations."
///
/// The player receives ASF packets over datagrams, reassembles access units,
/// buffers until preroll, renders on a local-clock schedule, executes script
/// commands (fetching slides from the web server exactly when a SLIDE
/// command's presentation time is reached), and records everything it did —
/// which is what the figures' and claims' benches measure.
///
/// The `SyncModel` selects which synchronization discipline the player uses,
/// operationalizing the paper's three-way comparison:
///
///  - kOcpn  — pre-orchestrated playout only. Local unsynchronized clock,
///             best-effort transport, and NO live schedule changes: pause /
///             seek are implemented the only way the base model allows,
///             restarting the presentation from the top.
///  - kXocpn — kOcpn plus a QoS channel reserved for the stream (the
///             client asks the network for the content's bit-rate), so cross
///             traffic cannot stall it. Still no user interactions, still an
///             unsynchronized clock.
///  - kEtpn  — the paper's extended model: reserved channel, NTP-style clock
///             synchronization against the server, and native pause / resume
///             / seek / rate handled mid-stream by the server session.

namespace lod::streaming {

enum class SyncModel : std::uint8_t { kOcpn, kXocpn, kEtpn };

std::string to_string(SyncModel m);

/// Player construction options.
struct PlayerConfig {
  SyncModel model{SyncModel::kEtpn};
  net::Port ctl_port{5000};
  net::Port data_port{5001};
  /// The serving site's control port. The paper-era default (554, RTSP's
  /// homage) is privileged on real kernels; real-backend deployments point
  /// this at an unprivileged port instead of hard-wiring the well-known one.
  net::Port server_port{proto::kControlPort};
  /// The web server's RPC port for slide fetches.
  net::Port web_port{proto::kWebPort};
  /// Buffer this much media before starting (<=0: use the header's preroll).
  net::SimDuration preroll_override{-1};
  /// ETPN only: how often to re-run clock synchronization.
  net::SimDuration clock_sync_interval{net::sec(30)};
  /// Who is watching (DRM license subject).
  std::string user{"student"};
  /// Where slides are fetched from when SLIDE script commands fire.
  net::HostId web_server{0};
  /// Safety factor on the reserved channel rate (XOCPN/ETPN).
  double channel_headroom{1.25};
  /// Fetch slide images as soon as their SLIDE command is demuxed (ahead of
  /// its presentation time) instead of at flip time. An extension over the
  /// paper's browser behaviour; the A2 ablation bench quantifies the win.
  bool prefetch_slides{false};
  /// Selective repair (ETPN only): when a datagram gap is detected, NACK the
  /// missing file packets over the control channel. With a multi-second
  /// preroll the repair usually lands before the media is due.
  bool repair_losses{false};
  /// Absolutely scheduled presentation: render media position p at master
  /// wall time `*scheduled_start + p`, interpreted ON THE LOCAL CLOCK. This
  /// is the distributed-presentation mode where clock quality matters: an
  /// ETPN player's synchronized clock tracks the master, an OCPN player's
  /// raw clock shifts the whole rendering by its offset.
  std::optional<net::SimTime> scheduled_start;
  /// The session watchdog's starvation policy (selector-driven sessions):
  /// how long the stream may be starved (no packets while opening/buffering,
  /// or stalled while playing) before the player abandons the site and
  /// reopens at the selector's next pick. <= 0 disables that policy.
  net::SimDuration failover_timeout{net::msec(2000)};
  /// How often the one session watchdog samples progress. It serves both of
  /// its policies: starvation failover (selector sessions) and downshift
  /// after repeated stalls (sessions opened on a rendition ladder). Other
  /// sessions run no watchdog.
  net::SimDuration failover_check_interval{net::msec(500)};
  /// Selector-driven sessions only: on a watchdog failover, freeze the
  /// session and ship a state image to the selector's next pick over the
  /// `/edge/migrate` RPC instead of re-describing from scratch. The player
  /// keeps rendering from its jitter buffer during the handshake; a replica
  /// that cannot adopt (cold meta, pre-migration build, no reply before the
  /// next watchdog timeout) falls back to the re-describe reopen. Not
  /// applicable to live joins.
  bool migrate_on_failover{false};
  /// Send the session STOP automatically the moment playback finishes,
  /// instead of waiting for an explicit stop(). Off by default — the paper's
  /// player (and the existing benches) hold the session open until the user
  /// closes it — but load harnesses driving thousands of scripted sessions
  /// (see lod::LoadGen) switch it on so server/edge session state drains as
  /// sessions complete and the event queue can run dry.
  bool auto_stop_on_finish{false};
};

/// A slide made visible by a SLIDE script command.
struct SlideEvent {
  std::string url;
  net::SimDuration pts;          ///< when the flip was scheduled in the media
  net::SimTime shown_true;       ///< when it actually appeared on screen
  net::SimDuration fetch_latency;
};

/// An annotation surfaced by an ANNOT script command.
struct AnnotationEvent {
  std::string text;
  net::SimDuration pts;
  net::SimTime shown_true;
};

/// A playback stall (buffer underrun): rendering resumed `duration` late.
struct StallEvent {
  net::SimTime at;
  net::SimDuration duration;
};

/// A user interaction and how long the player took to show media again.
struct InteractionRecord {
  enum class Kind : std::uint8_t { kPause, kResume, kSeek, kRate };
  Kind kind;
  net::SimTime at;
  net::SimDuration target;       ///< seek target (kSeek only)
  net::SimTime first_render_after{net::SimTime::max()};
  bool satisfied{false};

  net::SimDuration resync_latency() const {
    return satisfied ? first_render_after - at : net::SimDuration{-1};
  }
};

/// The render-timeline portion of a player's state, as replicated across
/// sites by `src/sync`: the render `core::PresentationClock`'s four fields
/// (pts `media_us` is on screen at local instant `wall_us`, the paused
/// position, the rate) and the reorder-buffer cursor. Deliberately EXCLUDES
/// the session lifecycle — state machine, serving site, buffered media —
/// because sync repairs where the playhead is, not what the session is doing.
struct PlayerSyncCursor {
  std::int64_t media_us{0};
  std::int64_t wall_us{0};
  std::int64_t paused_at_us{0};
  double rate{1.0};
  std::int64_t next_feed{-1};
  std::int64_t highest_index{-1};
  std::uint32_t stream_epoch{0};
};

/// The reorder-buffer half of the receive pipeline (repair mode): every
/// packet held waiting for a hole to fill, plus the feed cursor — what a
/// migrated session needs so outstanding repairs survive the move.
struct PlayerReorderSnapshot {
  /// index -> serialized packet bytes, ascending index.
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> held;
  std::int64_t next_feed{-1};
  std::int64_t repair_total{-1};
  bool eos_received{false};
};

/// Pending NACK/repair bookkeeping: which file packets have landed and how
/// many NACK attempts each outstanding hole has burned. Sorted, so the
/// serialized form is deterministic across sites.
struct PlayerRepairSnapshot {
  std::vector<std::uint32_t> received;  ///< ascending
  std::vector<std::pair<std::uint32_t, std::uint8_t>> nacks;  ///< by index
  std::int64_t highest_index{-1};
  std::int64_t max_index_seen{-1};
  std::uint64_t repairs_requested{0};
  std::uint64_t repairs_received{0};
};

/// Slide-cache references: which slide URLs are fully prefetched. In-flight
/// fetches are deliberately absent — a fetch is not state until it lands,
/// and the restored session simply re-fetches on demand.
struct PlayerSlideCacheSnapshot {
  std::vector<std::string> cached;  ///< sorted
};

/// Subscriber interface for the player's typed events: the uniform
/// replacement for scraping the record vectors. All callbacks default to
/// no-ops; override what you need. Events fire synchronously at the moment
/// they happen in simulation time.
class PlayerObserver {
 public:
  virtual ~PlayerObserver() = default;
  virtual void on_render(const RenderEvent&) {}
  virtual void on_slide(const SlideEvent&) {}
  virtual void on_annotation(const AnnotationEvent&) {}
  virtual void on_stall(const StallEvent&) {}
  /// Fired when the interaction is issued (before it is satisfied).
  virtual void on_interaction(const InteractionRecord&) {}
  virtual void on_finished() {}
};

/// The player.
class Player {
 public:
  /// \p drm is the license authority (nullable for unprotected content);
  /// the player asks it for a license at open time, as "rendering" requires.
  Player(net::Transport& net, net::HostId host, PlayerConfig cfg,
         media::DrmSystem* drm = nullptr);
  ~Player();
  Player(const Player&) = delete;
  Player& operator=(const Player&) = delete;

  // --- session ------------------------------------------------------------------

  /// DESCRIBE + (if protected) license acquisition + (XOCPN/ETPN) channel
  /// reservation + (ETPN) first clock sync; then PLAY from \p from.
  void open_and_play(net::HostId server, std::string content,
                     net::SimDuration from = {});

  /// Like `open_and_play`, but the serving site comes from \p sel (the edge
  /// tier's delay-aware replica selection). The player feeds measured
  /// DESCRIBE and TIMESYNC round trips back into the selector, and a
  /// progress watchdog reopens the session at `sel.failover_from(site)` if
  /// the site stops responding. \p sel must outlive the session.
  void open_and_play_via(SiteSelector& sel, std::string content,
                         net::SimDuration from = {});

  /// Adaptive streaming: \p renditions names one lecture at descending
  /// bit-rates. Plays the first from \p server; after repeated stalls the
  /// watchdog's downshift policy reopens the next one down, on this same
  /// session, at `resume_point()`. Downshift only — upshift probing needs
  /// bandwidth estimation the paper-era clients did not have.
  void open_and_play_ladder(net::HostId server,
                            std::vector<std::string> renditions,
                            net::SimDuration from = {});

  /// Arrange an absolutely scheduled start (see PlayerConfig::scheduled_start).
  /// Must be called before rendering begins.
  void set_scheduled_start(net::SimTime master_start) {
    cfg_.scheduled_start = master_start;
  }

  /// Join a live broadcast channel.
  void join_live(net::HostId server, std::string name);

  /// User interactions (see SyncModel semantics above).
  void pause();
  void resume();
  void seek(net::SimDuration to);
  /// Playback speed (ETPN only), rounded to whole permille: the server
  /// re-paces the session and the render clock runs at that one rate. A no-op
  /// for a rate that rounds to 0 permille or overflows a u32, and OCPN/XOCPN.
  void set_rate(double rate);
  double rate() const { return clock_.rate(); }

  /// Tear the session down.
  void stop();

  // --- state ---------------------------------------------------------------------

  bool playing() const { return state_ == State::kPlaying; }
  bool buffering() const { return state_ == State::kBuffering; }
  bool finished() const { return state_ == State::kFinished; }
  bool paused_state() const { return state_ == State::kPaused; }
  /// Current media position per the render clock.
  net::SimDuration position() const;

  /// Export the render-timeline state for sync-layer replication.
  PlayerSyncCursor sync_cursor() const;

  /// Install a replicated cursor. While playing, the player immediately
  /// rolls forward through buffered script commands up to the restored
  /// position (the catch-up half of a resync) and re-arms the renderer on
  /// the restored timeline; in any other state the fields land silently and
  /// take effect when rendering (re)starts.
  void restore_sync_cursor(const PlayerSyncCursor& c);

  // --- observability (what the benches read) ---------------------------------------

  /// Subscribe to typed events (nullptr unsubscribes). The observer must
  /// outlive the player or be reset before destruction. Registry series
  /// (`lod.player.*{host}`) are published regardless of any observer.
  void set_observer(PlayerObserver* obs) { observer_ = obs; }
  PlayerObserver* observer() const { return observer_; }

  const RenderLog& rendered() const { return rendered_; }
  const std::vector<SlideEvent>& slides() const { return slides_; }
  const std::vector<AnnotationEvent>& annotations() const { return annotations_; }
  const std::vector<StallEvent>& stalls() const { return stalls_; }
  const std::vector<InteractionRecord>& interactions() const {
    return interactions_;
  }
  /// From PLAY issued to first unit rendered.
  net::SimDuration startup_delay() const { return startup_delay_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t units_rendered() const { return rendered_.size(); }
  std::uint64_t units_lost() const { return units_lost_; }
  std::uint64_t repairs_requested() const { return repairs_requested_; }
  std::uint64_t repairs_received() const { return repairs_received_; }
  bool drm_blocked() const { return drm_blocked_; }
  /// Last measured clock offset correction (ETPN), for diagnostics.
  net::SimDuration last_clock_correction() const { return last_correction_; }
  /// The site this session is (or was last) served from.
  net::HostId current_server() const { return server_; }
  /// Times the watchdog abandoned a site and reopened elsewhere.
  std::uint64_t failovers() const { return failovers_; }
  /// Times a failover moved the session via the migration handshake
  /// (subset of failovers(); the rest re-described from scratch).
  std::uint64_t migrations() const { return migrations_; }
  /// One downshift: when, the position the lower rendition resumed at, and
  /// whether the higher one was stalled at the time.
  struct Downshift {
    net::SimTime at;
    net::SimDuration position;
    bool stalled{false};
  };
  /// This session's downshifts; the i-th went from rendition i to i + 1.
  const std::vector<Downshift>& downshifts() const { return downshifts_; }
  /// Index into the rendition ladder of what is playing (0 without one).
  std::size_t rendition() const { return rendition_; }
  /// The content this session is (or was last) playing.
  const std::string& content() const { return content_; }
  /// The server-side session id (0 before kPlayOk).
  std::uint64_t session_id() const { return session_; }

  // --- session snapshot (sync/migration surfaces) ----------------------------------

  /// Export / restore the reorder-buffer contents (held packets + cursors).
  PlayerReorderSnapshot reorder_snapshot() const;
  /// Installing a snapshot drains whatever became contiguous and re-arms the
  /// hole timer, exactly as if the held packets had just arrived.
  void restore_reorder(const PlayerReorderSnapshot& s);

  /// Export / restore the NACK/repair bookkeeping.
  PlayerRepairSnapshot repair_snapshot() const;
  void restore_repair(const PlayerRepairSnapshot& s);

  /// Export / restore completed slide-cache references. Restore stamps each
  /// URL as cached "now" — latency history does not migrate.
  PlayerSlideCacheSnapshot slide_cache_snapshot() const;
  void restore_slide_cache(const PlayerSlideCacheSnapshot& s);

  /// The session's trace identity, for freezing alongside the media state so
  /// a restored session keeps emitting spans under the original root.
  const obs::TraceContext& session_context() const { return session_ctx_; }
  std::uint64_t session_root_span() const { return session_span_; }
  /// Adopt a frozen trace identity instead of minting a fresh one. The next
  /// shared-path open reuses it (no new "player.session" root).
  void restore_session_trace(std::uint64_t trace_id, std::uint64_t root_span);

  /// Migration seam: called at failover time (migrate_on_failover only) to
  /// produce the state image shipped in the `/edge/migrate` body. Installed
  /// by the sync layer (`lod::sync::attach_migration_image`); without one
  /// the handshake ships an empty image (cursor-only resume).
  void set_session_image_provider(
      std::function<std::vector<std::byte>()> provider) {
    image_provider_ = std::move(provider);
  }

 private:
  enum class State : std::uint8_t {
    kIdle, kOpening, kBuffering, kPlaying, kPaused, kFinished
  };

  /// How a reopen obtains its new stream.
  enum class Reopen : std::uint8_t {
    kDescribe,  ///< DESCRIBE at the site, then PLAY (or JOIN a live channel)
    kMigrate,   ///< ship the session over `/edge/migrate`; DESCRIBE on refusal
    kReplay,    ///< same site and header: PLAY from the top (OCPN/XOCPN)
  };
  /// `resume_at` of a live join.
  static constexpr net::SimDuration kLiveJoin{-1};
  /// Downshift once this many stalls hit one rendition.
  static constexpr std::size_t kDownshiftStalls = 2;

  /// Shared start of every user-facing open: the selector and rendition
  /// ladder this session uses (either may be empty) and its trace.
  void begin_session(SiteSelector* sel, std::vector<std::string> renditions);
  /// Mint the per-session trace + root span (user-facing opens only; a
  /// reopen stays inside the original session's trace).
  void begin_session_trace();
  /// The one way a session moves to a new stream: user opens, live joins,
  /// failover, the migration handshake and its fallback, OCPN restarts and
  /// downshifts all end here. Drops the old stream's receive state and plays
  /// \p content at \p site from \p resume_at (kLiveJoin: join live).
  void reopen(net::HostId site, std::string content,
              net::SimDuration resume_at, Reopen how = Reopen::kDescribe);
  /// The one resume rule of a reopen: never before the pending open/seek
  /// target; the last rendered pts + 1 µs while stalled; `position()` while
  /// playing or paused.
  net::SimDuration resume_point() const;
  /// Drop the buffered media, scripts and receive bookkeeping of the current
  /// stream position (a reopen and an in-session seek).
  void reset_stream();
  /// The one Demuxer construction: fresh reassembly state over `header_`,
  /// licensed when the content is protected.
  void new_demuxer();
  /// XOCPN/ETPN: hold a QoS channel from the serving site sized to the
  /// content's bit-rate at playback \p rate (resized in place when held).
  void reserve_channel(double rate);
  void release_channel();
  /// (Re)start the session watchdog if a policy applies; \p restart resets
  /// its starvation baseline.
  void arm_watchdog(bool restart = true);
  void watchdog_tick();
  /// Starvation policy: abandon the site, reopen at the selector's next pick.
  void do_failover();
  /// Downshift policy: reopen the next rendition down on this session.
  void downshift();
  /// Freeze the session and ship its image to \p next over `/edge/migrate`;
  /// on any failure fall back to the re-describe reopen.
  void start_migration(net::HostId next, net::SimDuration resume_at);
  /// Adopt the replica's session (200 reply): swap the serving site without
  /// touching the jitter buffer or the render clock, then replay held verbs.
  void complete_migration(net::HostId next, std::uint64_t session_id);
  /// The one builder for session-scoped control frames: \p tag, \p session,
  /// then \p args, to \p site's control port.
  void send_ctl(net::HostId site, proto::Ctl tag, std::uint64_t session,
                std::span<const std::byte> args = {});
  /// A user verb for the current session. Held while a migration handshake
  /// is in flight and replayed to the adopted session.
  void send_verb(proto::Ctl tag, std::span<const std::byte> args = {});
  void handle_control(const net::ReliableEndpoint::Message& m);
  void handle_data(const net::Datagram& p);
  /// Terminal decode: feed serialized packet bytes to the demuxer (dropping
  /// malformed input) and push its units through the buffering state
  /// machine. Only unit metadata is kept, so media bytes are never copied.
  void ingest_bytes(const net::Payload& bytes);
  /// Drain the reordering buffer's contiguous prefix into ingest_bytes().
  void drain_reorder();
  /// NACK every missing index in [first, last) with attempts remaining.
  void request_repair(std::uint32_t first, std::uint32_t last);
  /// Arm the give-up/re-NACK timer for the current head-of-line hole.
  void arm_hole_timer();
  /// Handle end-of-stream, deferring while repairs are still outstanding.
  void handle_eos();
  void on_described(std::span<const std::byte> header_bytes);
  void send_play(net::SimDuration from);
  void run_clock_sync();
  void maybe_start_rendering();
  void arm_render_timer();
  void render_due();
  void execute_scripts_upto(net::SimDuration pos);
  void start_prefetch(const std::string& url);
  void show_slide(const std::string& url, net::SimDuration at);
  /// Single funnel for slide visibility: records, measures, notifies.
  void record_slide(SlideEvent ev);
  /// Record, trace (with \p b) and announce a user interaction.
  void note_interaction(InteractionRecord::Kind kind, obs::FlightType type,
                        std::int64_t b = 0, net::SimDuration target = {});
  void note_render_for_interactions(net::SimTime t);
  net::SimTime local_now() const;
  void cancel_timer(std::optional<net::EventId>& timer);
  net::SimDuration effective_preroll() const;
  /// Tell the serving site this session is over (kStop / kLeaveLive), once.
  void send_session_stop();
  /// Close the phase span \p span (if open) under the session.
  void end_phase(std::uint64_t& span, const char* name, std::int64_t a = 0);
  /// Transition to kFinished and cancel all periodic timers.
  void enter_finished();
  /// True-time instant at which the unit with presentation time \p pts is due.
  net::SimTime unit_due(net::SimDuration pts) const;

  net::Transport& net_;
  net::HostId host_;
  PlayerConfig cfg_;
  media::DrmSystem* drm_;
  net::ReliableEndpoint ctl_;
  net::DatagramSocket data_;
  net::RpcClient web_;

  State state_{State::kIdle};
  net::HostId server_{0};
  SiteSelector* selector_{nullptr};
  /// Rendition ladder (adaptive sessions), highest bit-rate first.
  std::vector<std::string> ladder_;
  std::size_t rendition_{0};
  std::size_t stalls_at_switch_{0};  ///< stalls_.size() at the last switch
  std::vector<Downshift> downshifts_;
  std::string content_;
  std::uint64_t session_{0};
  bool live_{false};
  media::asf::Header header_;
  std::unique_ptr<media::asf::Demuxer> demux_;
  std::optional<media::License> license_;
  net::ChannelId channel_{0};

  /// Render clock on local time; frozen from pause() until rendering restarts.
  core::PresentationClock clock_;
  RenderQueue buffer_;
  std::map<std::int64_t, std::vector<media::asf::ScriptCommand>> scripts_;
  std::optional<media::asf::ScriptCommand> pending_slide_;
  /// Prefetch bookkeeping: url -> completion instant (nullopt = in flight).
  std::unordered_map<std::string, std::optional<net::SimTime>> prefetched_;
  /// Slides whose flip time passed while their prefetch was still in flight.
  std::unordered_map<std::string, std::pair<net::SimDuration, net::SimTime>>
      awaiting_display_;
  net::SimDuration discard_below_{-1};  ///< drop units below this pts (seek)
  bool expected_seq_reset_{true};
  /// Repair bookkeeping: highest file-packet index seen and the set already
  /// received (dedup for repaired packets) / already NACKed.
  std::int64_t highest_index_{-1};
  std::unordered_set<std::uint32_t> received_index_;
  std::unordered_map<std::uint32_t, std::uint8_t> nack_attempts_;
  std::int64_t repair_total_{-1};  ///< file packet count (from EOS)
  int eos_deferrals_{0};
  std::uint32_t stream_epoch_{0};  ///< expected discontinuity counter
  std::uint64_t repairs_requested_{0};
  std::uint64_t repairs_received_{0};
  /// Reordering buffer (repair mode): packets held until holes fill or the
  /// per-hole give-up timer fires, so the demuxer always sees in-order
  /// input. Holds refcounted views of the received datagrams' bodies —
  /// parsing waits until drain, so a held packet costs no byte copy.
  std::map<std::uint32_t, net::Payload> reorder_;
  std::int64_t next_feed_{-1};
  bool eos_received_{false};
  std::optional<net::EventId> render_timer_;
  std::optional<net::EventId> sync_timer_;
  std::optional<net::EventId> failover_timer_;
  std::uint64_t watchdog_last_packets_{0};
  net::SimTime watchdog_stuck_since_{};
  net::SimTime describe_sent_{};
  std::uint64_t failovers_{0};
  std::uint64_t migrations_{0};
  /// Migration handshake state: one RPC in flight at most; the token
  /// invalidates a stale reply after a newer failover superseded it.
  bool migration_inflight_{false};
  std::uint64_t migration_token_{0};
  net::HostId migration_target_{0};
  /// User verbs issued during the handshake, for the adopted session.
  std::vector<std::pair<proto::Ctl, std::vector<std::byte>>> held_verbs_;
  /// Lazily bound on first migration so migration-free runs publish no
  /// `lod.player.migrations` series (keeps the sim-transport golden stable).
  obs::Counter m_migrations_;
  std::function<std::vector<std::byte>()> image_provider_;
  /// Set by restore_session_trace: the next begin_session_trace keeps the
  /// adopted identity instead of minting a fresh root.
  bool adopted_trace_{false};
  /// Highest file-packet index ever ingested this epoch (unlike
  /// highest_index_, which only tracks repair-mode gap detection) — the
  /// migration handshake resumes the new replica at max_index_seen_ + 1.
  std::int64_t max_index_seen_{-1};
  std::optional<net::SimTime> waiting_since_;  ///< in a stall since then
  net::SimTime play_issued_{};
  net::SimDuration startup_delay_{-1};

  RenderLog rendered_;
  std::vector<SlideEvent> slides_;
  std::vector<AnnotationEvent> annotations_;
  std::vector<StallEvent> stalls_;
  std::vector<InteractionRecord> interactions_;
  PlayerObserver* observer_{nullptr};
  obs::FlightRecorder* flight_{nullptr};
  /// Causal tracing: one trace per user-facing session, rooted at a
  /// "player.session" span; the context rides the control protocol so the
  /// serving site's spans link under ours. Invalid (all no-op) when
  /// tracing is off at open time.
  obs::TraceContext session_ctx_;
  std::uint64_t session_span_{0};   ///< "player.session" root span
  std::uint64_t describe_span_{0};  ///< reopen -> kDescribeOk
  std::uint64_t startup_span_{0};   ///< kPlayIssued -> rendering starts
  std::uint64_t failover_span_{0};  ///< do_failover -> rendering resumes
  obs::Counter m_packets_received_;
  obs::Counter m_units_rendered_;
  obs::Counter m_units_lost_;
  obs::Counter m_stalls_;
  obs::Counter m_slides_shown_;
  obs::Counter m_repairs_requested_;
  obs::Counter m_failovers_;
  obs::Histogram m_startup_us_;
  obs::Histogram m_stall_us_;
  obs::Histogram m_slide_fetch_us_;
  /// Per-unit (true render instant - pts): the cross-host spread of this
  /// series is the distributed-presentation skew the C1 bench measures.
  obs::Histogram m_render_offset_us_;
  bool render_start_pending_{false};
  std::uint64_t packets_received_{0};
  std::uint64_t units_lost_{0};
  std::uint64_t last_seq_{0};
  bool drm_blocked_{false};
  net::SimDuration last_correction_{};
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace lod::streaming
