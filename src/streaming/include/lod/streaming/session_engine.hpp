#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lod/core/presentation_clock.hpp"
#include "lod/media/asf.hpp"
#include "lod/net/transport.hpp"
#include "lod/obs/hub.hpp"
#include "lod/streaming/protocol.hpp"

/// \file session_engine.hpp
/// The on-demand session engine shared by the origin `StreamingServer` and
/// the edge `EdgeNode`. Both speak one control protocol: the engine owns the
/// control endpoint and data socket, the session table, the session verbs
/// (play, pause, resume, seek, set-rate, repair, stop, time-sync), the
/// send-time pacer with its fast-start and QoS-channel cap, the LODD data
/// framing, end-of-stream, and the aggregate `lod.<role>.*` series. A role
/// derives from it and adds only where packets come from (a `PacketSource`
/// per content) and the verbs the engine hands back to it (describe, live
/// joins).

namespace lod::streaming {

/// A session's counters (`ServerMetrics::session`, `/debug/sessions`).
using obs::SessionStats;

/// Where a session's packets come from: a stored file at the origin, the
/// segment cache at an edge. The pacing table (header props, per-packet
/// send times, seek index) is plain data: the origin fills it at publish,
/// an edge from `/edge/meta`. `packet(i)` may miss; the engine then parks
/// the session with `park`, and the source's fill resumes it with
/// `SessionEngine::unpark` (or answers a parked repair with
/// `SessionEngine::resend`). Sources that never miss keep the defaults.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  media::asf::FileProperties props;  ///< preroll, bit-rate, packet size
  std::vector<std::int64_t> send_times_us;
  std::vector<media::asf::IndexEntry> index;

  std::uint32_t packet_count() const {
    return static_cast<std::uint32_t>(send_times_us.size());
  }
  net::SimDuration send_time(std::uint32_t i) const {
    return net::SimDuration{send_times_us[i]};
  }
  /// First packet to send for a start or seek at media time \p t.
  std::uint32_t seek(net::SimDuration t) const {
    return media::asf::seek_packet(index, t);
  }

  /// Serialized packet \p i (i < packet_count()), or nullptr on a miss.
  virtual const net::Payload* packet(std::uint32_t i) = 0;
  /// `packet(i)` missed on the pacing path: start or join the fill for
  /// \p i on behalf of \p session and return the token the fill will
  /// `unpark` it with.
  virtual std::uint32_t park(std::uint64_t /*session*/, std::uint32_t i,
                             const obs::TraceContext& /*ctx*/) {
    return i;
  }
  /// `packet(i)` missed for a repair: the fill resends it.
  virtual void park_repair(std::uint64_t /*session*/, std::uint32_t /*i*/) {}
  /// The playhead moved to packet \p i: by a jump (open, seek, adoption)
  /// or by one paced packet.
  virtual void playhead_moved(std::uint32_t /*i*/, bool /*jump*/) {}
};

/// One role's session table and control plane; roles derive from it.
class SessionEngine {
 public:
  using Message = net::ReliableEndpoint::Message;

  struct Counters {
    obs::Counter packets_sent;
    obs::Counter bytes_sent;
    obs::Counter repairs;
    obs::Counter sessions_opened;
    obs::Gauge active_sessions;
  };

  struct Session {
    std::uint64_t id{};
    net::HostId client{};
    net::Port client_ctl_port{};
    net::Port data_port{};
    net::ChannelId channel{0};
    PacketSource* source{nullptr};  ///< null for a live session
    /// Trace context of the request that opened the session; demand fills
    /// on its behalf parent their spans here.
    obs::TraceContext ctx;
    std::uint32_t next_packet{0};
    std::uint64_t next_seq{0};
    std::uint32_t epoch{0};  ///< stream discontinuity counter (seeks)
    bool paused{false};
    /// Set while parked on a fill; a seek clears it, so a stale fill
    /// completing later cannot double-schedule the session.
    std::optional<std::uint32_t> parked;
    /// Pacing clock: send time <-> transport time at the playback speed.
    core::PresentationClock clock;
    net::SimTime last_send{};  ///< burst-rate limiter state
    /// The instant the pacing timer was armed for. It becomes `last_send`
    /// when the timer fires, so a late timer does not push back the rest
    /// of the burst.
    net::SimTime timer_due{};
    std::optional<net::EventId> timer;
    SessionStats stats;
  };

  /// How a session starts: a kPlay, or a session a failing-over player
  /// shipped over `/edge/migrate` (`adopted`).
  struct Start {
    std::string content;
    net::HostId client{};
    net::Port client_ctl_port{};
    net::Port client_data_port{};
    net::ChannelId channel{0};
    /// First packet to send; u32::max derives it from `position`.
    std::uint32_t resume_index{std::numeric_limits<std::uint32_t>::max()};
    net::SimDuration position{};
    std::uint32_t epoch{0};
    double rate{1.0};
    bool paused{false};
    bool adopted{false};
    obs::TraceContext ctx;
  };

  /// Binds \p control_port and control_port + 1 on \p host. \p role names
  /// the series (`lod.<role>.*`), spans (`<role>.open`) and the engine's
  /// `/debug/sessions` rows, listed through the transport's `obs::Hub`.
  SessionEngine(net::Transport& net, net::HostId host, net::Port control_port,
                double fast_start_multiplier, std::string role);
  /// Cancels every pending pacing timer (they capture `this`) and leaves
  /// the hub's session listing.
  virtual ~SessionEngine();
  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  /// Fast-start burst rate as a multiple of the content bit-rate (>= 1).
  void set_fast_start_multiplier(double m) { fast_start_multiplier_ = m; }

  /// Open a session whose verbs and pacing the caller drives (live).
  Session& open(net::HostId client, net::Port client_ctl_port,
                net::Port data_port, PacketSource* src,
                const obs::TraceContext& ctx = {});
  /// Open a session on \p src as \p st says and pace it unless paused. A
  /// kPlay is answered with kPlayOk; an adoption's reply is the caller's.
  Session& start(PacketSource& src, const Start& st);
  /// End \p s: gauge, trace, timer, and erase it from the table (\p s
  /// dangles afterwards).
  void end(Session& s);

  /// A fill for \p token landed: resume \p session if it is parked on it.
  void unpark(std::uint64_t session, std::uint32_t token);
  /// Out-of-band resend of packet \p idx (a repair) to \p session.
  void resend(std::uint64_t session, std::uint32_t idx,
              const net::Payload& bytes);
  /// One data datagram: the per-send frame header plus \p bytes as a
  /// shared body, so no session ever copies the serialized packet.
  void send_packet(Session& s, const net::Payload& bytes,
                   std::uint32_t packet_index);
  /// kEndOfStream with \p total packets (the client's repair horizon).
  void send_eos(const Session& s, std::uint32_t total);
  void reply(net::HostId h, net::Port p, std::vector<std::byte> payload);
  void send_error(net::HostId h, net::Port p, const std::string& msg);

  Session* find(std::uint64_t id);
  const Session* find(std::uint64_t id) const;
  const Counters& counters() const { return counters_; }
  net::HostId host() const { return host_; }
  std::size_t active_sessions() const {
    return static_cast<std::size_t>(counters_.active_sessions.value());
  }

 protected:
  net::Transport& net_;
  net::HostId host_;
  obs::FlightRecorder* flight_;

 private:
  /// The source a kPlay of \p name reads, or nullptr to refuse it.
  virtual PacketSource* play_source(const std::string& name) = 0;
  /// Every verb the engine does not dispatch itself.
  virtual void handle_verb(proto::Ctl /*tag*/, net::ByteReader& /*r*/,
                           const Message& /*m*/) {}

  void handle_control(const Message& m);
  /// An open session reading a source (not live), or nullptr.
  Session* playable(std::uint64_t id);
  /// Jump to \p packet and pace from it as of now.
  void anchor(Session& s, std::uint32_t packet);
  void cancel_timer(Session& s);
  /// A session event on the journal's trace lane, when tracing is on.
  void trace(obs::FlightType type, const Session& s, std::int64_t b = 0);
  void schedule_next(Session& s);
  void fire(Session& s);

  double fast_start_multiplier_;
  std::string role_;
  net::ReliableEndpoint ctl_;
  net::DatagramSocket data_;
  Counters counters_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_{1};
};

}  // namespace lod::streaming
