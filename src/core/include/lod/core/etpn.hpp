#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "lod/core/presentation_clock.hpp"
#include "lod/core/timed.hpp"
#include "lod/net/transport_base.hpp"

/// \file etpn.hpp
/// The paper's extended timed Petri net: interactive playout.
///
/// §1: OCPN/XOCPN "do not deal with the schedule change caused by user
/// interactions in interactive multimedia systems". The extension modeled
/// here treats user interactions as external control transitions that rewrite
/// the timing state of every in-flight token:
///
///   - pause   — freeze all maturing tokens (remaining durations preserved),
///   - resume  — continue from the frozen state,
///   - seek    — rewrite the marking to what it would have been at the target
///               presentation instant,
///   - rate    — scale all remaining durations (fast/slow motion).
///
/// Implementation: the net's deterministic schedule is computed once with
/// play() (presentation/media time); the engine then keeps the piecewise
/// affine wall-clock <-> media-clock map those control transitions induce in
/// a `PresentationClock` and drives callbacks through the transport's timers
/// (simulated or real). This is equivalent
/// to token-level rewriting for the deterministic nets the builders emit, and
/// it is what an actual renderer needs: *when, on the wall clock, does each
/// media object start and stop*.

namespace lod::core {

/// An interactive, wall-clock playout of a timed Petri net.
class InteractivePlayout {
 public:
  /// Fired when a media-bound place starts or stops presenting.
  /// \p media_pos is the presentation-time position of the event.
  using MediaCallback = std::function<void(PlaceId, const MediaBinding&,
                                           bool started, SimDuration media_pos)>;

  /// A media presentation episode in wall time. `complete` is false when the
  /// episode was cut short (seek away, or still open at inspection time).
  struct WallEpisode {
    PlaceId place{};
    SimDuration media_start{};  ///< media position when rendering began
    SimTime wall_start{};
    SimTime wall_end{};
    bool complete{false};
  };

  /// One user interaction, for audit/benches.
  struct Interaction {
    enum class Kind : std::uint8_t { kStart, kPause, kResume, kSeek, kRate };
    Kind kind;
    SimTime wall;
    SimDuration media;
    double rate;
  };

  InteractivePlayout(net::Transport& transport, const TimedPetriNet& net,
                     const Marking& initial);
  ~InteractivePlayout();
  InteractivePlayout(const InteractivePlayout&) = delete;
  InteractivePlayout& operator=(const InteractivePlayout&) = delete;

  void on_media(MediaCallback cb) { callback_ = std::move(cb); }

  /// Begin playout at the transport's current instant. No-op if started.
  void start();

  /// Freeze. No-op when already paused or not started.
  void pause();
  /// Continue after pause. No-op unless paused.
  void resume();
  /// Jump to presentation position \p media_t (clamped to [0, makespan]).
  /// Active objects not active at the target stop; newly active ones start.
  /// Works both paused and playing.
  void seek(SimDuration media_t);
  /// Playback speed; must be > 0. 2.0 = double speed.
  void set_rate(double rate);

  bool started() const { return started_; }
  bool paused() const { return clock_.paused(); }
  bool finished() const { return finished_; }
  double rate() const { return clock_.rate(); }

  /// Current presentation position.
  SimDuration media_now() const;
  /// Total presentation length per the static schedule.
  SimDuration makespan() const { return trace_.makespan; }

  /// The precomputed media-time schedule.
  const PlayoutTrace& schedule() const { return trace_; }
  /// Everything rendered so far, in wall time.
  const std::vector<WallEpisode>& episodes() const { return episodes_; }
  const std::vector<Interaction>& interactions() const { return interactions_; }

  /// Places presenting at the current instant.
  std::vector<PlaceId> active_places() const;

 private:
  struct Event {
    SimDuration at;      // media time
    std::uint32_t interval;  // index into trace_.intervals (media-bound only)
    bool is_start;
  };

  void build_events();
  void cancel_timer();
  void arm_timer();
  void fire_due_events();
  void emit_start(std::uint32_t interval, SimDuration media_pos);
  void emit_end(std::uint32_t interval, SimDuration media_pos, bool complete);
  void log(Interaction::Kind k);

  net::Transport& transport_;
  const TimedPetriNet& net_;
  PlayoutTrace trace_;
  std::vector<Event> events_;
  std::size_t cursor_{0};

  bool started_{false};
  bool finished_{false};
  PresentationClock clock_;

  std::optional<net::EventId> timer_;
  MediaCallback callback_;
  std::unordered_set<std::uint32_t> active_;  // interval indices now rendering
  std::vector<std::uint32_t> open_episode_;   // interval -> episodes_ index+1
  std::vector<WallEpisode> episodes_;
  std::vector<Interaction> interactions_;
};

}  // namespace lod::core
