#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "lod/net/time.hpp"

/// \file presentation_clock.hpp
/// The ETPN's timing state: one wall<->media map that pause, resume, seek,
/// rate and a stall re-anchor, at the caller's `now` (it reads no clock).
/// Readings truncate toward zero from the anchor; `wall_until` rounds up,
/// so a timer armed with it never fires early.

namespace lod::core {

class PresentationClock {
 public:
  PresentationClock() = default;
  /// A running clock from its four fields (see the accessors).
  PresentationClock(net::SimTime wall, net::SimDuration media,
                    net::SimDuration paused_at, double rate)
      : wall_(wall), media_(media), paused_at_(paused_at), rate_(rate) {}

  /// Media position at wall instant \p now (the frozen one while paused).
  net::SimDuration media_at(net::SimTime now) const {
    if (paused_) return paused_at_;
    return media_ + net::SimDuration{static_cast<std::int64_t>(
                        static_cast<double>((now - wall_).us) * rate_)};
  }
  /// Wall instant at which media position \p media is presented.
  net::SimTime wall_at(net::SimDuration media) const {
    return wall_ + net::SimDuration{static_cast<std::int64_t>(
                       static_cast<double>((media - media_).us) / rate_)};
  }
  /// Wall time from \p now until \p media is reached (0 once it has been).
  net::SimDuration wall_until(net::SimDuration media, net::SimTime now) const {
    const auto ahead = std::max<std::int64_t>((media - media_at(now)).us, 0);
    return net::SimDuration{static_cast<std::int64_t>(
        std::ceil(static_cast<double>(ahead) / rate_))};
  }

  /// Present \p media at wall instant \p now, running.
  void start(net::SimTime now, net::SimDuration media) {
    wall_ = now;
    media_ = media;
    paused_ = false;
  }
  /// Freeze at media position \p at (normally `media_at(now)`).
  void pause(net::SimDuration at) {
    paused_at_ = at;
    paused_ = true;
  }
  void resume(net::SimTime now) { start(now, paused_at_); }
  /// Jump to \p media; a paused clock only moves its frozen position.
  void seek(net::SimTime now, net::SimDuration media) {
    if (paused_) {
      paused_at_ = media;
    } else {
      start(now, media);
    }
  }
  /// Change speed at \p now with no jump in position.
  void set_rate(net::SimTime now, double rate) {
    if (!paused_) start(now, media_at(now));
    rate_ = rate;
  }
  /// A stall: every later media position is presented \p late later.
  void shift(net::SimDuration late) { wall_ += late; }

  /// Media `anchor_media()` is presented at `anchor_wall()`; the last pause
  /// froze `paused_at()`.
  net::SimTime anchor_wall() const { return wall_; }
  net::SimDuration anchor_media() const { return media_; }
  net::SimDuration paused_at() const { return paused_at_; }
  double rate() const { return rate_; }
  bool paused() const { return paused_; }

 private:
  net::SimTime wall_{};
  net::SimDuration media_{};
  net::SimDuration paused_at_{};
  double rate_{1.0};
  bool paused_{false};
};

}  // namespace lod::core
