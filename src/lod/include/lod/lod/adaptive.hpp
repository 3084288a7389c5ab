#pragma once

#include <string>
#include <vector>

#include "lod/lod/wmps.hpp"
#include "lod/streaming/player.hpp"

/// \file adaptive.hpp
/// Multi-rate publishing and an adaptive player.
///
/// The era's real systems shipped this as "intelligent streaming": the
/// encoder produces the same content at several bandwidth profiles and the
/// player shifts down when the network cannot sustain the current one. The
/// paper's configuration module exposes the profile ladder (§2.5); this
/// extension closes the loop automatically.
///
///  - `publish_multirate` publishes one lecture under `<name>@<profile>` for
///    each requested profile (all sharing the slide directory).
///  - `AdaptivePlayer` hands that ladder to one `streaming::Player`. The
///    player's session watchdog has two policies: starvation on a selector
///    session fails over, and repeated stalls with a lower rendition left
///    downshift. A downshift reopens the next rendition at the player's one
///    resume point on the same session: same ports, render history and
///    trace. This class only names the profiles involved.

namespace lod::lod {

/// One published rendition.
struct Rendition {
  std::string url;
  std::string profile;
  std::int64_t total_bps{0};
};

/// Publish `form.publish_name@<profile>` for every profile in \p profiles
/// (highest first in the returned ladder). Fails fast on the first error.
struct MultirateResult {
  bool ok{false};
  std::string error;
  std::vector<Rendition> ladder;  ///< sorted by descending total_bps
};
MultirateResult publish_multirate(WmpsNode& node, const PublishForm& form,
                                  const std::vector<std::string>& profiles);

/// A player that downshifts through a rendition ladder on rebuffering.
class AdaptivePlayer {
 public:
  struct Options {
    streaming::PlayerConfig player;
  };

  /// A switch decision, for reporting.
  struct Switch {
    net::SimTime at;
    std::string from;
    std::string to;
    net::SimDuration position;
  };

  AdaptivePlayer(net::Transport& net, net::HostId host, Options opts,
                 media::DrmSystem* drm = nullptr)
      : player_(net, host, opts.player, drm) {}

  /// Start playing the highest rendition of \p ladder from \p server.
  void play(net::HostId server, std::vector<Rendition> ladder,
            net::SimDuration from = {});

  const streaming::Player& player() const { return player_; }
  streaming::Player& player() { return player_; }
  const std::vector<Switch>& switches() const;
  const std::string& current_profile() const;
  bool finished() const { return player_.finished(); }

 private:
  streaming::Player player_;
  std::vector<Rendition> ladder_;
  /// The player's downshifts with profile names, filled in on read.
  mutable std::vector<Switch> switches_;
};

}  // namespace lod::lod
