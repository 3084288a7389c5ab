#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lod/core/petri.hpp"
#include "lod/net/rng.hpp"
#include "lod/net/time.hpp"
#include "lod/obs/flight.hpp"

/// \file timed.hpp
/// Timed Petri nets with media bindings — the OCPN substrate.
///
/// Following Little & Ghafoor's Object Composition Petri Net [4], time lives
/// on PLACES: a token deposited into a place at instant T becomes available
/// to output transitions at T + duration(place). A place may additionally be
/// bound to a media object — while its token is "cooking", that object is
/// being presented. Places may also be pinned to a SITE, which the paper's
/// extended model uses to reason about synchronization across distributed
/// platforms (tokens crossing sites pay a channel delay).

namespace lod::core {

using net::SimDuration;
using net::SimTime;

/// Identifies a rendering site (host) in a distributed presentation.
using SiteId = std::uint32_t;
inline constexpr SiteId kLocalSite = 0;

/// What a timed place presents while its token matures.
struct MediaBinding {
  std::string object_name;  ///< e.g. "video", "slide-3", "annot-1"
  std::uint8_t media_type{0};  ///< mirrors lod::media::MediaType
  /// Required channel bandwidth to present this object remotely (XOCPN's
  /// QoS annotation); 0 = no reservation needed.
  std::int64_t required_bps{0};
};

/// A Petri net whose places carry durations, optional media bindings and
/// optional site assignments.
class TimedPetriNet : public PetriNet {
 public:
  /// Add a timed place in one call.
  PlaceId add_timed_place(std::string name, SimDuration duration,
                          std::optional<MediaBinding> media = std::nullopt) {
    const PlaceId p = add_place(std::move(name));
    set_duration(p, duration);
    if (media) set_media(p, std::move(*media));
    return p;
  }

  void set_duration(PlaceId p, SimDuration d) {
    grow(p);
    durations_[p] = d;
  }
  SimDuration duration(PlaceId p) const {
    return p < durations_.size() ? durations_[p] : SimDuration{0};
  }

  void set_media(PlaceId p, MediaBinding m) {
    grow(p);
    media_[p] = std::move(m);
  }
  const std::optional<MediaBinding>& media(PlaceId p) const {
    static const std::optional<MediaBinding> kNone;
    return p < media_.size() ? media_[p] : kNone;
  }

  void set_site(PlaceId p, SiteId s) {
    grow(p);
    sites_[p] = s;
  }
  SiteId site(PlaceId p) const { return p < sites_.size() ? sites_[p] : kLocalSite; }

  /// Inter-site token transfer delay used by playout when an arc crosses
  /// sites (the distributed-platform cost OCPN cannot express).
  void set_transfer_delay(SimDuration d) { transfer_delay_ = d; }
  SimDuration transfer_delay() const { return transfer_delay_; }

 private:
  void grow(PlaceId p) {
    if (durations_.size() <= p) durations_.resize(p + 1, SimDuration{0});
    if (media_.size() <= p) media_.resize(p + 1);
    if (sites_.size() <= p) sites_.resize(p + 1, kLocalSite);
  }

  std::vector<SimDuration> durations_;
  std::vector<std::optional<MediaBinding>> media_;
  std::vector<SiteId> sites_;
  SimDuration transfer_delay_{0};
};

/// One presented interval in a playout: place p held a maturing token during
/// [start, end) in presentation (media) time.
struct PlaceInterval {
  PlaceId place;
  SimDuration start;
  SimDuration end;
};

/// One transition firing.
struct FiringRecord {
  TransitionId transition;
  SimDuration at;
};

/// The full result of playing a timed net to quiescence.
struct PlayoutTrace {
  std::vector<PlaceInterval> intervals;
  std::vector<FiringRecord> firings;
  SimDuration makespan{};
  /// True if the run hit the step limit instead of quiescing.
  bool truncated{false};

  /// First interval for the place bound to \p object_name, if any.
  std::optional<PlaceInterval> interval_of(const TimedPetriNet& net,
                                           std::string_view object_name) const;
};

/// Observability hooks for playout. Both members are optional; a
/// default-constructed PlayObs is exactly the un-instrumented engine (the
/// null counter and null journal reduce to one predictable branch per
/// firing — bench_obs_overhead holds this under 2%).
struct PlayObs {
  /// Advanced by the play's firing count when the play returns (e.g.
  /// `lod.petri.transitions_fired`).
  obs::Counter fired;
  /// Journals a kSimEvent per 16 firings into the dispatch lane (actor =
  /// transition id, a = firing instant) — an always-on path whose cost is
  /// bench_obs_overhead's recorder-enabled measurement — and, when tracing
  /// is on as the play starts, a kTransitionFire per firing on the trace
  /// lane (same actor and a). nullptr disables both.
  obs::FlightRecorder* flight{nullptr};
};

/// Deterministic earliest-firing playout of a timed net, publishing into
/// \p obs as it goes.
///
/// Semantics: a transition fires the instant all its (normal) input places
/// hold enough *mature* tokens and no inhibitor input holds any token
/// (mature or cooking). Ties fire highest-priority first (see
/// PetriNet::set_priority), then ascending transition id. When an output
/// place sits on a different site than the transition's "home" (the max
/// site among its input places), the token additionally pays the net's
/// transfer delay before it starts cooking.
///
/// One function for the plain and the instrumented playout, so both run
/// the same machine code and bench_obs_overhead compares like with like.
PlayoutTrace play(const TimedPetriNet& net, const Marking& initial,
                  std::size_t max_steps = 1'000'000, const PlayObs& obs = {});

/// Stochastic playout — the stochastic-Petri-net member of the family the
/// paper surveys (§1). Each token's maturation time is sampled per visit:
/// nominal place duration scaled by U[1-spread, 1+spread] (zero-duration
/// places stay instantaneous). Use it to stress-test a compiled schedule's
/// robustness: how much do object start times move when rendering and
/// decoding times wobble?
PlayoutTrace play_stochastic(const TimedPetriNet& net, const Marking& initial,
                             net::Rng& rng, double spread = 0.2,
                             std::size_t max_steps = 1'000'000);

}  // namespace lod::core
