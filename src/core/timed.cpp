#include "lod/core/timed.hpp"

#include <algorithm>
#include <queue>
#include <set>

#include "lod/obs/flight.hpp"

namespace lod::core {

std::optional<PlaceInterval> PlayoutTrace::interval_of(
    const TimedPetriNet& net, std::string_view object_name) const {
  for (const auto& iv : intervals) {
    const auto& m = net.media(iv.place);
    if (m && m->object_name == object_name) return iv;
  }
  return std::nullopt;
}

namespace {
struct ReadyEvent {
  SimDuration at;
  PlaceId place;
};
struct Later {
  bool operator()(const ReadyEvent& a, const ReadyEvent& b) const {
    return a.at.us > b.at.us;
  }
};
}  // namespace

namespace {
/// Shared engine: \p sample(place) yields this visit's maturation duration;
/// \p hooks publishes firings (a default PlayObs is free — null handles).
template <typename DurationSampler>
PlayoutTrace play_impl(const TimedPetriNet& net, const Marking& initial,
                       std::size_t max_steps, DurationSampler&& sample,
                       const PlayObs& hooks = {}) {
  PlayoutTrace trace;
  const std::size_t np = net.place_count();
  const std::size_t nt = net.transition_count();

  std::vector<std::uint32_t> mature(np, 0);  // tokens available to fire
  std::vector<std::uint32_t> total(np, 0);   // mature + still cooking
  std::priority_queue<ReadyEvent, std::vector<ReadyEvent>, Later> heap;

  // Watcher index: a transition can only BECOME enabled when
  //  - a token matures in one of its normal input places, or
  //  - a place it inhibits / a bounded place it feeds loses tokens.
  // Scanning just those watchers turns the per-instant cost from O(T) into
  // O(changes), which is what lets 10^4..10^5-node nets play in milliseconds.
  std::vector<std::vector<TransitionId>> on_mature(np), on_free(np);
  // Agenda order realizes the prioritized firing rule: highest priority
  // first, lowest id among equals — deterministic under conflict.
  const auto agenda_less = [&net](TransitionId a, TransitionId b) {
    const auto pa = net.priority(a), pb = net.priority(b);
    return pa != pb ? pa > pb : a < b;
  };
  std::set<TransitionId, decltype(agenda_less)> agenda(agenda_less);
  for (TransitionId t = 0; t < nt; ++t) {
    bool has_normal_input = false;
    for (const auto& a : net.inputs(t)) {
      if (a.kind == ArcKind::kNormal) {
        has_normal_input = true;
        on_mature[a.place].push_back(t);
      } else {
        on_free[a.place].push_back(t);
      }
    }
    for (const auto& a : net.outputs(t)) {
      if (net.place_capacity(a.place) != 0) on_free[a.place].push_back(t);
    }
    // Source transitions are enabled by nothing but themselves: seed them.
    if (!has_normal_input) agenda.insert(t);
  }

  auto deposit = [&](PlaceId p, SimDuration enter) {
    ++total[p];
    const SimDuration ready = enter + sample(p);
    trace.intervals.push_back(PlaceInterval{p, enter, ready});
    heap.push(ReadyEvent{ready, p});
  };

  for (PlaceId p = 0; p < initial.size() && p < np; ++p) {
    for (std::uint32_t k = 0; k < initial[p]; ++k) deposit(p, SimDuration{0});
  }

  // Enabling against the timed state: normal inputs need MATURE tokens,
  // inhibitors must see the place empty of ANY token, bounded outputs are
  // checked against total occupancy.
  auto timed_enabled = [&](TransitionId t) {
    for (const auto& a : net.inputs(t)) {
      if (a.kind == ArcKind::kInhibitor) {
        if (total[a.place] >= a.weight) return false;
      } else if (mature[a.place] < a.weight) {
        return false;
      }
    }
    for (const auto& a : net.outputs(t)) {
      const std::uint32_t cap = net.place_capacity(a.place);
      if (cap == 0) continue;
      std::uint32_t consumed = 0;
      for (const auto& in : net.inputs(t)) {
        if (in.kind == ArcKind::kNormal && in.place == a.place) {
          consumed += in.weight;
        }
      }
      if (total[a.place] - consumed + a.weight > cap) return false;
    }
    return true;
  };

  std::size_t steps = 0;
  SimDuration now{0};

  // Read the hooks once: nothing inside a play toggles them, and locals keep
  // the disabled path to one predictable branch per firing. The firing
  // counter is bumped once per play (by the number of firings) for the same
  // reason; nothing can read it while a play runs.
  obs::FlightRecorder* const flight = hooks.flight;
  const bool tracing = flight && flight->tracing();

  auto fire = [&](TransitionId t) {
    SiteId home = kLocalSite;
    for (const auto& a : net.inputs(t)) {
      if (a.kind == ArcKind::kNormal) {
        home = std::max(home, net.site(a.place));
        mature[a.place] -= a.weight;
        total[a.place] -= a.weight;
        for (TransitionId w : on_free[a.place]) agenda.insert(w);
      }
    }
    trace.firings.push_back(FiringRecord{t, now});
    if (tracing) {
      flight->emit(obs::FlightType::kTransitionFire, t, now.us);
    }
    // The engine fires every ~50ns, so even a ~2.5ns journal write per
    // firing would bust the <2% obs-overhead contract: sample the firehose
    // lane 1-in-16. Control- and trace-lane events are never sampled; `b`
    // carries the firing ordinal so gaps are explicit.
    if (flight && (trace.firings.size() & 15u) == 0) {
      flight->record_at(now.us, obs::FlightType::kSimEvent, t, now.us,
                        static_cast<std::int64_t>(trace.firings.size()),
                        obs::FlightRecorder::kLaneDispatch);
    }
    for (const auto& a : net.outputs(t)) {
      const SimDuration hop =
          net.site(a.place) != home ? net.transfer_delay() : SimDuration{0};
      for (std::uint32_t k = 0; k < a.weight; ++k) deposit(a.place, now + hop);
    }
  };

  while (true) {
    // Mature everything due now; wake the consumers of those places.
    while (!heap.empty() && heap.top().at <= now) {
      const PlaceId p = heap.top().place;
      heap.pop();
      ++mature[p];
      for (TransitionId w : on_mature[p]) agenda.insert(w);
    }

    // Fire the agenda to fixpoint at this instant, ascending transition id.
    while (!agenda.empty()) {
      const TransitionId t = *agenda.begin();
      agenda.erase(agenda.begin());
      while (timed_enabled(t)) {
        if (steps >= max_steps) {
          trace.truncated = true;
          trace.makespan = now;
          hooks.fired.inc(trace.firings.size());
          return trace;
        }
        fire(t);
        ++steps;
      }
      // Zero-duration deposits mature at this same instant: drain them so
      // their consumers join the agenda before we move on.
      while (!heap.empty() && heap.top().at <= now) {
        const PlaceId p = heap.top().place;
        heap.pop();
        ++mature[p];
        for (TransitionId w : on_mature[p]) agenda.insert(w);
      }
    }

    if (heap.empty()) break;
    now = heap.top().at;
  }

  SimDuration makespan = now;
  for (const auto& iv : trace.intervals) makespan = std::max(makespan, iv.end);
  trace.makespan = makespan;
  hooks.fired.inc(trace.firings.size());
  return trace;
}
}  // namespace

PlayoutTrace play(const TimedPetriNet& net, const Marking& initial,
                  std::size_t max_steps, const PlayObs& obs) {
  return play_impl(net, initial, max_steps,
                   [&net](PlaceId p) { return net.duration(p); }, obs);
}

PlayoutTrace play_stochastic(const TimedPetriNet& net, const Marking& initial,
                             net::Rng& rng, double spread,
                             std::size_t max_steps) {
  if (spread < 0.0) spread = 0.0;
  if (spread > 0.95) spread = 0.95;
  return play_impl(net, initial, max_steps, [&net, &rng, spread](PlaceId p) {
    const SimDuration d = net.duration(p);
    if (d.us <= 0 || spread == 0.0) return d;
    const double f = 1.0 - spread + rng.uniform01() * 2.0 * spread;
    return SimDuration{static_cast<std::int64_t>(
        static_cast<double>(d.us) * f + 0.5)};
  });
}

}  // namespace lod::core
