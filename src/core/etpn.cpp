#include "lod/core/etpn.hpp"

#include <algorithm>
#include <stdexcept>

namespace lod::core {

InteractivePlayout::InteractivePlayout(net::Transport& transport,
                                       const TimedPetriNet& net,
                                       const Marking& initial)
    : transport_(transport), net_(net), trace_(play(net, initial)) {
  build_events();
  open_episode_.assign(trace_.intervals.size(), 0);
}

InteractivePlayout::~InteractivePlayout() { cancel_timer(); }

void InteractivePlayout::build_events() {
  for (std::uint32_t i = 0; i < trace_.intervals.size(); ++i) {
    const auto& iv = trace_.intervals[i];
    if (!net_.media(iv.place)) continue;  // control places don't render
    events_.push_back(Event{iv.start, i, true});
    events_.push_back(Event{iv.end, i, false});
  }
  // Ends before starts at equal instants: a slide flip is "old off, new on".
  std::sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.is_start != b.is_start) return !a.is_start;
    return a.interval < b.interval;
  });
}

SimDuration InteractivePlayout::media_now() const {
  if (!started_) return SimDuration{0};
  // Playout finishes exactly at the makespan (the end timer or a seek there).
  if (finished_) return trace_.makespan;
  return clock_.media_at(transport_.now());
}

void InteractivePlayout::log(Interaction::Kind k) {
  interactions_.push_back(
      Interaction{k, transport_.now(), media_now(), clock_.rate()});
}

void InteractivePlayout::start() {
  if (started_) return;
  started_ = true;
  clock_.start(transport_.now(), SimDuration{0});
  log(Interaction::Kind::kStart);
  fire_due_events();  // zero-time starts
  arm_timer();
}

void InteractivePlayout::pause() {
  if (!started_ || clock_.paused() || finished_) return;
  clock_.pause(media_now());
  cancel_timer();
  log(Interaction::Kind::kPause);
}

void InteractivePlayout::resume() {
  if (!started_ || !clock_.paused() || finished_) return;
  clock_.resume(transport_.now());
  log(Interaction::Kind::kResume);
  arm_timer();
}

void InteractivePlayout::set_rate(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("set_rate: rate must be > 0");
  clock_.set_rate(transport_.now(), rate);
  if (!started_) return;
  log(Interaction::Kind::kRate);
  arm_timer();
}

void InteractivePlayout::seek(SimDuration media_t) {
  if (!started_) start();
  if (media_t.us < 0) media_t = SimDuration{0};
  if (media_t > trace_.makespan) media_t = trace_.makespan;
  cancel_timer();

  // Target active set: media intervals covering media_t.
  std::unordered_set<std::uint32_t> target;
  for (std::uint32_t i = 0; i < trace_.intervals.size(); ++i) {
    const auto& iv = trace_.intervals[i];
    if (!net_.media(iv.place)) continue;
    if (iv.start <= media_t && media_t < iv.end) target.insert(i);
  }

  // Stop what should no longer render; start what newly should.
  for (auto it = active_.begin(); it != active_.end();) {
    if (!target.count(*it)) {
      emit_end(*it, media_t, /*complete=*/false);
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  clock_.seek(transport_.now(), media_t);
  finished_ = false;
  for (std::uint32_t i : target) {
    if (!active_.count(i)) {
      active_.insert(i);
      emit_start(i, media_t);
    }
  }

  // Cursor: first event strictly after media_t. Equal-time start events were
  // just handled via the active set; equal-time end events belong to
  // intervals that close exactly at media_t (not in target, already closed).
  cursor_ = static_cast<std::size_t>(
      std::lower_bound(events_.begin(), events_.end(), media_t,
                       [](const Event& e, SimDuration t) { return e.at <= t; }) -
      events_.begin());
  log(Interaction::Kind::kSeek);
  if (!clock_.paused()) {
    if (cursor_ >= events_.size() && media_t >= trace_.makespan) {
      finished_ = true;
    } else {
      arm_timer();
    }
  }
}

void InteractivePlayout::cancel_timer() {
  if (timer_) {
    transport_.cancel(*timer_);
    timer_.reset();
  }
}

void InteractivePlayout::arm_timer() {
  // One timer chain: a callback's seek or rate change may have armed one
  // already from inside fire_due_events.
  cancel_timer();
  if (clock_.paused() || finished_) return;
  // With nothing left to render, finish when the media clock passes makespan.
  const bool last = cursor_ >= events_.size();
  const SimDuration next = last ? trace_.makespan : events_[cursor_].at;
  const SimDuration wall = clock_.wall_until(next, transport_.now());
  timer_ = transport_.schedule_after(wall, [this, last] {
    timer_.reset();
    if (last) {
      finished_ = true;
      return;
    }
    fire_due_events();
    arm_timer();
  });
}

void InteractivePlayout::fire_due_events() {
  SimDuration pos = media_now();
  while (cursor_ < events_.size() && events_[cursor_].at <= pos) {
    const Event& e = events_[cursor_++];
    // A callback may seek, pause or change the rate (each logs an
    // interaction); what is due is then read again from the new position.
    const std::size_t controls = interactions_.size();
    if (e.is_start) {
      if (active_.insert(e.interval).second) emit_start(e.interval, e.at);
    } else {
      if (active_.erase(e.interval)) emit_end(e.interval, e.at, true);
    }
    if (interactions_.size() != controls) pos = media_now();
  }
}

void InteractivePlayout::emit_start(std::uint32_t interval,
                                    SimDuration media_pos) {
  const PlaceId p = trace_.intervals[interval].place;
  WallEpisode ep;
  ep.place = p;
  ep.media_start = media_pos;
  ep.wall_start = transport_.now();
  ep.complete = false;
  episodes_.push_back(ep);
  open_episode_[interval] = static_cast<std::uint32_t>(episodes_.size());
  if (callback_) callback_(p, *net_.media(p), true, media_pos);
}

void InteractivePlayout::emit_end(std::uint32_t interval, SimDuration media_pos,
                                  bool complete) {
  const PlaceId p = trace_.intervals[interval].place;
  if (const std::uint32_t idx = open_episode_[interval]; idx > 0) {
    episodes_[idx - 1].wall_end = transport_.now();
    episodes_[idx - 1].complete = complete;
    open_episode_[interval] = 0;
  }
  if (callback_) callback_(p, *net_.media(p), false, media_pos);
}

std::vector<PlaceId> InteractivePlayout::active_places() const {
  std::vector<PlaceId> out;
  out.reserve(active_.size());
  for (std::uint32_t i : active_) out.push_back(trace_.intervals[i].place);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lod::core
