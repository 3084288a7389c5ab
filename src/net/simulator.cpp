#include "lod/net/simulator.hpp"

#include <cstdio>
#include <limits>

namespace lod::net {

std::string to_string(SimDuration d) {
  char buf[48];
  const std::int64_t a = d.us < 0 ? -d.us : d.us;
  if (a >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fs", d.seconds());
  } else if (a >= 1000) {
    std::snprintf(buf, sizeof buf, "%.3fms", d.millis());
  } else {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(d.us));
  }
  return buf;
}

std::string to_string(SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "t=%.6fs", t.seconds());
  return buf;
}

Simulator::Simulator() {
  obs_.set_clock([this] { return now_.us; });
  events_scheduled_ = obs_.metrics().counter("lod.sim.events_scheduled");
  events_fired_ = obs_.metrics().counter("lod.sim.events_fired");
  events_cancelled_ = obs_.metrics().counter("lod.sim.events_cancelled");
}

EventId Simulator::schedule_at(SimTime t, Handler h) {
  events_scheduled_.inc();
  return wheel_.schedule(t.us, std::move(h));
}

bool Simulator::cancel(EventId id) {
  if (!wheel_.cancel(id)) return false;
  events_cancelled_.inc();
  return true;
}

bool Simulator::fire_next(std::int64_t limit) {
  TimingWheel::Due due;
  if (!wheel_.pop_due(limit, due)) return false;
  now_ = SimTime{due.at};
  events_fired_.inc();
  obs_.flight().record_at(now_.us, obs::FlightType::kSimEvent,
                          static_cast<std::uint32_t>(due.id >> 32), due.id,
                          static_cast<std::uint64_t>(due.at),
                          obs::FlightRecorder::kLaneDispatch);
  due.task();
  return true;
}

bool Simulator::step() {
  return fire_next(std::numeric_limits<std::int64_t>::max());
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime t) {
  std::size_t n = 0;
  while (fire_next(t.us)) ++n;
  if (now_ < t) now_ = t;
  // Keep the wheel's cursor in lockstep with the clock so the next schedule
  // computes distances from the right origin.
  wheel_.fast_forward(t.us);
  return n;
}

std::size_t Simulator::run_steps(std::size_t n) {
  std::size_t done = 0;
  while (done < n && step()) ++done;
  return done;
}

}  // namespace lod::net
