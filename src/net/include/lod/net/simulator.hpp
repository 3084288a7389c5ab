#pragma once

#include <cstdint>

#include "lod/net/task.hpp"
#include "lod/net/time.hpp"
#include "lod/net/timing_wheel.hpp"
#include "lod/obs/hub.hpp"

/// \file simulator.hpp
/// The discrete-event simulation core.
///
/// Every other substrate (network links, streaming servers, Petri net playout)
/// schedules work here. Events fire in strict (time, insertion-order) order,
/// which makes whole-system runs deterministic and therefore testable. The
/// event queue is a hierarchical timing wheel (see timing_wheel.hpp): O(1)
/// schedule and near-O(1) pop versus the O(log n) binary heap it replaced,
/// with identical (time, seq) firing order.

namespace lod::net {

/// A single-threaded discrete-event simulator.
///
/// Not thread-safe by design: determinism is the point. Handlers may schedule
/// and cancel further events freely, including at the current instant (such
/// events run after the current handler returns, in insertion order).
class Simulator {
 public:
  /// Captures of up to `Task::kInlineBytes` live in the wheel's slab cell:
  /// scheduling and firing them allocates nothing.
  using Handler = Task;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The observability root for this simulation: one registry and one trace
  /// timeline per simulator. Layers attach to it at construction.
  obs::Hub& obs() { return obs_; }
  const obs::Hub& obs() const { return obs_; }

  /// Current simulation time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedule \p h at absolute time \p t. Times in the past are clamped to
  /// "now" (the event still runs, immediately after already-queued events at
  /// the current instant).
  EventId schedule_at(SimTime t, Handler h);

  /// Schedule \p h after \p d has elapsed. Negative durations clamp to now.
  EventId schedule_after(SimDuration d, Handler h) {
    return schedule_at(now_ + (d.us < 0 ? SimDuration{0} : d), std::move(h));
  }

  /// Cancel a pending event. Returns true if the event existed and had not
  /// yet fired. Cancelling an already-fired or unknown id is a harmless no-op.
  bool cancel(EventId id);

  /// Run the single earliest pending event. Returns false if none pending.
  bool step();

  /// Run until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Run all events with time <= \p t, then advance the clock to \p t.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime t);

  /// Run at most \p n events (guards against runaway event storms in tests).
  std::size_t run_steps(std::size_t n);

  /// Number of events currently pending (cancelled events excluded).
  std::size_t pending() const { return wheel_.pending(); }

 private:
  /// Pop and run the earliest event due by \p limit; false when none is.
  bool fire_next(std::int64_t limit);

  SimTime now_{};
  obs::Hub obs_;
  obs::Counter events_scheduled_;
  obs::Counter events_fired_;
  obs::Counter events_cancelled_;
  TimingWheel wheel_;
};

}  // namespace lod::net
