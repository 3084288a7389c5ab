#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lod/obs/flight.hpp"
#include "lod/obs/metrics.hpp"

/// \file hub.hpp
/// The per-simulation observability root. The `Simulator` owns one Hub and
/// every layer reaches it through the simulator (or a pointer handed down at
/// attach time), so one simulation == one registry == one event journal.

namespace lod::obs {

/// One session's counters, kept in its engine's session table while the
/// session is open.
struct SessionStats {
  std::uint64_t packets_sent{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t seeks{0};
  std::uint64_t pauses{0};
  std::uint64_t repairs{0};  ///< packets resent on client NACKs
};

/// One open session as `/debug/sessions` lists it.
struct SessionRow {
  std::string role;  ///< "server" (origin) or "edge"
  std::uint64_t host{0};
  std::uint64_t id{0};
  std::uint64_t client{0};
  bool paused{false};
  bool parked{false};  ///< waiting on a segment fill
  SessionStats stats;
};

class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The event journal (see flight.hpp): the always-on flight recorder
  /// and, while tracing is on, the causal trace. Layers journal their
  /// events and open their spans through this handle.
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// Install the timestamp source (the simulator's clock) on the journal.
  void set_clock(std::function<TimeUs()> clock) {
    flight_.set_clock(std::move(clock));
  }

  /// Current time per the installed clock; 0 if none.
  TimeUs now_us() const { return flight_.now(); }

  Snapshot snapshot() const { return metrics_.snapshot(); }

  /// Appends one row per open session of a session table.
  using SessionLister = std::function<void(std::vector<SessionRow>&)>;
  /// `sessions()` lists \p owner's table until `remove_sessions(owner)`.
  void add_sessions(const void* owner, SessionLister list) {
    listers_[owner] = std::move(list);
  }
  void remove_sessions(const void* owner) { listers_.erase(owner); }
  /// The open sessions of every registered table, in no particular order.
  std::vector<SessionRow> sessions() const {
    std::vector<SessionRow> rows;
    for (const auto& [owner, list] : listers_) list(rows);
    return rows;
  }

 private:
  MetricsRegistry metrics_;
  FlightRecorder flight_;
  std::map<const void*, SessionLister> listers_;
};

}  // namespace lod::obs
