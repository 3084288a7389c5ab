#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lod/obs/metrics.hpp"
#include "sessions.hpp"
#include "tracing.hpp"

/// \file workloads.hpp
/// The benchmark's workloads and the metric sets they print.

namespace perfbench {

/// One measured number, printed by name with its unit.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// What a workload run reports to main().
struct RunResult {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  /// Extra key/value facts for the record line (JSON-encoded values).
  std::vector<std::pair<std::string, std::string>> record;
  /// Human-readable reasons `correct` is false.
  std::vector<std::string> problems;
};

/// Command-line options.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Shortest decimal text that reads back as exactly \p v.
std::string json_number(double v);

/// `steady`, `overload`, `catalog_seek`: simulated deployments.
bool is_sim_workload(const std::string& name);
RunResult run_sim_workload(const Options& opt);

/// `s1_reference`: this benchmark's event count on LoadGen's S1 spec next to
/// `LoadGen::run_sharded(spec, 1, 0xC0FFEE5EED)`'s (a one-off comparison,
/// not a benchmark workload).
RunResult run_s1_reference();

/// `loopback`: the real epoll pipeline over kernel loopback sockets.
RunResult run_loopback(const Options& opt);

/// The end-to-end metric set, common to every workload.
struct EndToEnd {
  double us_per_event{0.0};
  double sessions_per_cpu_s{0.0};
  double setup_s{0.0};
  double cpu_us_per_dgram{0.0};
  SessionStats sessions;
};
std::vector<Metric> end_to_end_metrics(const EndToEnd& e);

/// What the per-layer metric set is computed from (one traced run).
struct LayerInputs {
  Ledger ledger;               ///< spans, summed over threads
  std::int64_t run_cpu_ns{0};  ///< run-phase CPU, summed over threads
  std::int64_t run_top_ns{0};  ///< top-level span time in the run phase
  std::uint64_t events_fired{0};
  std::uint64_t events_cancelled{0};
  std::size_t sessions{0};
  lod::obs::Snapshot snapshot;  ///< merged registry at the end of the run
  std::int64_t open_server{0};  ///< origin sessions still open after drain
  std::int64_t open_edge{0};    ///< edge sessions still open after drain
  std::int64_t merge_ns{0};
  std::int64_t export_ns{0};
  double overhead_frac{0.0};
};
std::vector<Metric> layer_metrics(const LayerInputs& in);

}  // namespace perfbench
