#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "lod/net/simulator.hpp"
#include "lod/obs/metrics.hpp"
#include "lod/obs/flight.hpp"

/// \file sharded_runner.hpp
/// Horizontal scale-out for the single-threaded simulator: partition N
/// independent LOD sessions across K `Simulator` shards, one per worker
/// thread, and merge the results.
///
/// The design keeps each shard's prized determinism: a shard is a complete,
/// self-contained simulation (its own Simulator, Network, servers, players)
/// whose behaviour depends only on (shard index, shard count, derived seed)
/// — never on thread scheduling. Shards share NOTHING mutable while running;
/// merging happens after every worker has joined. Two runs with the same
/// root seed and shard count therefore produce byte-identical merged
/// snapshots and collated traces, which is what makes a 4-shard run as
/// testable as a 1-shard one.
///
/// Observability composes across the cut: per-shard `obs::Snapshot`s merge
/// via `Snapshot::merged` (counters sum, histograms merge, gauges last-write
/// + per-shard `{shard=K}` series) and per-shard trace lanes collate via
/// `obs::collate_events`, so `obs_report` and the Prometheus/JSON exporters
/// work unchanged on merged output. Each shard's journal gets the id seed
/// `(shard+1) << 32` so trace/span ids cannot collide in the merge.

namespace lod::net {

/// Deterministic per-shard seed derivation (splitmix64 over the root seed
/// and shard index). Shard seeds are decorrelated — adjacent root seeds or
/// shard indices produce unrelated streams — and stable across platforms.
std::uint64_t derive_shard_seed(std::uint64_t root_seed, std::size_t shard);

/// What a shard body receives: its own simulator plus its coordinates in
/// the run. The body builds its deployment, schedules its share of the
/// sessions (conventionally global session i belongs to shard i % count),
/// and runs the simulator to completion before returning.
struct ShardEnv {
  Simulator& sim;
  std::size_t shard{0};
  std::size_t shard_count{1};
  std::uint64_t seed{0};
};

/// One shard's outcome, captured after its worker finished.
struct ShardResult {
  std::size_t shard{0};
  std::uint64_t seed{0};
  obs::Snapshot snapshot;
  /// The shard journal's trace lane (empty unless tracing was enabled).
  std::vector<obs::FlightEvent> trace;
  std::uint64_t events_fired{0};
  SimTime end_time{};
  /// CPU microseconds the worker's thread spent inside the shard body
  /// (thread CPU clock, so core timesharing on small machines does not
  /// inflate it). The maximum across shards is the run's critical path —
  /// its wall time on a machine with one uncontended core per shard.
  std::int64_t busy_us{0};
};

/// The whole run: per-shard results plus the cross-shard merge.
struct ShardedResult {
  std::vector<ShardResult> shards;
  /// Snapshot::merged over the shards, labeled "0".."K-1" in shard order.
  obs::Snapshot merged;
  /// All shards' trace events collated by (t, shard, emit order).
  std::vector<obs::FlightEvent> trace;
  /// Elapsed wall-clock of the whole run (launch to last join).
  std::int64_t wall_us{0};
  /// max over shards of busy_us: the parallel critical path.
  std::int64_t critical_path_us{0};

  std::uint64_t total_events_fired() const {
    std::uint64_t n = 0;
    for (const auto& s : shards) n += s.events_fired;
    return n;
  }
};

/// Runs K shard bodies on a pool of std::threads and merges their results.
class ShardedRunner {
 public:
  using ShardBody = std::function<void(ShardEnv&)>;

  /// \p shards is clamped to >= 1. \p enable_trace switches tracing on in
  /// every shard's journal (with collision-free id seeds) before the body
  /// runs.
  explicit ShardedRunner(std::size_t shards, std::uint64_t root_seed = 0x5eed,
                         bool enable_trace = false);

  std::size_t shard_count() const { return shards_; }
  std::uint64_t root_seed() const { return root_seed_; }

  /// Execute \p body once per shard (concurrently, one worker thread per
  /// shard) and merge. The body must confine itself to its ShardEnv — no
  /// shared mutable state — or determinism and TSan-cleanliness are gone.
  /// A body that throws aborts the run: the first failing shard's exception
  /// (in shard order) is rethrown on the caller after every worker joined.
  ShardedResult run(const ShardBody& body) const;

 private:
  std::size_t shards_;
  std::uint64_t root_seed_;
  bool enable_trace_;
};

}  // namespace lod::net
