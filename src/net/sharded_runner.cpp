#include "lod/net/sharded_runner.hpp"

#include <chrono>
#include <ctime>
#include <exception>
#include <string>
#include <thread>
#include <utility>

namespace lod::net {

namespace {

// Per-thread CPU microseconds. Unlike a wall clock this is immune to core
// timesharing: when K worker threads contend for fewer than K cores, each
// shard's measurement still reflects only the cycles IT consumed, so
// max-over-shards stays an honest estimate of the run's wall time on a
// machine with one uncontended core per shard.
std::int64_t thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return ts.tv_sec * 1'000'000LL + ts.tv_nsec / 1'000;
  }
#endif
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t derive_shard_seed(std::uint64_t root_seed, std::size_t shard) {
  // splitmix64 (Steele et al.), the canonical seed-sequence expander: one
  // pass per shard index keeps shards decorrelated even for root seeds that
  // differ in a single bit.
  std::uint64_t z = root_seed + 0x9E3779B97F4A7C15ULL *
                                    (static_cast<std::uint64_t>(shard) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ShardedRunner::ShardedRunner(std::size_t shards, std::uint64_t root_seed,
                             bool enable_trace)
    : shards_(shards == 0 ? 1 : shards),
      root_seed_(root_seed),
      enable_trace_(enable_trace) {}

ShardedResult ShardedRunner::run(const ShardBody& body) const {
  using Clock = std::chrono::steady_clock;

  ShardedResult result;
  result.shards.resize(shards_);
  std::vector<std::exception_ptr> errors(shards_);

  const auto run_shard = [&](std::size_t shard) {
    ShardResult& out = result.shards[shard];
    out.shard = shard;
    out.seed = derive_shard_seed(root_seed_, shard);
    try {
      Simulator sim;
      obs::FlightRecorder& journal = sim.obs().flight();
      // Collision-free ids across shards: shard k mints trace/span ids in
      // [(k+1)<<32, (k+2)<<32).
      journal.set_id_seed((static_cast<std::uint64_t>(shard) + 1) << 32);
      journal.set_tracing(enable_trace_);
      ShardEnv env{sim, shard, shards_, out.seed};
      const std::int64_t cpu0 = thread_cpu_us();
      body(env);
      out.busy_us = thread_cpu_us() - cpu0;
      out.snapshot = sim.obs().metrics().snapshot();
      out.trace = journal.trace_events();
      out.events_fired = out.snapshot.counter("lod.sim.events_fired");
      out.end_time = sim.now();
    } catch (...) {
      errors[shard] = std::current_exception();
    }
  };

  const auto wall0 = Clock::now();
  // One worker per shard; each writes only its own slot, and the joins
  // below are the only synchronization the merge needs.
  std::vector<std::thread> workers;
  workers.reserve(shards_);
  for (std::size_t k = 0; k < shards_; ++k) {
    workers.emplace_back(run_shard, k);
  }
  for (auto& w : workers) w.join();
  result.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       Clock::now() - wall0)
                       .count();

  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  std::vector<std::pair<std::string, obs::Snapshot>> labeled;
  std::vector<std::vector<obs::FlightEvent>> timelines;
  labeled.reserve(shards_);
  timelines.reserve(shards_);
  for (auto& s : result.shards) {
    labeled.emplace_back(std::to_string(s.shard), s.snapshot);
    timelines.push_back(s.trace);
    if (s.busy_us > result.critical_path_us) {
      result.critical_path_us = s.busy_us;
    }
  }
  result.merged = obs::Snapshot::merged(labeled);
  result.trace = obs::collate_events(std::move(timelines));
  return result;
}

}  // namespace lod::net
