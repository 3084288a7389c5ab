// Obs — the observability layer's zero-overhead-when-disabled contract.
//
// The playout engine is the hottest instrumented loop in the stack (P1 pushes
// it to 10^4 firings per play). This bench times the same chain playout four
// ways: the plain 3-arg play(), and play() with a PlayObs wired to a live
// registry counter and to the event journal — journal disabled, journal
// enabled (the always-on flight recorder, tracing off: the production
// default), and journal enabled with tracing on. The contract: both the
// disabled path AND the recorder-ENABLED path cost < 2% over the
// un-instrumented engine (the journal must be cheap enough to fly always-on).
// The tracing-enabled overhead is reported, not gated.
// Each configuration is timed in thread CPU time on a thread pinned to one
// core, interleaved play by play with the others in samples of >= 20 ms of
// plays; the gate reads the median over rounds of each round's
// configuration/baseline ratio. Exit is nonzero when the contract is violated.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "lod/core/ocpn.hpp"
#include "lod/obs/hub.hpp"

#include "bench_json.hpp"

using namespace lod;
using namespace lod::core;
using lod::net::sec;

namespace {

TemporalSpec chain_spec(int n) {
  TemporalSpec s = TemporalSpec::object("o0", 0, sec(1));
  for (int i = 1; i < n; ++i) {
    s = TemporalSpec::relate(Relation::kMeets, std::move(s),
                             TemporalSpec::object("o" + std::to_string(i), 0,
                                                  sec(1)));
  }
  return s;
}

/// CPU time this thread has run, in seconds. Unlike wall time it does not
/// count time spent preempted, which on a shared runner is most of the noise.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Thread-CPU seconds per play over one sample of \p plays back-to-back plays.
template <typename Fn>
double per_play_s(Fn&& fn, int plays) {
  const double t0 = thread_cpu_s();
  for (int i = 0; i < plays; ++i) fn();
  return (thread_cpu_s() - t0) / plays;
}

/// Configuration \p k (of 4) in play turn \p turn. A Williams design: over
/// every 4 turns each configuration follows every other one exactly once,
/// so what one leaves behind in the caches (the tracing configuration
/// writes a trace-lane slot per firing) is charged to all of them alike.
int turn_order(int turn, int k) {
  constexpr int kBase[4] = {0, 1, 3, 2};
  return (kBase[k] + turn) % 4;
}

/// Pin the calling thread, and only it, to the core it is running on, so
/// every configuration runs on the same core's caches and clock. Returns
/// the core, or -1 when the thread could not be pinned.
int pin_this_thread() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

int main() {
  constexpr int kChain = 10'000;
  constexpr std::size_t kMaxSteps = 1'000'000;

  const int pinned_cpu = pin_this_thread();
  const auto compiled = build_ocpn(chain_spec(kChain));
  const Marking m0 = compiled.initial_marking();

  obs::Hub hub;
  // Every instrumented configuration plays with these hooks; the journal's
  // two switches select which configuration runs.
  PlayObs hooks;
  hooks.fired = hub.metrics().counter("lod.petri.transitions_fired");
  hooks.flight = &hub.flight();

  // Warm caches and verify the instrumented path agrees on the playout.
  const auto ref = play(compiled.net, m0);
  const auto instrumented = play(compiled.net, m0, kMaxSteps, hooks);
  if (instrumented.firings.size() != ref.firings.size() ||
      instrumented.makespan.us != ref.makespan.us) {
    std::printf("instrumented playout diverged from baseline\n");
    return 1;
  }

  // Each sample is at least kSampleS of thread CPU time, so timer
  // resolution and a stray cache flush are small against it. A round plays
  // all four configurations once each, in a balanced order that changes
  // from play to play, until every configuration has a full sample; so
  // frequency drift inside a round reaches every configuration alike. Each
  // sample is divided by its round's baseline; the gate reads the median
  // ratio over rounds. On a shared 4-vCPU VM a single play's time spreads
  // by 5-20% (interquartile range over its median), so 125 rounds (~12 s)
  // are needed to bring the median's run-to-run spread near half a point.
  constexpr double kSampleS = 0.020;
  constexpr int kRounds = 125;
  std::int64_t sink_makespan = 0;
  /// One play; a null \p o is the plain 3-arg engine.
  const auto play_once = [&](const PlayObs* o) {
    sink_makespan += (o ? play(compiled.net, m0, kMaxSteps, *o)
                        : play(compiled.net, m0))
                         .makespan.us;
  };
  struct Config {
    const char* name;
    bool flight_on;
    bool tracing_on;
    const PlayObs* obs;
    std::vector<double> per_play_s{};
    std::vector<double> ratio{};  ///< per round, over that round's baseline
  };
  Config configs[] = {
      {"no instrumentation", true, false, nullptr},
      {"journal disabled", false, false, &hooks},
      {"flight recorder enabled", true, false, &hooks},
      {"tracing enabled", true, true, &hooks},
  };
  constexpr int kConfigs = static_cast<int>(std::size(configs));
  static_assert(kConfigs == 4, "turn_order balances four configurations");
  const double one_play_s = per_play_s([&] { play_once(nullptr); }, 3);
  const int plays_per_sample =
      std::max(1, static_cast<int>(std::ceil(kSampleS / one_play_s)));
  int turn = 0;
  for (int round = 0; round < kRounds; ++round) {
    double sample[kConfigs] = {};
    for (int j = 0; j < plays_per_sample; ++j, ++turn) {
      for (int k = 0; k < kConfigs; ++k) {
        const int c = turn_order(turn, k);
        hub.flight().set_enabled(configs[c].flight_on);
        hub.flight().set_tracing(configs[c].tracing_on);
        sample[c] += per_play_s([&] { play_once(configs[c].obs); }, 1);
      }
    }
    for (int c = 0; c < kConfigs; ++c) {
      configs[c].per_play_s.push_back(sample[c] / plays_per_sample);
      configs[c].ratio.push_back(sample[c] / sample[0]);
    }
  }
  hub.flight().set_enabled(true);
  hub.flight().set_tracing(false);

  const auto overhead = [&](int c) { return median(configs[c].ratio) - 1.0; };
  const double overhead_off = overhead(1);
  const double overhead_flight = overhead(2);
  const double overhead_tracing = overhead(3);
  std::printf("=== obs overhead on the playout engine (%d-object chain) ===\n\n",
              kChain);
  std::printf("%d rounds x %d plays per sample, interleaved play by play; "
              "thread CPU time on %s\n\n",
              kRounds, plays_per_sample,
              pinned_cpu >= 0 ? ("core " + std::to_string(pinned_cpu)).c_str()
                              : "an unpinned thread");
  std::printf("%-26s %12s %10s\n", "configuration", "median play",
              "overhead");
  for (int c = 0; c < kConfigs; ++c) {
    std::printf("%-26s %10.3fms ", configs[c].name,
                median(configs[c].per_play_s) * 1e3);
    if (c == 0) {
      std::printf("%10s\n", "-");
    } else {
      std::printf("%9.1f%%\n", overhead(c) * 100);
    }
  }
  std::printf("\n(counter lod.petri.transitions_fired = %llu; checksum %lld; "
              "journal %llu events)\n",
              static_cast<unsigned long long>(hooks.fired.value()),
              static_cast<long long>(sink_makespan),
              static_cast<unsigned long long>(hub.flight().total_recorded()));

  const bool ok = overhead_off < 0.02 && overhead_flight < 0.02;
  std::printf("\ncontract (disabled-path AND flight-enabled overhead < 2%%): "
              "%s\n",
              ok ? "holds" : "VIOLATED");
  ::lod::bench::emit_json(
      "bench_obs_overhead", "disabled_overhead_pct", overhead_off * 100,
      {{"flight_enabled_overhead_pct", overhead_flight * 100},
       {"tracing_enabled_overhead_pct", overhead_tracing * 100}});
  return ok ? 0 : 1;
}
