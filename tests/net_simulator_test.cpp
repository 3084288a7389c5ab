#include "lod/net/network.hpp"
#include "lod/net/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <vector>

#include "lod/net/clock.hpp"
#include "lod/net/rng.hpp"
#include "lod/net/task.hpp"

namespace lod::net {
namespace {

TEST(SimTime, Arithmetic) {
  SimTime t{1000};
  EXPECT_EQ((t + usec(500)).us, 1500);
  EXPECT_EQ((t - usec(500)).us, 500);
  EXPECT_EQ((SimTime{3000} - t).us, 2000);
  t += msec(1);
  EXPECT_EQ(t.us, 2000);
}

TEST(SimTime, DurationHelpers) {
  EXPECT_EQ(usec(7).us, 7);
  EXPECT_EQ(msec(7).us, 7000);
  EXPECT_EQ(sec(7).us, 7'000'000);
  EXPECT_EQ(secf(1.5).us, 1'500'000);
  EXPECT_EQ(secf(-1.5).us, -1'500'000);
  EXPECT_DOUBLE_EQ(sec(2).seconds(), 2.0);
}

TEST(SimTime, ToString) {
  EXPECT_EQ(to_string(usec(12)), "12us");
  EXPECT_EQ(to_string(msec(37)), "37.000ms");
  EXPECT_EQ(to_string(secf(1.25)), "1.250s");
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now().us, 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{300}, [&] { order.push_back(3); });
  sim.schedule_at(SimTime{100}, [&] { order.push_back(1); });
  sim.schedule_at(SimTime{200}, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().us, 300);
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime{50}, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  sim.schedule_at(SimTime{100}, [] {});
  sim.run();
  bool fired = false;
  sim.schedule_at(SimTime{10}, [&] { fired = true; });  // in the past
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().us, 100);  // clock never went backwards
}

TEST(Simulator, HandlersCanScheduleMore) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_after(msec(10), chain);
  };
  sim.schedule_after(msec(10), chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().us, 50'000);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.schedule_at(SimTime{100}, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(999));
}

TEST(Simulator, CancelFiredIdIsNoop) {
  Simulator sim;
  EventId id = sim.schedule_at(SimTime{10}, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelFiredIdDoesNotTouchLaterEvents) {
  // A stale id must stay dead: cancelling it after it fired must not
  // affect events scheduled afterwards, even ones queued at the same time.
  Simulator sim;
  EventId stale = sim.schedule_at(SimTime{10}, [] {});
  sim.run();
  bool fired = false;
  sim.schedule_at(SimTime{20}, [&] { fired = true; });
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, HandlerCanCancelSameInstantSibling) {
  // Two events due at the same instant: the first handler cancels the
  // second before the dispatcher reaches it. The sibling must not fire.
  Simulator sim;
  bool sibling_fired = false;
  EventId sibling = 0;
  sim.schedule_at(SimTime{100}, [&] { EXPECT_TRUE(sim.cancel(sibling)); });
  sibling = sim.schedule_at(SimTime{100}, [&] { sibling_fired = true; });
  sim.run();
  EXPECT_FALSE(sibling_fired);
  EXPECT_EQ(sim.now().us, 100);
}

TEST(Simulator, CancelKeepsFifoOrderForSameInstantSurvivors) {
  // Cancelling the middle of three same-instant events must preserve the
  // insertion order of the survivors, and an event inserted *from a
  // handler* at the same instant runs after all previously queued ones.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime{50}, [&] {
    order.push_back(1);
    sim.schedule_at(SimTime{50}, [&] { order.push_back(4); });
  });
  EventId middle = sim.schedule_at(SimTime{50}, [&] { order.push_back(2); });
  sim.schedule_at(SimTime{50}, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(middle));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(sim.now().us, 50);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime{100}, [&] { fired.push_back(1); });
  sim.schedule_at(SimTime{200}, [&] { fired.push_back(2); });
  sim.schedule_at(SimTime{300}, [&] { fired.push_back(3); });
  sim.run_until(SimTime{200});
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().us, 200);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(SimTime{5000});
  EXPECT_EQ(sim.now().us, 5000);
}

TEST(Simulator, RunStepsBoundsExecution) {
  Simulator sim;
  int n = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(SimTime{i}, [&] { ++n; });
  EXPECT_EQ(sim.run_steps(4), 4u);
  EXPECT_EQ(n, 4);
}

TEST(Simulator, PendingCountsUncancelled) {
  Simulator sim;
  EventId a = sim.schedule_at(SimTime{10}, [] {});
  sim.schedule_at(SimTime{20}, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule_at(SimTime{100}, [] {});
  sim.run();
  bool fired = false;
  sim.schedule_after(usec(-50), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().us, 100);
}

// --- HostClock ---------------------------------------------------------------

TEST(HostClock, IdentityByDefault) {
  HostClock c;
  EXPECT_EQ(c.local_time(SimTime{12345}).us, 12345);
  EXPECT_EQ(c.true_time(SimTime{12345}).us, 12345);
}

TEST(HostClock, OffsetShiftsLocalTime) {
  HostClock c(msec(50), 0.0);
  EXPECT_EQ(c.local_time(SimTime{0}).us, 50'000);
  EXPECT_EQ(c.local_time(sec(1).us == 0 ? SimTime{0} : SimTime{1'000'000}).us,
            1'050'000);
}

TEST(HostClock, DriftAccumulates) {
  HostClock c({}, 100.0);  // 100 ppm fast
  // After 1000 simulated seconds the clock is 100 ms ahead.
  const SimTime t{1'000'000'000};
  EXPECT_NEAR(static_cast<double>(c.local_time(t).us - t.us), 100'000.0, 1.0);
}

TEST(HostClock, TrueTimeInvertsLocalTime) {
  HostClock c(msec(-20), 37.5);
  const SimTime t{987'654'321};
  const SimTime local = c.local_time(t);
  EXPECT_NEAR(static_cast<double>(c.true_time(local).us),
              static_cast<double>(t.us), 2.0);
}

TEST(HostClock, AdjustAppliesCorrection) {
  HostClock c(msec(30), 0.0);
  c.adjust(msec(-30));
  EXPECT_EQ(c.local_time(SimTime{1000}).us, 1000);
}

// --- Rng ----------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(2);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_FALSE(r.bernoulli(-0.5));
  EXPECT_TRUE(r.bernoulli(1.5));
}

TEST(Rng, JitterZeroSigmaIsZero) {
  Rng r(3);
  EXPECT_EQ(r.jitter(usec(0)).us, 0);
  EXPECT_EQ(r.jitter(usec(-5)).us, 0);
}

TEST(Rng, JitterBoundedByFourSigma) {
  Rng r(4);
  for (int i = 0; i < 10'000; ++i) {
    const auto j = r.jitter(msec(1));
    EXPECT_LE(std::abs(j.us), 4000);
  }
}

TEST(Rng, JitterRoughlyZeroMean) {
  Rng r(5);
  std::int64_t total = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) total += r.jitter(msec(1)).us;
  EXPECT_LT(std::abs(total / n), 50);  // mean well under sigma/20
}

TEST(Rng, ExponentialMeanApproximatesParameter) {
  Rng r(6);
  std::int64_t total = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) total += r.exponential(msec(10)).us;
  const double mean = static_cast<double>(total) / n;
  EXPECT_NEAR(mean, 10'000.0, 500.0);
}


TEST(Simulator, PendingNeverUnderflowsWhenHandlersCancelMidRun) {
  // The invariant behind pending() == queue size - cancelled size: every id
  // in the cancelled set has exactly one live queue entry, including while
  // handlers cancel (and double-cancel, and cancel already-fired ids) from
  // INSIDE run_until. An underflow would show up as a wrapped, astronomically
  // large pending() value.
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(sim.schedule_at(SimTime{10 * (i + 1)}, [&] { ++fired; }));
  }
  // At t=5 (before any target fires): cancel one event twice and a second
  // one once; pending must account each cancellation exactly once.
  sim.schedule_at(SimTime{5}, [&] {
    EXPECT_TRUE(sim.cancel(ids[7]));
    EXPECT_FALSE(sim.cancel(ids[7]));  // double-cancel: no-op
    EXPECT_TRUE(sim.cancel(ids[12]));
    // 20 targets + the t=15/t=55 helpers + sibling still queued, minus the 2
    // cancellations just made.
    EXPECT_EQ(sim.pending(), 21u);
  });
  // At t=15 (after ids[0] fired): cancelling the fired id must be a no-op
  // and must not disturb the count; cancelling a same-instant sibling and a
  // future event from inside a handler keeps the books straight.
  sim.schedule_at(SimTime{15}, [&] {
    EXPECT_FALSE(sim.cancel(ids[0]));  // already fired
    EXPECT_TRUE(sim.cancel(ids[15]));
    EXPECT_LT(sim.pending(), 100u);  // no size_t wraparound
  });
  // Same-instant pair where the first cancels the second AND schedules a
  // replacement that cancels itself -- the cancelled set may briefly hold
  // entries swept lazily by the popper.
  EventId sibling{};
  sim.schedule_at(SimTime{55}, [&] {
    EXPECT_TRUE(sim.cancel(sibling));
    const EventId self = sim.schedule_at(SimTime{56}, [&] { ++fired; });
    EXPECT_TRUE(sim.cancel(self));
    EXPECT_LT(sim.pending(), 100u);
  });
  sibling = sim.schedule_at(SimTime{55}, [&] { ++fired; });

  std::size_t steps = 0;
  while (sim.pending() > 0) {
    ASSERT_LT(sim.pending(), 100u) << "pending() underflowed";
    ASSERT_LT(++steps, 1000u) << "runaway";
    sim.run_steps(1);
  }
  EXPECT_EQ(sim.pending(), 0u);
  // 20 targets minus the 3 cancelled (7, 12, 15); sibling and the
  // self-cancelling replacement never fire.
  EXPECT_EQ(fired, 17);
}

// --- timing wheel ----------------------------------------------------------------
// The simulator's queue is a hierarchical timing wheel with a far-future heap
// (timing_wheel.hpp). These tests pin the contract the wheel must preserve
// from the binary heap it replaced: strict (time, insertion-seq) firing order
// across every level, cascade boundary, and the heap spill.

TEST(TimingWheel, MatchesReferenceOrderingDifferential) {
  // Pseudo-random schedule spanning all four levels AND the far-future heap
  // (delays up to 2^33 us > the 2^32 us wheel horizon), with heavy same-time
  // collisions. The firing order must equal a stable sort by time — i.e.
  // exactly what the (time, seq) heap produced.
  Simulator sim;
  std::mt19937 rng(42);
  const int n = 4000;
  std::vector<std::int64_t> at(n);
  std::vector<int> fired;
  fired.reserve(n);
  for (int i = 0; i < n; ++i) {
    switch (rng() % 4) {
      case 0: at[i] = static_cast<std::int64_t>(rng() % 256); break;        // L0
      case 1: at[i] = static_cast<std::int64_t>(rng() % 65'536); break;     // L1
      case 2: at[i] = static_cast<std::int64_t>(rng() % 50) * 1'000; break; // dups
      default:                                                              // L2+..heap
        at[i] = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(rng()) << 12) % (1ULL << 33));
    }
    sim.schedule_at(SimTime{at[i]}, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(n));

  std::vector<int> expect(n);
  for (int i = 0; i < n; ++i) expect[i] = i;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](int x, int y) { return at[x] < at[y]; });
  EXPECT_EQ(fired, expect);
  EXPECT_EQ(sim.now().us, *std::max_element(at.begin(), at.end()));
}

TEST(TimingWheel, FarFutureEventsBeyondHorizonFire) {
  // > 2^32 us (~71.6 min) lands in the far heap, refilled into the wheel at
  // horizon boundaries. Order across the refill must hold.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_after(sec(3*3600), [&] { fired.push_back(3); });
  sim.schedule_after(sec(2*3600), [&] { fired.push_back(2); });
  sim.schedule_after(usec(1), [&] { fired.push_back(0); });
  sim.schedule_after(sec(3600), [&] { fired.push_back(1); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now().us, sec(3*3600).us);
}

TEST(TimingWheel, CancelFarFutureEvent) {
  Simulator sim;
  int fired = 0;
  const EventId doomed = sim.schedule_after(sec(2*3600), [&] { fired += 10; });
  sim.schedule_after(sec(2*3600), [&] { fired += 1; });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TimingWheel, SameInstantInsertionOrderAcrossCascades) {
  // Two events at one far instant scheduled in a known order, with enough
  // intervening traffic to force cascades between their insertions.
  Simulator sim;
  std::vector<int> fired;
  const SimTime t{70'000'000};  // level 3 territory
  sim.schedule_at(t, [&] { fired.push_back(1); });
  for (int i = 0; i < 32; ++i) {
    sim.schedule_after(usec(i * 777), [] {});
  }
  sim.schedule_at(t, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(TimingWheel, RunUntilKeepsRelativeDelaysAligned) {
  // run_until advances the wheel cursor in lockstep with the clock, so a
  // schedule_after() issued afterwards fires at exactly now + delay.
  Simulator sim;
  sim.run_until(SimTime{123'456'789});
  std::int64_t fired_at = -1;
  sim.schedule_after(usec(5), [&] { fired_at = sim.now().us; });
  sim.run();
  EXPECT_EQ(fired_at, 123'456'794);
}

TEST(TimingWheel, HandlersScheduleAtCurrentInstantAfterCascade) {
  // An event that fires after a cascade schedules a same-instant follow-up;
  // it must run at the same time, after the current handler, before later
  // events.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_after(usec(100'000), [&] {
    fired.push_back(1);
    sim.schedule_after(usec(0), [&] { fired.push_back(2); });
  });
  sim.schedule_after(usec(100'001), [&] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().us, 100'001);
}

TEST(TimingWheel, SameSlotBurstCascadesInOrderLapAfterLap) {
  // 10k events in ONE level-1 slot (a burst far above the cascade's
  // keep-capacity cap) with colliding times, then a small batch in the same
  // slot one lap later, when the burst's storage was freed, and a burst
  // again. Every lap must fire in stable (time, insertion) order.
  Simulator sim;
  std::mt19937 rng(7);
  std::vector<std::int64_t> at;
  std::vector<int> fired;
  const std::int64_t lap = std::int64_t{1} << 16;  // one level-1 revolution
  const std::array<int, 3> sizes{10'000, 10, 10'000};
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const int n = sizes[k];
    at.clear();
    fired.clear();
    // Level-1 slot 0x42 of lap k: 256 distinct times, most of them shared.
    const std::int64_t slot_start = static_cast<std::int64_t>(k) * lap + 0x4200;
    for (int i = 0; i < n; ++i) {
      at.push_back(slot_start + static_cast<std::int64_t>(rng() % 256));
      sim.schedule_at(SimTime{at.back()}, [&fired, i] { fired.push_back(i); });
    }
    EXPECT_EQ(sim.run(), static_cast<std::size_t>(n));
    std::vector<int> expect(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) expect[static_cast<std::size_t>(i)] = i;
    std::stable_sort(expect.begin(), expect.end(),
                     [&](int x, int y) { return at[x] < at[y]; });
    EXPECT_EQ(fired, expect) << "burst of " << n;
    sim.run_until(SimTime{static_cast<std::int64_t>(k + 1) * lap});
  }
}

// --- Task: the handler type ------------------------------------------------

/// Counts destructions of live (not moved-from) instances.
struct DtorProbe {
  explicit DtorProbe(int* count) : count(count) {}
  DtorProbe(DtorProbe&& o) noexcept : count(o.count) { o.count = nullptr; }
  DtorProbe& operator=(DtorProbe&&) = delete;
  ~DtorProbe() {
    if (count) ++*count;
  }
  int* count;
};

TEST(Task, MoveOnlyCaptureRunsAndMoves) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  Task t = [p = std::move(owned), &seen] { seen = ++*p; };
  Task moved = std::move(t);
  EXPECT_FALSE(t);
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(seen, 42);

  Simulator sim;
  auto token = std::make_unique<int>(7);
  sim.schedule_after(usec(1), [p = std::move(token), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 7);
}

TEST(Task, OversizeCaptureTakesTheHeapFallback) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: over the inline limit
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i + 1;
  std::uint64_t sum = 0;
  auto fn = [big, &sum] {
    for (auto v : big) sum += v;
  };
  static_assert(!Task::fits_inline<decltype(fn)>());
  auto small = [&sum] { ++sum; };
  static_assert(Task::fits_inline<decltype(small)>());

  Task t = fn;
  Task moved = std::move(t);
  moved();
  EXPECT_EQ(sum, 136u);

  Simulator sim;
  sim.schedule_after(usec(3), fn);
  sim.run();
  EXPECT_EQ(sum, 272u);
}

TEST(Task, CaptureDestroyedExactlyOnceOnFireCancelAndTeardown) {
  // Inline and heap-fallback captures alike: the capture dies exactly once
  // whether the event fires, is cancelled, or is still pending when the
  // simulator goes away -- and a shared token is released every time.
  for (const bool oversize : {false, true}) {
    SCOPED_TRACE(oversize ? "heap fallback" : "inline");
    auto token = std::make_shared<int>(0);
    int fired_dtors = 0;
    int cancelled_dtors = 0;
    int torn_down_dtors = 0;
    std::array<char, 64> pad{};
    const auto make = [&](int* dtors) -> Task {
      if (oversize) {
        return [probe = DtorProbe(dtors), token, pad] { *token += 1 + pad[0]; };
      }
      return [probe = DtorProbe(dtors), token] { ++*token; };
    };
    {
      Simulator sim;
      sim.schedule_after(usec(1), make(&fired_dtors));
      const EventId doomed =
          sim.schedule_after(usec(2), make(&cancelled_dtors));
      sim.schedule_after(sec(10), make(&torn_down_dtors));
      EXPECT_EQ(token.use_count(), 4);
      EXPECT_TRUE(sim.cancel(doomed));
      EXPECT_EQ(cancelled_dtors, 1);
      EXPECT_EQ(token.use_count(), 3);
      sim.run_until(SimTime{100});
      EXPECT_EQ(fired_dtors, 1);
      EXPECT_EQ(*token, 1);
      EXPECT_EQ(token.use_count(), 2);
      EXPECT_EQ(torn_down_dtors, 0);
    }
    EXPECT_EQ(torn_down_dtors, 1);
    EXPECT_EQ(fired_dtors, 1);
    EXPECT_EQ(cancelled_dtors, 1);
    EXPECT_EQ(token.use_count(), 1);
  }
}

TEST(Task, HandlerReschedulesItself) {
  // A handler that schedules its own successor from inside its call: the
  // slab cell it came from is recycled under it, and it must not care.
  Simulator sim;
  std::vector<std::int64_t> times;
  struct Ticker {
    Simulator& sim;
    std::vector<std::int64_t>& times;
    int left;
    void arm() {
      sim.schedule_after(usec(250), [this, self = std::make_unique<int>(left)] {
        times.push_back(sim.now().us);
        if (--left > 0) arm();
      });
    }
  } ticker{sim, times, 5};
  ticker.arm();
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(times, (std::vector<std::int64_t>{250, 500, 750, 1000, 1250}));
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace lod::net
