// SLO health monitor: rule evaluation, violation-edge journal records,
// nullopt-signal verdict holding, per-site health, and the injected-clock
// periodic driver.

#include <gtest/gtest.h>

#include <vector>

#include "lod/obs/health.hpp"
#include "lod/obs/hub.hpp"

using namespace lod::obs;

namespace {

struct HealthFixture : ::testing::Test {
  HealthFixture() : monitor(hub) {
    hub.set_clock([this] { return now; });
  }
  TimeUs now{0};
  Hub hub;
  HealthMonitor monitor;
};

}  // namespace

TEST_F(HealthFixture, ViolationEmitsTypedEventOnlyOnTransition) {
  Gauge depth = hub.metrics().gauge("queue.depth", {{"host", "3"}});
  SloRule rule;
  rule.name = "queue_depth";
  rule.site = "3";
  rule.threshold = 10.0;
  rule.direction = SloDirection::kAboveIsBad;
  rule.value = [](const Snapshot& s, TimeUs) -> std::optional<double> {
    return static_cast<double>(s.gauge("queue.depth", {{"host", "3"}}));
  };
  monitor.add_rule(rule);
  std::vector<FlightDump> dumps;
  hub.flight().on_dump([&dumps](const FlightDump& d) { dumps.push_back(d); });

  depth.set(5);
  EXPECT_EQ(monitor.evaluate(), 0u);
  EXPECT_TRUE(monitor.healthy());
  EXPECT_TRUE(hub.flight().events(FlightType::kSloViolation).empty());

  now = 1000;
  depth.set(25);
  EXPECT_EQ(monitor.evaluate(), 1u);
  EXPECT_FALSE(monitor.healthy());
  EXPECT_FALSE(monitor.site_healthy("3"));
  EXPECT_TRUE(monitor.site_healthy("4"));
  auto viols = hub.flight().events(FlightType::kSloViolation);
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_EQ(viols[0].t, 1000);
  EXPECT_EQ(viols[0].actor, 3u);          // parsed numeric site
  EXPECT_EQ(viols[0].a, 25'000);          // value * 1000
  EXPECT_EQ(viols[0].b, 10'000);          // threshold * 1000
  EXPECT_EQ(viols[0].detail, "queue_depth");
  EXPECT_EQ(hub.metrics().snapshot().counter("lod.health.violations",
                                             {{"rule", "queue_depth"}}),
            1u);
  // The crossing dumped the journal, and the dump's one violation line
  // names its rule.
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0].reason, "slo.queue_depth");
  std::vector<FlightEvent> dumped;
  for (FlightEvent& e : parse_jsonl(dumps[0].jsonl)) {
    if (e.type == FlightType::kSloViolation) dumped.push_back(std::move(e));
  }
  ASSERT_EQ(dumped.size(), 1u);
  EXPECT_EQ(dumped[0].detail, "queue_depth");
  EXPECT_EQ(dumped[0].a, 25'000);

  // Still in violation: no second event, but still counted as violated.
  EXPECT_EQ(monitor.evaluate(), 1u);
  EXPECT_EQ(hub.flight().events(FlightType::kSloViolation).size(), 1u);

  // Recovery, then a fresh breach: a second edge, a second event.
  depth.set(2);
  EXPECT_EQ(monitor.evaluate(), 0u);
  EXPECT_TRUE(monitor.site_healthy("3"));
  depth.set(50);
  EXPECT_EQ(monitor.evaluate(), 1u);
  EXPECT_EQ(hub.flight().events(FlightType::kSloViolation).size(), 2u);
}

TEST_F(HealthFixture, NoSignalHoldsPreviousVerdict) {
  bool give_signal = false;
  double value = 0;
  SloRule rule;
  rule.name = "flaky";
  rule.site = "7";
  rule.threshold = 1.0;
  rule.value = [&](const Snapshot&, TimeUs) -> std::optional<double> {
    if (!give_signal) return std::nullopt;
    return value;
  };
  monitor.add_rule(rule);

  // Unevaluable from the start: healthy.
  EXPECT_EQ(monitor.evaluate(), 0u);
  EXPECT_TRUE(monitor.health().statuses[0].healthy);
  EXPECT_FALSE(monitor.health().statuses[0].evaluated);

  give_signal = true;
  value = 5.0;
  EXPECT_EQ(monitor.evaluate(), 1u);
  // The signal goes away (site went quiet): the site stays demoted.
  give_signal = false;
  EXPECT_EQ(monitor.evaluate(), 1u);
  EXPECT_FALSE(monitor.site_healthy("7"));
  // Evidence of recovery flips it back.
  give_signal = true;
  value = 0.5;
  EXPECT_EQ(monitor.evaluate(), 0u);
  EXPECT_TRUE(monitor.site_healthy("7"));
}

TEST_F(HealthFixture, HealthSummaryAggregates) {
  Gauge g = hub.metrics().gauge("v");
  for (const char* name : {"a", "b"}) {
    SloRule r;
    r.name = name;
    r.threshold = 10.0;
    r.value = [&](const Snapshot& s, TimeUs) -> std::optional<double> {
      return static_cast<double>(s.gauge("v"));
    };
    monitor.add_rule(r);
  }
  g.set(99);
  monitor.evaluate();
  const HealthSummary sum = monitor.health();
  EXPECT_FALSE(sum.healthy);
  EXPECT_EQ(sum.rules, 2u);
  EXPECT_EQ(sum.violated, 2u);
  ASSERT_EQ(sum.statuses.size(), 2u);
  EXPECT_EQ(sum.statuses[0].rule, "a");
  EXPECT_DOUBLE_EQ(sum.statuses[0].value, 99.0);
}

TEST_F(HealthFixture, PeriodicEvaluationRunsOnInjectedScheduler) {
  // A hand-cranked event loop standing in for the simulator.
  struct Pending {
    TimeUs due;
    std::function<void()> fn;
  };
  std::vector<Pending> queue;
  Gauge g = hub.metrics().gauge("v");
  SloRule r;
  r.name = "watch";
  r.threshold = 10.0;
  r.value = [&](const Snapshot& s, TimeUs) -> std::optional<double> {
    return static_cast<double>(s.gauge("v"));
  };
  monitor.add_rule(r);
  monitor.start_periodic(
      [&](TimeUs delay, std::function<void()> fn) {
        queue.push_back({now + delay, std::move(fn)});
      },
      1000);

  g.set(50);
  std::size_t ran = 0;
  while (!queue.empty() && ran < 3) {
    Pending p = std::move(queue.front());
    queue.erase(queue.begin());
    now = p.due;
    p.fn();
    ++ran;
  }
  EXPECT_EQ(ran, 3u);
  EXPECT_FALSE(monitor.healthy());
  EXPECT_EQ(monitor.health().statuses[0].last_eval, 3000);
  // One edge, despite three periodic evaluations in violation.
  EXPECT_EQ(hub.flight().events(FlightType::kSloViolation).size(), 1u);

  monitor.stop_periodic();
  const std::size_t left = queue.size();
  EXPECT_EQ(left, 1u);  // the tick queued before stop; it must be inert
  for (auto& p : queue) p.fn();
  EXPECT_TRUE(queue.size() == left);  // stopped: nothing re-queued
}

TEST_F(HealthFixture, DestructionDisarmsQueuedTicks) {
  std::vector<std::function<void()>> queue;
  {
    HealthMonitor m(hub);
    m.start_periodic(
        [&](TimeUs, std::function<void()> fn) { queue.push_back(std::move(fn)); },
        500);
    ASSERT_EQ(queue.size(), 1u);
  }
  // The monitor is gone; firing the stale callback must be safe.
  queue.front()();
  SUCCEED();
}

TEST_F(HealthFixture, CannedStartupAndStallRules) {
  Histogram h = hub.metrics().histogram("lod.player.startup_us",
                                        {{"host", "2"}});
  Counter stalls = hub.metrics().counter("lod.player.stalls", {{"host", "2"}});
  Counter units =
      hub.metrics().counter("lod.player.units_rendered", {{"host", "2"}});
  monitor.add_rule(slo_startup_p95(/*max_us=*/1'000'000, /*min_samples=*/2));
  monitor.add_rule(slo_stall_ratio(/*max_ratio=*/0.1, /*min_rendered=*/10));

  // Below the sample floors: no signal, healthy.
  h.observe(2'000'000);
  EXPECT_EQ(monitor.evaluate(), 0u);

  h.observe(2'500'000);
  units.inc(100);
  stalls.inc(50);
  EXPECT_EQ(monitor.evaluate(), 2u);
  const auto sum = monitor.health();
  EXPECT_EQ(sum.statuses[0].rule, "startup_p95_us");
  EXPECT_FALSE(sum.statuses[0].healthy);
  EXPECT_EQ(sum.statuses[1].rule, "stall_ratio");
  EXPECT_DOUBLE_EQ(sum.statuses[1].value, 0.5);
}

TEST_F(HealthFixture, ReplicaStalenessReadsSelectorGauge) {
  Gauge last = hub.metrics().gauge(
      "lod.edge.selector.last_observation_us",
      {{"host", "9"}, {"site", "4"}});
  monitor.add_rule(slo_replica_staleness("4", /*max_age_us=*/1'000'000));
  EXPECT_EQ(monitor.evaluate(), 0u);
  last.set(0);
  now = 500'000;
  EXPECT_EQ(monitor.evaluate(), 0u);
  now = 2'000'000;
  EXPECT_EQ(monitor.evaluate(), 1u);
  EXPECT_FALSE(monitor.site_healthy("4"));
  // A fresh observation (any client) revives the site.
  last.set(1'900'000);
  EXPECT_EQ(monitor.evaluate(), 0u);
  EXPECT_TRUE(monitor.site_healthy("4"));
}
