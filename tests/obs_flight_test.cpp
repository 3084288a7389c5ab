// Unit tests for the flight recorder (lock-free journal, wraparound,
// concurrent writer/reader behavior, JSONL codec, dump-on-trigger, spans on
// the trace lane) and for the RollupStore / Snapshot::since window edge
// cases.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "lod/obs/debug.hpp"
#include "lod/obs/flight.hpp"
#include "lod/obs/hub.hpp"
#include "lod/obs/metrics.hpp"
#include "lod/obs/rollup.hpp"

using namespace lod::obs;

// --- FlightType codec -------------------------------------------------------

TEST(FlightType, NamesRoundTripEveryValue) {
  for (int i = 0; i <= static_cast<int>(FlightType::kPublish); ++i) {
    const auto t = static_cast<FlightType>(i);
    const auto back = flight_type_from_string(to_string(t));
    ASSERT_TRUE(back.has_value()) << to_string(t);
    EXPECT_EQ(*back, t);
  }
  EXPECT_FALSE(flight_type_from_string("no_such_event").has_value());
}

// --- recording basics -------------------------------------------------------

TEST(FlightRecorder, RecordsAndReadsBack) {
  FlightRecorder rec;
  rec.record_at(100, FlightType::kSyncVerdict, 7, 42, 2);
  rec.record_at(200, FlightType::kFrameDrop, 3, 9,
                static_cast<std::int64_t>(DropCause::kQueue));
  const auto evs = rec.events(FlightRecorder::kLaneControl);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].t, 100);
  EXPECT_EQ(evs[0].type, FlightType::kSyncVerdict);
  EXPECT_EQ(evs[0].actor, 7u);
  EXPECT_EQ(evs[0].a, 42);
  EXPECT_EQ(evs[0].b, 2);
  EXPECT_EQ(evs[1].type, FlightType::kFrameDrop);
  EXPECT_EQ(rec.total_recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder rec;
  rec.set_enabled(false);
  rec.record_at(1, FlightType::kSimEvent);
  EXPECT_EQ(rec.total_recorded(), 0u);
  rec.set_enabled(true);
  rec.record_at(2, FlightType::kSimEvent);
  EXPECT_EQ(rec.total_recorded(), 1u);
}

TEST(FlightRecorder, LanesAreIsolated) {
  FlightRecorder rec;
  rec.record_at(10, FlightType::kSloViolation, 0, 0, 0,
                FlightRecorder::kLaneControl);
  for (int i = 0; i < 100; ++i) {
    rec.record_at(20 + i, FlightType::kSimEvent, 0, i, 0,
                  FlightRecorder::kLaneDispatch);
  }
  EXPECT_EQ(rec.events(FlightRecorder::kLaneControl).size(), 1u);
  EXPECT_EQ(rec.events(FlightRecorder::kLaneDispatch).size(), 100u);
  // The merged view is one timeline sorted by t.
  const auto all = rec.events();
  ASSERT_EQ(all.size(), 101u);
  EXPECT_EQ(all.front().type, FlightType::kSloViolation);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].t, all[i].t);
  }
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDropped) {
  FlightRecorder::Config cfg;
  cfg.capacity = 8;  // already a power of two
  FlightRecorder rec(cfg);
  ASSERT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    rec.record_at(i, FlightType::kSimEvent, 0, i);
  }
  const auto evs = rec.events(FlightRecorder::kLaneControl);
  // A wrapped ring retains capacity-1 events: the oldest slot is never
  // claimed because an unpublished write at head could be overwriting it.
  ASSERT_EQ(evs.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(evs[i].a, 13 + i);
  }
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 13u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder::Config cfg;
  cfg.capacity = 5;
  cfg.lanes = 3;
  FlightRecorder rec(cfg);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.lanes(), 4u);
  // Out-of-range lane arguments wrap instead of overflowing.
  rec.record_at(1, FlightType::kSimEvent, 0, 0, 0, /*lane=*/7);
  EXPECT_EQ(rec.events(3).size(), 1u);
}

// Concurrent writers (one per lane, the single-writer contract; the third
// writes the trace lane, interning a detail per event) against a reader
// snapshotting mid-stream. Run under TSan in CI: the slot words are relaxed
// atomics and the overwrite guard discards torn candidates, so the
// race-free property is checkable, not just asserted.
TEST(FlightRecorder, ConcurrentWritersAndReaderStaySane) {
  FlightRecorder::Config cfg;
  cfg.capacity = 64;
  cfg.lanes = 2;
  FlightRecorder rec(cfg);
  rec.set_tracing(true);
  constexpr int kPerLane = 20'000;
  std::atomic<bool> go{false};

  auto writer = [&](std::size_t lane) {
    while (!go.load()) {
    }
    for (int i = 0; i < kPerLane; ++i) {
      rec.record_at(i, FlightType::kSimEvent, static_cast<std::uint32_t>(lane),
                    i, 7, lane);
    }
  };
  std::thread w0(writer, FlightRecorder::kLaneControl);
  std::thread w1(writer, FlightRecorder::kLaneDispatch);
  std::thread w2([&] {
    while (!go.load()) {
    }
    for (int i = 0; i < kPerLane; ++i) {
      rec.emit(FlightType::kSimEvent, 2, i, 7, i % 2 ? "odd" : "even");
    }
  });
  std::thread reader([&] {
    while (!go.load()) {
    }
    for (int pass = 0; pass < 200; ++pass) {
      for (const FlightEvent& e : rec.events()) {
        // Every surviving event must be fully formed, never torn garbage.
        ASSERT_EQ(e.type, FlightType::kSimEvent);
        ASSERT_EQ(e.b, 7);
        ASSERT_LT(e.a, kPerLane);
        if (e.lane == rec.lanes()) {
          ASSERT_EQ(e.detail, e.a % 2 ? "odd" : "even");
        }
      }
    }
  });
  go.store(true);
  w0.join();
  w1.join();
  w2.join();
  reader.join();
  EXPECT_EQ(rec.total_recorded(), 3u * kPerLane);
  // After the writers stop, a clean read sees the full capacity-1 window.
  EXPECT_EQ(rec.events(FlightRecorder::kLaneControl).size(), 63u);
  EXPECT_EQ(rec.trace_events().size(), FlightRecorder::kTraceCapacity - 1);
  EXPECT_EQ(rec.strings().size(), 2u);
}

// --- JSONL codec ------------------------------------------------------------

TEST(FlightRecorder, JsonlRoundTrips) {
  FlightRecorder rec;
  rec.record_at(5, FlightType::kSyncVerdict, 1, 99, 2);
  rec.record_at(6, FlightType::kResync, 1, 99, 3,
                FlightRecorder::kLaneControl);
  const std::string text = rec.to_jsonl();
  const auto parsed = parse_jsonl(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].t, 5);
  EXPECT_EQ(parsed[0].type, FlightType::kSyncVerdict);
  EXPECT_EQ(parsed[0].actor, 1u);
  EXPECT_EQ(parsed[0].a, 99);
  EXPECT_EQ(parsed[0].b, 2);
  EXPECT_EQ(parsed[1].type, FlightType::kResync);
}

TEST(FlightRecorder, ParseSkipsMetaAndGarbageLines) {
  const std::string text =
      "{\"flight_dump\":{\"reason\":\"slo.x\",\"t\":9}}\n"
      "not json at all\n"
      "{\"t\":4,\"type\":\"span_begin\"}\n"  // retired trace schema: no "ft"
      "{\"t\":4,\"ft\":\"frame_drop\",\"lane\":0,\"actor\":2,\"a\":1,\"b\":4}\n"
      "\n";
  const auto parsed = parse_jsonl(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, FlightType::kFrameDrop);
  EXPECT_EQ(parsed[0].b, 4);
}

// --- dump-on-trigger --------------------------------------------------------

TEST(FlightRecorder, TriggerWithoutSinkOnlyCounts) {
  FlightRecorder rec;
  rec.record_at(1, FlightType::kSloViolation);
  EXPECT_EQ(rec.trigger_dump("slo.startup_p95"), 1u);
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_TRUE(rec.last_dump().reason.empty());  // nothing rendered
  // The trigger itself left a kDump marker in the journal.
  const auto evs = rec.events(FlightRecorder::kLaneControl);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[1].type, FlightType::kDump);
  EXPECT_EQ(evs[1].a, 1);
}

TEST(FlightRecorder, TriggerWithSinkDeliversRenderedJournal) {
  FlightRecorder rec;
  rec.set_clock([] { return TimeUs{777}; });
  std::vector<FlightDump> got;
  rec.on_dump([&](const FlightDump& d) { got.push_back(d); });
  rec.record_at(10, FlightType::kSyncVerdict, 3, 5, 2);
  rec.trigger_dump("sync.persistent_desync");

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].reason, "sync.persistent_desync");
  EXPECT_EQ(got[0].t, 777);
  EXPECT_EQ(got[0].events, 2u);  // the verdict + the kDump marker
  // The JSONL leads with the meta line and parses back to the journal.
  EXPECT_EQ(got[0].jsonl.find("{\"flight_dump\":{\"reason\":"), 0u);
  const auto parsed = parse_jsonl(got[0].jsonl);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, FlightType::kSyncVerdict);
  EXPECT_EQ(parsed[1].type, FlightType::kDump);
  EXPECT_EQ(rec.last_dump().reason, "sync.persistent_desync");
}

// --- hub wiring -------------------------------------------------------------

TEST(FlightRecorder, HubJournalsSpansWithTheirNames) {
  Hub hub;
  hub.set_clock([] { return TimeUs{123}; });
  hub.flight().set_tracing(true);
  const TraceContext ctx = hub.flight().make_trace();
  const auto span = hub.flight().begin_span(ctx, "sync.resync", 4);
  hub.flight().end_span(ctx, span, "sync.resync", 4);

  // Spans live on the trace lane, never on the control lane they would
  // otherwise crowd.
  EXPECT_TRUE(hub.flight().events(FlightRecorder::kLaneControl).empty());
  const auto evs = hub.flight().trace_events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].type, FlightType::kSpanBegin);
  EXPECT_EQ(evs[0].t, 123);
  EXPECT_EQ(evs[0].actor, 4u);
  EXPECT_EQ(evs[0].span, span);
  EXPECT_EQ(evs[0].trace, ctx.trace_id);
  EXPECT_EQ(evs[0].detail, "sync.resync");
  EXPECT_EQ(evs[1].type, FlightType::kSpanEnd);
  EXPECT_EQ(evs[1].detail, "sync.resync");
  // A dump renders them in the journal's one schema, names included.
  const std::string text = hub.flight().to_jsonl();
  EXPECT_NE(text.find("\"ft\":\"span_begin\""), std::string::npos);
  EXPECT_NE(text.find("\"detail\":\"sync.resync\""), std::string::npos);
}

// --- RollupStore ------------------------------------------------------------

TEST(RollupStore, PrimesThenAppendsWindows) {
  MetricsRegistry reg;
  Counter c = reg.counter("x.count");
  RollupStore::Config cfg;
  cfg.windows = 4;
  RollupStore store(cfg);

  store.roll(reg.snapshot(), 1'000'000);  // prime only
  EXPECT_TRUE(store.primed());
  EXPECT_EQ(store.size(), 0u);

  c.inc(10);
  store.roll(reg.snapshot(), 2'000'000);
  c.inc(30);
  store.roll(reg.snapshot(), 3'000'000);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.windows()[0].delta.total("x.count"), 10u);
  EXPECT_EQ(store.windows()[1].delta.total("x.count"), 30u);

  const auto all = store.rate("x.count");
  EXPECT_EQ(all.delta, 40u);
  EXPECT_EQ(all.over_us, 2'000'000);
  EXPECT_DOUBLE_EQ(all.per_second(), 20.0);
  const auto last = store.rate("x.count", 1);
  EXPECT_EQ(last.delta, 30u);
}

TEST(RollupStore, EmptyWindowDiffIsDropped) {
  MetricsRegistry reg;
  Counter c = reg.counter("x.count");
  RollupStore store;
  store.roll(reg.snapshot(), 500);
  c.inc();
  store.roll(reg.snapshot(), 500);  // time did not advance: no window
  EXPECT_EQ(store.size(), 0u);
  // ...but the baseline moved, so the next window counts only new work.
  c.inc(5);
  store.roll(reg.snapshot(), 1500);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.windows()[0].delta.total("x.count"), 5u);
  EXPECT_EQ(store.rate("nonexistent").delta, 0u);
}

TEST(RollupStore, WindowRingIsBounded) {
  MetricsRegistry reg;
  Counter c = reg.counter("x.count");
  RollupStore::Config cfg;
  cfg.windows = 3;
  RollupStore store(cfg);
  store.roll(reg.snapshot(), 0);
  for (int i = 1; i <= 10; ++i) {
    c.inc();
    store.roll(reg.snapshot(), i * 1000);
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.oldest_start(), 7000);
  EXPECT_EQ(store.newest_end(), 10'000);
}

TEST(RollupStore, CounterBelowBaselineKeepsCurrentTotal) {
  MetricsRegistry reg;
  RollupStore store;
  reg.counter("x.bytes", {{"host", "1"}}).inc(100);
  store.roll(reg.snapshot(), 1000);
  // The next snapshot comes from a second registry (a restarted process)
  // whose total is lower. The window must not underflow: the reset rule
  // keeps the current total (7) whole.
  MetricsRegistry restarted;
  restarted.counter("x.bytes", {{"host", "1"}}).inc(7);
  store.roll(restarted.snapshot(), 2000);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.windows()[0].delta.total("x.bytes"), 7u);
  EXPECT_EQ(store.rate("x.bytes").delta, 7u);
}

TEST(RollupStore, HistogramBelowBaselineKeepsCurrentTallies) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lat.us");
  h.observe(10);
  h.observe(20);
  h.observe(30);
  const Snapshot before = reg.snapshot();
  // A second registry with the same series: totals go DOWN between
  // snapshots.
  MetricsRegistry restarted;
  restarted.histogram("lat.us").observe(5);
  const Snapshot after = restarted.snapshot();
  const Snapshot delta = after.since(before);
  const HistogramData* d = delta.histogram("lat.us");
  ASSERT_NE(d, nullptr);
  // Reset semantics mirror the counter clamp: keep the current tallies
  // whole instead of underflowing the unsigned counts.
  EXPECT_EQ(d->count, 1u);
  EXPECT_EQ(d->sum, 5);
}

TEST(RollupStore, HistogramMergesAcrossWindows) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lat.us", {10, 100});
  RollupStore store;
  store.roll(reg.snapshot(), 0);
  h.observe(5);
  h.observe(50);
  store.roll(reg.snapshot(), 1000);
  h.observe(500);
  store.roll(reg.snapshot(), 2000);

  const HistogramData merged = store.merged_histogram("lat.us");
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 555);
  ASSERT_EQ(merged.counts.size(), 3u);
  EXPECT_EQ(merged.counts[0], 1u);  // <=10
  EXPECT_EQ(merged.counts[1], 1u);  // <=100
  EXPECT_EQ(merged.counts[2], 1u);  // overflow
  // A span of one window sees only the newest observation.
  EXPECT_EQ(store.merged_histogram("lat.us", 1).count, 1u);
  EXPECT_EQ(store.merged_histogram("absent").count, 0u);
}

// --- debug renderers --------------------------------------------------------

TEST(DebugPlane, VarsJsonCarriesRatesAndSeries) {
  MetricsRegistry reg;
  Counter c = reg.counter("x.count");
  RollupStore store;
  store.roll(reg.snapshot(), 0);
  c.inc(4);
  store.roll(reg.snapshot(), 1'000'000);
  const std::string json = debug_vars_json(reg.snapshot(), &store, 1'500'000);
  EXPECT_NE(json.find("\"t\":1500000"), std::string::npos);
  EXPECT_NE(json.find("\"x.count\":{\"delta\":4"), std::string::npos);
  EXPECT_NE(json.find("\"per_second\":4.000"), std::string::npos);
  EXPECT_NE(json.find("\"series\":["), std::string::npos);
  // Null rollup: series only, no rates section.
  const std::string bare = debug_vars_json(reg.snapshot(), nullptr, 1);
  EXPECT_EQ(bare.find("\"rates\""), std::string::npos);
}

TEST(DebugPlane, SessionsJsonGroupsByLabels) {
  MetricsRegistry reg;
  reg.counter("lod.server.sessions_opened", {{"host", "1"}}).inc(2);
  reg.gauge("lod.server.active_sessions", {{"host", "1"}}).set(1);
  reg.gauge("lod.edge.active_sessions", {{"host", "2"}}).set(1);
  reg.counter("lod.server.packets_sent", {{"host", "1"}}).inc(99);
  SessionRow origin{.role = "server", .host = 1, .id = 9, .client = 4};
  origin.stats.packets_sent = 55;
  origin.stats.seeks = 3;
  const SessionRow edge{.role = "edge", .host = 2, .id = 1, .client = 5,
                        .parked = true};
  const std::string json = debug_sessions_json(reg.snapshot(), {origin, edge});
  EXPECT_NE(json.find("\"lod.server.active_sessions\""), std::string::npos);
  EXPECT_NE(json.find("\"lod.edge.active_sessions\""), std::string::npos);
  EXPECT_EQ(json.find("lod.server.packets_sent"), std::string::npos);
  // Rows are ordered by role, host and id: the edge row comes first.
  const auto edge_at = json.find("{\"role\":\"edge\",\"host\":2,\"id\":1,"
                                 "\"client\":5,\"paused\":false,"
                                 "\"parked\":true,");
  const auto origin_at = json.find("{\"role\":\"server\",\"host\":1,\"id\":9,");
  ASSERT_NE(edge_at, std::string::npos) << json;
  ASSERT_NE(origin_at, std::string::npos) << json;
  EXPECT_LT(edge_at, origin_at);
  EXPECT_NE(json.find("\"packets_sent\":55"), std::string::npos);
  EXPECT_NE(json.find("\"seeks\":3"), std::string::npos);
  EXPECT_NE(debug_sessions_json(reg.snapshot(), {}).find("\"sessions\":[]}"),
            std::string::npos);
}

TEST(DebugPlane, SyncJsonFiltersToSyncSeries) {
  MetricsRegistry reg;
  reg.counter("lod.sync.epochs", {{"host", "2"}}).inc(12);
  reg.counter("lod.server.packets_sent").inc(99);
  const std::string json = debug_sync_json(reg.snapshot());
  EXPECT_NE(json.find("lod.sync.epochs"), std::string::npos);
  EXPECT_NE(json.find("\"value\":12"), std::string::npos);
  EXPECT_EQ(json.find("lod.server.packets_sent"), std::string::npos);
}

TEST(DebugPlane, TraceJsonIndexAndSingleTree) {
  Hub hub;
  hub.set_clock([] { return TimeUs{50}; });
  hub.flight().set_tracing(true);
  const TraceContext ctx = hub.flight().make_trace();
  const auto span = hub.flight().begin_span(ctx, "player.startup", 1);
  hub.flight().end_span(ctx, span, "player.startup", 1);

  const auto events = hub.flight().trace_events();
  const std::string index = debug_trace_json(events, 0);
  EXPECT_NE(index.find("\"traces\":["), std::string::npos);
  EXPECT_NE(index.find("\"root\":\"player.startup\""), std::string::npos);

  const std::string tree = debug_trace_json(events, ctx.trace_id);
  EXPECT_NE(tree.find("\"name\":\"player.startup\""), std::string::npos);
  EXPECT_NE(tree.find("\"critical_path\":[0]"), std::string::npos);

  const std::string missing = debug_trace_json(events, 0xdead);
  EXPECT_NE(missing.find("trace not found"), std::string::npos);
}

TEST(DebugPlane, FlightJsonlMatchesDumpFormat) {
  FlightRecorder rec;
  rec.record_at(9, FlightType::kCacheMiss, 2, 31);
  const std::string text = debug_flight_jsonl(rec, 4242);
  EXPECT_EQ(text.find("{\"flight_dump\":{\"reason\":\"live\",\"t\":4242"), 0u);
  const auto parsed = parse_jsonl(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, FlightType::kCacheMiss);
}
