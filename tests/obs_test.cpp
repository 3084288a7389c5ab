// Unit tests for the observability layer: the metrics registry (handles,
// labels, snapshots/diffs) and tracing on the event journal (trace lane,
// string table, JSONL, span helpers).

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "lod/obs/flight.hpp"
#include "lod/obs/hub.hpp"
#include "lod/obs/json.hpp"
#include "lod/obs/metrics.hpp"

using namespace lod::obs;

// --- metrics ----------------------------------------------------------------------

TEST(Metrics, NullHandlesAreInertAndFalsy) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(5);
  h.observe(42);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.data(), nullptr);
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
}

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry reg;
  Counter c = reg.counter("lod.test.count");
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);

  Gauge g = reg.gauge("lod.test.active");
  g.set(3);
  g.add(-1);
  EXPECT_EQ(g.value(), 2);
}

TEST(Metrics, SameIdentityResolvesToSameCell) {
  MetricsRegistry reg;
  Counter a = reg.counter("lod.test.n", {{"host", "1"}, {"session", "2"}});
  // Label order at the call site must not create a distinct series.
  Counter b = reg.counter("lod.test.n", {{"session", "2"}, {"host", "1"}});
  a.inc(4);
  EXPECT_EQ(b.value(), 4u);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(Metrics, LabelCardinalityCreatesDistinctSeries) {
  MetricsRegistry reg;
  for (int host = 0; host < 3; ++host) {
    reg.counter("lod.test.n", {{"host", std::to_string(host)}}).inc();
  }
  reg.counter("lod.test.n").inc(5);  // unlabeled is its own series
  EXPECT_EQ(reg.series_count(), 4u);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("lod.test.n", {{"host", "1"}}), 1u);
  EXPECT_EQ(snap.counter("lod.test.n"), 5u);
  EXPECT_EQ(snap.total("lod.test.n"), 8u);
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("lod.test.x");
  EXPECT_THROW(reg.gauge("lod.test.x"), std::logic_error);
  EXPECT_THROW(reg.histogram("lod.test.x"), std::logic_error);
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  Histogram h =
      reg.histogram("lod.test.lat", std::vector<std::int64_t>{10, 100, 1000});
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (bounds are inclusive upper bounds)
  h.observe(50);    // <= 100
  h.observe(5000);  // overflow
  const HistogramData* d = h.data();
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->counts.size(), 4u);
  EXPECT_EQ(d->counts[0], 2u);
  EXPECT_EQ(d->counts[1], 1u);
  EXPECT_EQ(d->counts[2], 0u);
  EXPECT_EQ(d->counts[3], 1u);
  EXPECT_EQ(d->count, 4u);
  EXPECT_EQ(d->sum, 5065);
  EXPECT_EQ(d->min, 5);
  EXPECT_EQ(d->max, 5000);
  EXPECT_DOUBLE_EQ(d->mean(), 5065.0 / 4.0);
  EXPECT_EQ(d->quantile_bound(0.5), 10);
  // The overflow bucket reports the observed max.
  EXPECT_EQ(d->quantile_bound(1.0), 5000);
}

TEST(Metrics, DefaultHistogramUsesLatencyBuckets) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lod.test.lat");
  ASSERT_NE(h.data(), nullptr);
  EXPECT_EQ(h.data()->bounds, MetricsRegistry::latency_buckets_us());
}

// --- handle semantics ------------------------------------------------------------
// The handle API is the hot path; the string API is the cold resolver. These
// pin the contract between them across kind conflicts and label order.

TEST(Metrics, HandleAndStringWritesLandInTheSameCell) {
  MetricsRegistry reg;
  const Labels at{{"host", "2"}};
  const Counter h = reg.counter("lod.test.mixed", at);
  h.inc(3);                              // handle write
  reg.counter("lod.test.mixed", at).inc(4);  // string-API write
  h.inc(5);
  // One series, one value: a snapshot cannot tell the two paths apart.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("lod.test.mixed", at), 12u);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(Metrics, KindConflictThrowsRegardlessOfResolutionOrder) {
  MetricsRegistry reg;
  reg.counter("lod.test.kc");
  EXPECT_THROW(reg.gauge("lod.test.kc"), std::logic_error);
  EXPECT_THROW(reg.histogram("lod.test.kc"), std::logic_error);
  reg.gauge("lod.test.kc2");
  EXPECT_THROW(reg.counter("lod.test.kc2"), std::logic_error);
}

TEST(Metrics, ResolveIsLabelOrderInsensitiveForHandles) {
  MetricsRegistry reg;
  const Counter a = reg.counter("lod.test.lo", {{"x", "1"}, {"y", "2"}});
  const Counter b = reg.counter("lod.test.lo", {{"y", "2"}, {"x", "1"}});
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);  // same cell either way
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(Metrics, MergedHistogramFallsBackToMomentsOnMismatchedBounds) {
  MetricsRegistry reg;
  Histogram a = reg.histogram("lat", {10, 20}, {{"host", "0"}});
  Histogram b = reg.histogram("lat", {100, 200, 300}, {{"host", "1"}});
  a.observe(5);
  a.observe(15);
  b.observe(250);
  const HistogramData merged = reg.snapshot().merged_histogram("lat");
  // Bucket layouts disagree: per-bucket counts are meaningless, so the
  // merge keeps only the moments.
  EXPECT_TRUE(merged.bounds.empty());
  EXPECT_TRUE(merged.counts.empty());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 270);
  EXPECT_EQ(merged.min, 5);
  EXPECT_EQ(merged.max, 250);
  // Matching layouts still merge bucket-wise.
  Histogram c = reg.histogram("lat2", {10, 20}, {{"host", "0"}});
  Histogram d = reg.histogram("lat2", {10, 20}, {{"host", "1"}});
  c.observe(5);
  d.observe(15);
  const HistogramData same = reg.snapshot().merged_histogram("lat2");
  ASSERT_EQ(same.counts.size(), 3u);
  EXPECT_EQ(same.counts[0], 1u);
  EXPECT_EQ(same.counts[1], 1u);
}

TEST(Metrics, SnapshotDiffIsolatesAPhase) {
  MetricsRegistry reg;
  Counter c = reg.counter("lod.test.n");
  Histogram h = reg.histogram("lod.test.lat", std::vector<std::int64_t>{100});
  c.inc(7);
  h.observe(50);
  const Snapshot before = reg.snapshot();
  c.inc(3);
  h.observe(200);
  const Snapshot delta = reg.snapshot().since(before);
  EXPECT_EQ(delta.counter("lod.test.n"), 3u);
  const HistogramData* d = delta.histogram("lod.test.lat");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 1u);
  EXPECT_EQ(d->sum, 200);
  ASSERT_EQ(d->counts.size(), 2u);
  EXPECT_EQ(d->counts[0], 0u);
  EXPECT_EQ(d->counts[1], 1u);
}

TEST(Metrics, SnapshotIsImmutableCopy) {
  MetricsRegistry reg;
  Counter c = reg.counter("lod.test.n");
  c.inc();
  const Snapshot snap = reg.snapshot();
  c.inc(100);
  EXPECT_EQ(snap.counter("lod.test.n"), 1u);
}

TEST(Metrics, MergedHistogramAcrossLabels) {
  MetricsRegistry reg;
  const std::vector<std::int64_t> bounds{10, 100};
  reg.histogram("lod.test.lat", bounds, {{"host", "0"}}).observe(5);
  reg.histogram("lod.test.lat", bounds, {{"host", "1"}}).observe(50);
  const HistogramData merged =
      reg.snapshot().merged_histogram("lod.test.lat");
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.sum, 55);
  EXPECT_EQ(merged.min, 5);
  EXPECT_EQ(merged.max, 50);
  ASSERT_EQ(merged.counts.size(), 3u);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 1u);
}

// --- trace ------------------------------------------------------------------------
// Tracing is the journal's trace lane: off by default, stamped by the
// journal's clock, and rendered in the journal's one JSONL schema.

TEST(Trace, DisabledSinkRecordsNothing) {
  FlightRecorder journal;
  EXPECT_FALSE(journal.tracing());
  journal.emit(FlightType::kStall, 1, 2, 3, "x");
  EXPECT_TRUE(journal.trace_events().empty());
  EXPECT_EQ(journal.total_recorded(), 0u);
  EXPECT_EQ(journal.strings().size(), 0u);  // nothing interned either
}

TEST(Trace, EmitStampsWithInstalledClock) {
  FlightRecorder journal;
  journal.set_tracing(true);
  TimeUs now = 0;
  journal.set_clock([&now] { return now; });
  now = 42;
  journal.emit(FlightType::kSessionOpen, 7, 1, 2, "lec");
  const auto evs = journal.trace_events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].t, 42);
  EXPECT_EQ(evs[0].type, FlightType::kSessionOpen);
  EXPECT_EQ(evs[0].lane, journal.lanes());  // one past the writer lanes
  EXPECT_EQ(evs[0].actor, 7u);
  EXPECT_EQ(evs[0].a, 1);
  EXPECT_EQ(evs[0].b, 2);
  EXPECT_EQ(evs[0].detail, "lec");
}

TEST(Trace, RingWrapsAndCountsDropped) {
  FlightRecorder journal;
  journal.set_tracing(true);
  constexpr std::size_t kCap = FlightRecorder::kTraceCapacity;
  for (std::size_t i = 0; i < kCap + 6; ++i) {
    journal.emit(FlightType::kPacketSend, 0, static_cast<std::int64_t>(i));
  }
  // Like every lane, a wrapped trace lane keeps capacity-1 events.
  const auto evs = journal.trace_events();
  ASSERT_EQ(evs.size(), kCap - 1);
  EXPECT_EQ(journal.dropped(), 7u);
  EXPECT_EQ(journal.total_recorded(), kCap + 6);
  // Oldest first, and the survivors are the most recent ones.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].a, static_cast<std::int64_t>(7 + i));
  }
}

TEST(Trace, EventsFilterByType) {
  FlightRecorder journal;
  journal.set_tracing(true);
  journal.emit(FlightType::kFloorRequest, 0, 0, 0, "alice");
  journal.emit(FlightType::kFloorGrant, 0, 0, 0, "alice");
  journal.emit(FlightType::kFloorRequest, 0, 0, 0, "bob");
  const auto reqs = journal.events(FlightType::kFloorRequest);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].detail, "alice");
  EXPECT_EQ(reqs[1].detail, "bob");
}

TEST(Trace, EveryEventTypeNameRoundTrips) {
  // Every name the retired trace-sink schema wrote still parses to the
  // journal type that replaced it: folding the enums renamed nothing.
  const std::vector<std::string_view> names = {
      "packet_send",    "packet_recv",   "packet_drop_loss",
      "packet_drop_queue", "msg_retransmit", "session_open",
      "session_pause",  "session_resume", "session_seek",
      "session_rate",   "session_stop",  "session_eos",
      "play_issued",    "render_start",  "stall",
      "slide_fetch",    "slide_show",    "annotation",
      "repair_request", "repair_resend", "clock_sync",
      "floor_request",  "floor_grant",   "floor_deny",
      "floor_release",  "transition_fire", "publish",
      "span_begin",     "span_end",      "slo_violation",
  };
  for (const std::string_view name : names) {
    const auto t = flight_type_from_string(name);
    ASSERT_TRUE(t.has_value()) << name;
    EXPECT_EQ(to_string(*t), name);
  }
  EXPECT_FALSE(flight_type_from_string("no_such_event").has_value());
}

TEST(Trace, JsonlRoundTripsIncludingEscapes) {
  FlightRecorder journal;
  journal.set_tracing(true);
  TimeUs now = 1'000'000;
  journal.set_clock([&now] { return now; });
  journal.emit(FlightType::kPublish, 3, -7, 9,
               "a \"quoted\"\npath\\with\ttabs");
  journal.emit(FlightType::kTransitionFire, 12, 34);
  const std::string text = journal.to_jsonl();
  const auto parsed = parse_jsonl(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].t, 1'000'000);
  EXPECT_EQ(parsed[0].type, FlightType::kPublish);
  EXPECT_EQ(parsed[0].actor, 3u);
  EXPECT_EQ(parsed[0].a, -7);
  EXPECT_EQ(parsed[0].b, 9);
  EXPECT_EQ(parsed[0].detail, "a \"quoted\"\npath\\with\ttabs");
  EXPECT_EQ(parsed[1].type, FlightType::kTransitionFire);
  EXPECT_EQ(parsed[1].actor, 12u);
  // Garbage lines are skipped, valid ones kept.
  const auto mixed = parse_jsonl("not json\n" + text + "\n{}\n");
  EXPECT_EQ(mixed.size(), 2u);
}

TEST(Trace, JsonlRoundTripsHostileContent) {
  // Regression: control characters used to be emitted raw (invalid JSON)
  // and a backslash-quote pair confused the field scanner.
  const std::vector<std::string> hostile = {
      std::string("ctrl\x01\x1f\x7fmix"),
      "trailing backslash \\",
      "\\\" starts with escaped quote",
      "quote\"backslash\\quote\"",
      std::string("embedded\x00null", 13),
      "\b\f\n\r\t",
      "plain",
      "\",\"ft\":\"dump\",\"a\":1",  // a forged field inside the text
  };
  FlightRecorder journal;
  journal.set_tracing(true);
  for (const std::string& s : hostile) {
    journal.emit(FlightType::kPublish, 1, 2, 3, s);
  }
  const auto parsed = parse_jsonl(journal.to_jsonl());
  ASSERT_EQ(parsed.size(), hostile.size());
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(parsed[i].type, FlightType::kPublish) << i;
    EXPECT_EQ(parsed[i].a, 2) << i;
    EXPECT_EQ(parsed[i].detail, hostile[i]) << i;
  }
  // The exported text may not leak raw control bytes (they'd make the line
  // invalid JSON); everything below 0x20 must have been \u00XX-escaped.
  for (const char c : journal.to_jsonl()) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << static_cast<int>(c);
  }
}

TEST(Trace, StringTableIsBounded) {
  StringTable table;
  EXPECT_EQ(table.intern(""), 0u);  // no text, no entry
  const std::uint32_t first = table.intern("player.session");
  EXPECT_EQ(table.intern("player.session"), first);  // interned once
  for (std::size_t i = 0; table.size() < StringTable::kMaxEntries; ++i) {
    ASSERT_NE(table.intern("user" + std::to_string(i)), 0u);
  }
  // Full: new text is refused and counted; known text still resolves.
  EXPECT_EQ(table.intern("one too many"), 0u);
  EXPECT_EQ(table.overflow(), 1u);
  EXPECT_EQ(table.size(), StringTable::kMaxEntries);
  EXPECT_EQ(table.intern("player.session"), first);
  EXPECT_EQ(table.lookup(first), "player.session");
  EXPECT_EQ(table.lookup(0), "");

  // The byte cap binds before the entry cap for long text.
  StringTable bytes;
  const std::string big(StringTable::kMaxBytes / 2 + 1, 'x');
  EXPECT_NE(bytes.intern(big), 0u);
  EXPECT_EQ(bytes.intern(big + "y"), 0u);
  EXPECT_EQ(bytes.overflow(), 1u);
}

namespace {
FlightEvent ev(TimeUs t, FlightType type, std::uint32_t actor = 0) {
  FlightEvent e;
  e.t = t;
  e.type = type;
  e.actor = actor;
  return e;
}
}  // namespace

TEST(Trace, SpanHelpers) {
  const std::vector<FlightEvent> evs = {
      ev(10, FlightType::kPublish, 1),
      ev(25, FlightType::kRenderStart, 2),
      ev(40, FlightType::kSessionSeek, 2),
      ev(47, FlightType::kRenderStart, 2),
      ev(60, FlightType::kSessionSeek, 2),   // restarted below: latest wins
      ev(70, FlightType::kSessionSeek, 2),
      ev(75, FlightType::kRenderStart, 2),
  };
  const auto first = first_event(evs, FlightType::kRenderStart);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->t, 25);
  EXPECT_FALSE(first_event(evs, FlightType::kRenderStart, 9).has_value());

  // publish -> first frame.
  const auto preroll =
      span_between(evs, FlightType::kPublish, FlightType::kRenderStart);
  ASSERT_TRUE(preroll.has_value());
  EXPECT_EQ(*preroll, 15);

  // Every seek -> resume; the back-to-back seek at t=60 is superseded at 70.
  const auto seeks = span_latencies(evs, FlightType::kSessionSeek,
                                    FlightType::kRenderStart, 2);
  ASSERT_EQ(seeks.size(), 2u);
  EXPECT_EQ(seeks[0], 7);
  EXPECT_EQ(seeks[1], 5);

  EXPECT_FALSE(span_between(evs, FlightType::kStall, FlightType::kRenderStart)
                   .has_value());
}

// --- hub --------------------------------------------------------------------------

TEST(Hub, SharesClockBetweenMetricsAndTrace) {
  Hub hub;
  TimeUs now = 0;
  hub.set_clock([&now] { return now; });
  now = 123;
  EXPECT_EQ(hub.now_us(), 123);
  hub.flight().set_tracing(true);
  hub.flight().emit(FlightType::kSpanBegin);
  ASSERT_EQ(hub.flight().trace_events().size(), 1u);
  EXPECT_EQ(hub.flight().trace_events()[0].t, 123);

  hub.metrics().counter("lod.test.n").inc(2);
  EXPECT_EQ(hub.snapshot().counter("lod.test.n"), 2u);
}

// --- histogram quantile edge cases ------------------------------------------------

TEST(Metrics, QuantileBoundEdgeCases) {
  HistogramData h;
  h.bounds = {10, 100, 1000};
  h.counts.assign(4, 0);
  EXPECT_EQ(h.quantile_bound(0.5), 0);  // empty

  h.observe(7);  // single sample in the first bucket
  // Any quantile of a one-sample distribution is that sample's bucket: the
  // target order statistic must clamp into [1, count], so q -> 0 cannot
  // round down to "the zeroth observation" and fall through to the overflow
  // bucket's max.
  EXPECT_EQ(h.quantile_bound(0.0001), 10);
  EXPECT_EQ(h.quantile_bound(0.5), 10);
  EXPECT_EQ(h.quantile_bound(1.0), 10);
}

TEST(Metrics, QuantileBoundTinyQOverManySamples) {
  HistogramData h;
  h.bounds = {10, 100};
  h.counts.assign(3, 0);
  for (int i = 0; i < 100; ++i) h.observe(i < 50 ? 5 : 50);
  // q so small the rounded target would be 0 without clamping.
  EXPECT_EQ(h.quantile_bound(0.001), 10);
  EXPECT_EQ(h.quantile_bound(0.5), 10);
  EXPECT_EQ(h.quantile_bound(0.51), 100);
  EXPECT_EQ(h.quantile_bound(1.0), 100);
}

TEST(Metrics, QuantileBoundAllOverflowReportsMax) {
  HistogramData h;
  h.bounds = {10};
  h.counts.assign(2, 0);
  h.observe(500);
  h.observe(900);
  EXPECT_EQ(h.quantile_bound(0.01), 900);  // overflow bucket -> observed max
  EXPECT_EQ(h.quantile_bound(1.0), 900);
}

// --- snapshot merge ---------------------------------------------------------------

TEST(Metrics, MergedDisjointShardsIsUnion) {
  MetricsRegistry a, b;
  a.counter("lod.a").inc(3);
  b.counter("lod.b").inc(4);
  const auto m =
      Snapshot::merged({{"0", a.snapshot()}, {"1", b.snapshot()}});
  EXPECT_EQ(m.counter("lod.a"), 3u);
  EXPECT_EQ(m.counter("lod.b"), 4u);
}

TEST(Metrics, MergedOverlappingCountersSumAndHistogramsAddBucketwise) {
  MetricsRegistry a, b;
  a.counter("lod.n").inc(3);
  b.counter("lod.n").inc(5);
  a.histogram("lod.h", std::vector<std::int64_t>{10, 100}).observe(7);
  b.histogram("lod.h", std::vector<std::int64_t>{10, 100}).observe(70);
  const auto m =
      Snapshot::merged({{"0", a.snapshot()}, {"1", b.snapshot()}});
  EXPECT_EQ(m.counter("lod.n"), 8u);
  const auto* h = m.histogram("lod.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 77);
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 1u);
  EXPECT_EQ(h->counts[1], 1u);
  EXPECT_EQ(h->quantile_bound(1.0), 100);
}

TEST(Metrics, MergedHistogramsWithMismatchedBoundsKeepMomentsOnly) {
  MetricsRegistry a, b;
  a.histogram("lod.h", std::vector<std::int64_t>{10}).observe(5);
  b.histogram("lod.h", std::vector<std::int64_t>{99}).observe(50);
  const auto m =
      Snapshot::merged({{"0", a.snapshot()}, {"1", b.snapshot()}});
  const auto* h = m.histogram("lod.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(h->sum, 55);
  EXPECT_EQ(h->min, 5);
  EXPECT_EQ(h->max, 50);
  EXPECT_TRUE(h->bounds.empty());  // bucket shapes disagreed
}

TEST(Metrics, MergedGaugesLastWriterPlusPerShardSeries) {
  MetricsRegistry a, b;
  a.gauge("lod.depth").set(11);
  b.gauge("lod.depth").set(22);
  const auto m =
      Snapshot::merged({{"s0", a.snapshot()}, {"s1", b.snapshot()}});
  EXPECT_EQ(m.gauge("lod.depth"), 22);
  EXPECT_EQ(m.gauge("lod.depth", {{"shard", "s0"}}), 11);
  EXPECT_EQ(m.gauge("lod.depth", {{"shard", "s1"}}), 22);
}

TEST(Metrics, MergedKindConflictThrows) {
  MetricsRegistry a, b;
  a.counter("lod.x").inc();
  b.gauge("lod.x").set(1);
  EXPECT_THROW(
      Snapshot::merged({{"0", a.snapshot()}, {"1", b.snapshot()}}),
      std::logic_error);
}

TEST(Metrics, MergedEmptyInputIsEmptySnapshot) {
  const auto m = Snapshot::merged({});
  EXPECT_EQ(m.size(), 0u);
}

// --- JSON escape/unescape ---------------------------------------------------------

TEST(Json, UnescapeDecodesBmpAndSupplementaryEscapes) {
  EXPECT_EQ(json_unescape("\\u0041"), "A");
  EXPECT_EQ(json_unescape("\\u00e9"), "\xC3\xA9");          // é, 2-byte UTF-8
  EXPECT_EQ(json_unescape("\\u20AC"), "\xE2\x82\xAC");      // €, 3-byte UTF-8
  // Surrogate pair U+1F600 (😀): 4-byte UTF-8.
  EXPECT_EQ(json_unescape("\\uD83D\\uDE00"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(json_unescape("x\\uD83D\\uDE00y"), "x\xF0\x9F\x98\x80y");
}

TEST(Json, UnescapeUnpairedSurrogatesBecomeReplacementChar) {
  const std::string fffd = "\xEF\xBF\xBD";
  EXPECT_EQ(json_unescape("\\uD83D"), fffd);          // lone high at end
  EXPECT_EQ(json_unescape("\\uD83Dxy"), fffd + "xy");  // high, no low follows
  EXPECT_EQ(json_unescape("\\uDE00"), fffd);          // lone low
  // High followed by a non-surrogate \u escape: both decode independently.
  EXPECT_EQ(json_unescape("\\uD83D\\u0041"), fffd + "A");
}

TEST(Json, UnescapeTruncatedEscapesAtEndOfStringAreDropped) {
  // A \uXXXX cut off by end-of-string must not read past the buffer.
  EXPECT_EQ(json_unescape("\\u"), "");
  EXPECT_EQ(json_unescape("\\u00"), "");
  EXPECT_EQ(json_unescape("\\u123"), "");
  EXPECT_EQ(json_unescape("ab\\u12"), "ab");
  // A trailing lone backslash (no escape char at all) is kept verbatim.
  EXPECT_EQ(json_unescape("ab\\"), "ab\\");
  // Malformed mid-string keeps the literal characters.
  EXPECT_EQ(json_unescape("\\uZZZZtail"), "uZZZZtail");
}

TEST(Json, EscapeUnescapeRoundTripsRandomBytes) {
  // Fuzz-style: random byte strings (including NULs, control characters,
  // quotes, backslashes, and non-UTF-8 garbage) must survive
  // append_json_escaped -> json_unescape byte for byte.
  std::mt19937 rng(0xC0DE);
  for (int iter = 0; iter < 200; ++iter) {
    std::string s;
    const int len = static_cast<int>(rng() % 64);
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng() % 256));
    }
    std::string escaped;
    append_json_escaped(escaped, s);
    EXPECT_EQ(json_unescape(escaped), s) << "iter " << iter;
  }
}

TEST(Json, EscapeUnescapeRoundTripsAdversarialSuffixes) {
  // Strings that END in escape-like prefixes are the truncation minefield.
  for (const char* raw : {"\\", "\\u", "\\u0", "\\u00", "\\u004",
                          "text\\", "text\\u12", "\"\\\"", "\\\\u0041"}) {
    std::string escaped;
    append_json_escaped(escaped, raw);
    EXPECT_EQ(json_unescape(escaped), raw) << "raw: " << raw;
  }
}
