// Causal tracing: TraceContext minting/propagation on the journal, and the
// SpanTree reconstructor (parent links, orphans, unclosed-span clamping,
// self-time decomposition, critical path).

#include <gtest/gtest.h>

#include "lod/obs/flight.hpp"
#include "lod/obs/spantree.hpp"

using namespace lod::obs;

namespace {

/// Tracing on, stamped from \p now.
void trace_on(FlightRecorder& journal, TimeUs* now) {
  journal.set_tracing(true);
  journal.set_clock([now] { return *now; });
}

}  // namespace

TEST(TraceContext, DisabledSinkMintsInvalidAndSpansNoOp) {
  FlightRecorder sink;  // tracing off
  const TraceContext ctx = sink.make_trace();
  EXPECT_FALSE(ctx.valid());
  EXPECT_EQ(sink.begin_span(ctx, "x"), 0u);
  sink.end_span(ctx, 0, "x");
  sink.emit_in(ctx, FlightType::kRenderStart);
  EXPECT_EQ(sink.total_recorded(), 0u);
  // Valid-looking context with tracing off: still silent.
  EXPECT_EQ(sink.begin_span(TraceContext{7, 0}, "x"), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(TraceContext, SpanEventsCarryCausalCoordinates) {
  TimeUs now = 100;
  FlightRecorder sink;
  trace_on(sink, &now);
  const TraceContext root = sink.make_trace();
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(root.parent_span_id, 0u);
  const std::uint64_t outer = sink.begin_span(root, "outer", 9);
  ASSERT_NE(outer, 0u);
  now = 200;
  const TraceContext inner_ctx = root.child(outer);
  const std::uint64_t inner = sink.begin_span(inner_ctx, "inner");
  now = 300;
  sink.emit_in(inner_ctx.child(inner), FlightType::kRenderStart, 9);
  sink.end_span(inner_ctx, inner, "inner");
  now = 400;
  sink.end_span(root, outer, "outer", 9);

  const auto evs = sink.trace_events();
  ASSERT_EQ(evs.size(), 5u);
  EXPECT_EQ(evs[0].type, FlightType::kSpanBegin);
  EXPECT_EQ(evs[0].trace, root.trace_id);
  EXPECT_EQ(evs[0].span, outer);
  EXPECT_EQ(evs[0].parent, 0u);
  EXPECT_EQ(evs[1].span, inner);
  EXPECT_EQ(evs[1].parent, outer);
  EXPECT_EQ(evs[2].type, FlightType::kRenderStart);
  EXPECT_EQ(evs[2].trace, root.trace_id);
  EXPECT_EQ(evs[2].parent, inner);
  // Ids are distinct and from one counter.
  EXPECT_NE(root.trace_id, outer);
  EXPECT_NE(outer, inner);
}

TEST(TraceContext, CausalCoordinatesSurviveJsonl) {
  TimeUs now = 1;
  FlightRecorder sink;
  trace_on(sink, &now);
  const TraceContext root = sink.make_trace();
  const std::uint64_t sp = sink.begin_span(root, "s");
  sink.end_span(root, sp, "s");
  sink.emit(FlightType::kPublish);  // untraced: no trace/span fields emitted
  const auto parsed = parse_jsonl(sink.to_jsonl());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].trace, root.trace_id);
  EXPECT_EQ(parsed[0].span, sp);
  EXPECT_EQ(parsed[2].trace, 0u);
  const auto trees = build_span_trees(parsed);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].nodes.size(), 1u);
}

TEST(SpanTree, BuildsParentLinksOrphansAndPoints) {
  TimeUs now = 0;
  FlightRecorder sink;
  trace_on(sink, &now);
  const TraceContext root = sink.make_trace();
  const std::uint64_t a = sink.begin_span(root, "a");
  now = 10;
  const std::uint64_t b = sink.begin_span(root.child(a), "b");
  now = 20;
  sink.emit_in(root.child(b), FlightType::kStall, 5);
  now = 30;
  sink.end_span(root.child(a), b, "b");
  now = 40;
  sink.end_span(root, a, "a");
  // An orphan: parent id never seen in the stream.
  FlightEvent orphan;
  std::vector<FlightEvent> evs = sink.trace_events();
  orphan.t = 15;
  orphan.type = FlightType::kSpanBegin;
  orphan.trace = root.trace_id;
  orphan.span = 9999;
  orphan.parent = 8888;
  orphan.detail = "lost";
  evs.push_back(orphan);

  const auto trees = build_span_trees(evs);
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& t = trees[0];
  EXPECT_EQ(t.trace_id, root.trace_id);
  ASSERT_EQ(t.nodes.size(), 3u);
  ASSERT_EQ(t.roots.size(), 1u);
  ASSERT_EQ(t.orphans.size(), 1u);
  EXPECT_EQ(t.nodes[t.orphans[0]].name, "lost");
  ASSERT_TRUE(t.root());
  EXPECT_EQ(t.root()->name, "a");
  EXPECT_EQ(t.duration(), 40);
  ASSERT_EQ(t.root()->children.size(), 1u);
  EXPECT_EQ(t.nodes[t.root()->children[0]].name, "b");
  ASSERT_EQ(t.points.size(), 1u);
  EXPECT_EQ(t.points[0].type, FlightType::kStall);
}

TEST(SpanTree, UnclosedSpansClampToLastEventTime) {
  std::vector<FlightEvent> evs;
  FlightEvent e;
  e.type = FlightType::kSpanBegin;
  e.trace = 1;
  e.span = 2;
  e.t = 100;
  e.detail = "open";
  evs.push_back(e);
  e.type = FlightType::kRenderStart;
  e.span = 0;
  e.t = 900;
  evs.push_back(e);
  const auto trees = build_span_trees(evs);
  ASSERT_EQ(trees.size(), 1u);
  ASSERT_EQ(trees[0].nodes.size(), 1u);
  EXPECT_FALSE(trees[0].nodes[0].closed);
  EXPECT_EQ(trees[0].nodes[0].end, 900);
  EXPECT_EQ(trees[0].duration(), 800);
}

namespace {

/// begin/end pair helper for decomposition fixtures.
void span(std::vector<FlightEvent>& evs, std::uint64_t trace, std::uint64_t id,
          std::uint64_t parent, TimeUs begin, TimeUs end, std::string name) {
  FlightEvent e;
  e.trace = trace;
  e.span = id;
  e.parent = parent;
  e.detail = std::move(name);
  e.type = FlightType::kSpanBegin;
  e.t = begin;
  evs.push_back(e);
  e.type = FlightType::kSpanEnd;
  e.t = end;
  evs.push_back(e);
}

}  // namespace

TEST(SpanTree, DecomposeChargesDeepestSpanAndSumsExactly) {
  std::vector<FlightEvent> evs;
  span(evs, 1, 10, 0, 0, 100, "root");
  span(evs, 1, 11, 10, 10, 60, "child");      // 50us window
  span(evs, 1, 12, 11, 20, 40, "grandchild"); // 20us inside child
  span(evs, 1, 13, 10, 60, 70, "late");       // sibling after child
  const auto trees = build_span_trees(evs);
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& t = trees[0];
  const auto contrib = t.decompose();
  TimeUs total = 0;
  TimeUs by_name_root = 0, by_child = 0, by_grand = 0, by_late = 0;
  for (const auto& c : contrib) {
    total += c.self_us;
    const std::string& n = t.nodes[c.node].name;
    if (n == "root") by_name_root = c.self_us;
    if (n == "child") by_child = c.self_us;
    if (n == "grandchild") by_grand = c.self_us;
    if (n == "late") by_late = c.self_us;
  }
  EXPECT_EQ(total, t.duration());
  EXPECT_EQ(by_grand, 20);
  EXPECT_EQ(by_child, 30);   // 50 minus the grandchild's 20
  EXPECT_EQ(by_late, 10);
  EXPECT_EQ(by_name_root, 40);  // 0-10 and 70-100
  // Largest-first ordering.
  for (std::size_t i = 1; i < contrib.size(); ++i) {
    EXPECT_GE(contrib[i - 1].self_us, contrib[i].self_us);
  }
}

TEST(SpanTree, DecomposeSubtreeSumsToThatSpansDuration) {
  std::vector<FlightEvent> evs;
  span(evs, 1, 10, 0, 0, 100, "root");
  span(evs, 1, 11, 10, 20, 80, "startup");
  span(evs, 1, 12, 11, 30, 50, "fill");
  const auto trees = build_span_trees(evs);
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& t = trees[0];
  std::size_t startup = t.nodes.size();
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    if (t.nodes[i].name == "startup") startup = i;
  }
  ASSERT_LT(startup, t.nodes.size());
  const auto contrib = t.decompose(startup);
  TimeUs total = 0;
  for (const auto& c : contrib) total += c.self_us;
  EXPECT_EQ(total, 60);  // the startup span's own duration, not the root's
  ASSERT_EQ(contrib.size(), 2u);
  EXPECT_EQ(t.nodes[contrib.front().node].name, "startup");
  EXPECT_EQ(contrib.front().self_us, 40);
  EXPECT_EQ(contrib.back().self_us, 20);
}

TEST(SpanTree, CriticalPathFollowsLatestEndingChild) {
  std::vector<FlightEvent> evs;
  span(evs, 1, 10, 0, 0, 100, "root");
  span(evs, 1, 11, 10, 0, 30, "fast");
  span(evs, 1, 12, 10, 10, 90, "slow");
  span(evs, 1, 13, 12, 20, 85, "slow.inner");
  const auto trees = build_span_trees(evs);
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& t = trees[0];
  const auto path = t.critical_path();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(t.nodes[path[0]].name, "root");
  EXPECT_EQ(t.nodes[path[1]].name, "slow");
  EXPECT_EQ(t.nodes[path[2]].name, "slow.inner");
}

TEST(SpanTree, MergesEventsFromDistinctlySeededSinks) {
  // Two journals (two hosts), one logical trace: the second never mints,
  // it only continues contexts handed to it — ids must not collide, which
  // is what distinct seeds guarantee.
  TimeUs now = 0;
  FlightRecorder player;
  FlightRecorder edge;
  trace_on(player, &now);
  trace_on(edge, &now);
  player.set_id_seed(1ull << 32);
  edge.set_id_seed(2ull << 32);
  const TraceContext root = player.make_trace();
  const std::uint64_t session = player.begin_span(root, "player.session");
  now = 10;
  const TraceContext wire = root.child(session);  // "sent" to the edge
  const std::uint64_t fill = edge.begin_span(wire, "edge.fill");
  now = 40;
  edge.end_span(wire, fill, "edge.fill");
  now = 50;
  player.end_span(root, session, "player.session");

  const std::string merged = player.to_jsonl() + edge.to_jsonl();
  const auto trees = build_span_trees(parse_jsonl(merged));
  ASSERT_EQ(trees.size(), 1u);
  const SpanTree& t = trees[0];
  EXPECT_EQ(t.nodes.size(), 2u);
  EXPECT_TRUE(t.orphans.empty());
  ASSERT_TRUE(t.root());
  EXPECT_EQ(t.root()->name, "player.session");
  ASSERT_EQ(t.root()->children.size(), 1u);
  EXPECT_EQ(t.nodes[t.root()->children[0]].name, "edge.fill");
}

TEST(SpanTree, FormatRendersTimelineWithSelfTimes) {
  std::vector<FlightEvent> evs;
  span(evs, 7, 10, 0, 0, 2000, "player.session");
  span(evs, 7, 11, 10, 500, 1500, "player.startup");
  const auto trees = build_span_trees(evs);
  ASSERT_EQ(trees.size(), 1u);
  const std::string out = format_span_tree(trees[0]);
  EXPECT_NE(out.find("trace 7"), std::string::npos);
  EXPECT_NE(out.find("player.session"), std::string::npos);
  EXPECT_NE(out.find("player.startup"), std::string::npos);
  EXPECT_NE(out.find("self 1.000ms"), std::string::npos);  // 2000-1000 us
}
