#include "lod/edge/edge_node.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "lod/contenttree/content_tree.hpp"
#include "lod/edge/replica_selector.hpp"
#include "lod/lod/wmps.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/health.hpp"
#include "lod/obs/hub.hpp"
#include "lod/obs/spantree.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"

namespace lod::edge {
namespace {

using net::msec;
using net::sec;
using net::SimDuration;
using net::SimTime;

// --- SegmentCache ------------------------------------------------------------

TEST(SegmentCache, EvictsLeastRecentlyUsedFirst) {
  SegmentCache c(300);
  c.put({"f", 0}, {}, 100);
  c.put({"f", 1}, {}, 100);
  c.put({"f", 2}, {}, 100);
  // Freshen 0: MRU order becomes 0, 2, 1.
  EXPECT_NE(c.get({"f", 0}), nullptr);
  const auto mru = c.keys_mru_first();
  ASSERT_EQ(mru.size(), 3u);
  EXPECT_EQ(mru[0], (SegmentKey{"f", 0}));
  EXPECT_EQ(mru[1], (SegmentKey{"f", 2}));
  EXPECT_EQ(mru[2], (SegmentKey{"f", 1}));

  // A fourth insert must evict exactly the LRU entry (segment 1).
  c.put({"f", 3}, {}, 100);
  EXPECT_FALSE(c.contains({"f", 1}));
  EXPECT_TRUE(c.contains({"f", 0}));
  EXPECT_TRUE(c.contains({"f", 2}));
  EXPECT_TRUE(c.contains({"f", 3}));
  EXPECT_EQ(c.entries(), 3u);
  EXPECT_EQ(c.bytes_used(), 300u);
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(SegmentCache, CountsServePathLookupsOnly) {
  SegmentCache c(1000);
  c.put({"f", 0}, {}, 10);
  EXPECT_NE(c.get({"f", 0}), nullptr);
  EXPECT_EQ(c.get({"f", 7}), nullptr);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
  // Prefetch probes are silent: no stats, no LRU freshening.
  c.put({"f", 1}, {}, 10);
  EXPECT_TRUE(c.contains({"f", 0}));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.keys_mru_first().front(), (SegmentKey{"f", 1}));
}

TEST(SegmentCache, RejectsSegmentLargerThanBudget) {
  SegmentCache c(100);
  c.put({"f", 0}, {}, 40);
  c.put({"f", 1}, {}, 200);  // would evict everything and still not fit
  EXPECT_FALSE(c.contains({"f", 1}));
  EXPECT_TRUE(c.contains({"f", 0}));
  EXPECT_EQ(c.bytes_used(), 40u);
}

TEST(SegmentCache, EraseFileDropsOnlyThatFile) {
  SegmentCache c(1000);
  c.put({"a", 0}, {}, 10);
  c.put({"a", 1}, {}, 10);
  c.put({"b", 0}, {}, 10);
  c.erase_file("a");
  EXPECT_FALSE(c.contains({"a", 0}));
  EXPECT_FALSE(c.contains({"a", 1}));
  EXPECT_TRUE(c.contains({"b", 0}));
  EXPECT_EQ(c.bytes_used(), 10u);
}

TEST(SegmentCache, OverwriteChargesOnlyTheNewBytes) {
  SegmentCache c(1000);
  c.put({"f", 0}, {}, 100);
  c.put({"f", 1}, {}, 50);
  // Replace segment 0 with a differently-sized payload: the old entry's
  // bytes must be released, not accumulated.
  c.put({"f", 0}, {}, 300);
  EXPECT_EQ(c.bytes_used(), 350u);
  EXPECT_EQ(c.entries(), 2u);
  c.put({"f", 0}, {}, 10);  // shrink again
  EXPECT_EQ(c.bytes_used(), 60u);
  EXPECT_EQ(c.entries(), 2u);
}

TEST(SegmentCache, GaugesStayExactUnderOverwriteChurn) {
  obs::MetricsRegistry reg;
  SegmentCache c(1000, &reg);
  const auto bytes_gauge = [&] { return reg.snapshot().gauge("lod.edge.cache.bytes"); };
  const auto entries_gauge = [&] {
    return reg.snapshot().gauge("lod.edge.cache.entries");
  };
  c.put({"f", 0}, {}, 100);
  c.put({"f", 1}, {}, 200);
  EXPECT_EQ(bytes_gauge(), 300);
  EXPECT_EQ(entries_gauge(), 2);
  c.put({"f", 0}, {}, 400);  // overwrite, grow
  EXPECT_EQ(bytes_gauge(), 600);
  EXPECT_EQ(entries_gauge(), 2);
  // Overwrite with a payload larger than the whole budget: the entry is
  // removed and NOT re-inserted — the gauges must reflect the removal
  // rather than keep reporting the replaced entry's bytes.
  c.put({"f", 0}, {}, 5000);
  EXPECT_FALSE(c.contains({"f", 0}));
  EXPECT_EQ(c.bytes_used(), 200u);
  EXPECT_EQ(bytes_gauge(), 200);
  EXPECT_EQ(entries_gauge(), 1);
}

// --- PrefetchController ------------------------------------------------------

TEST(Prefetch, LinearWarmSetStartsAtAnchorSegment) {
  PrefetchController pc(100, 10);  // segments 0..9
  pc.anchor_to(35);
  EXPECT_EQ(pc.warm_set(3), (std::vector<std::uint32_t>{3, 4, 5}));
}

TEST(Prefetch, ReanchorAfterSeekFollowsTheJump) {
  PrefetchController pc(100, 10);
  pc.anchor_to(5);
  EXPECT_EQ(pc.warm_set(2), (std::vector<std::uint32_t>{0, 1}));
  pc.anchor_to(80);  // the seek
  EXPECT_EQ(pc.warm_set(3), (std::vector<std::uint32_t>{8, 9}));
}

TEST(Prefetch, ExplicitOrderWarmsAcrossTheAbstractionJump) {
  // Level-q playout: packets [0,30) then a jump to [60,100).
  PrefetchController pc(100, 10, {{0, 30}, {60, 100}});
  pc.anchor_to(25);
  // The next segments the PLAYOUT touches: 2, then 6 and 7 across the jump —
  // not the 3, 4, 5 a next-in-time warmer would waste fetches on.
  EXPECT_EQ(pc.warm_set(3), (std::vector<std::uint32_t>{2, 6, 7}));
}

TEST(Prefetch, AnchorInsideSkippedWindowSnapsForward) {
  PrefetchController pc(100, 10, {{0, 30}, {60, 100}});
  pc.anchor_to(45);  // a packet the level playout never visits
  EXPECT_EQ(pc.warm_set(2), (std::vector<std::uint32_t>{6, 7}));
}

TEST(Prefetch, PresentationOrderFromContentTree) {
  using contenttree::ContentTree;
  // Fig. 3's lecture: S0(20) level 0; S1(40), S3(20) level 1; S2(60) level 2
  // and S4(40) under S1.
  ContentTree t;
  t.add({"S0", sec(20), ""}, 0);
  const auto s1 = t.add({"S1", sec(40), ""}, 1);
  t.add({"S2", sec(60), ""}, 2);
  t.attach_child(s1, {"S4", sec(40), ""});
  t.add({"S3", sec(20), ""}, 1);

  // 1 packet per second of the full document-order recording.
  const auto pof = [](SimDuration d) {
    return static_cast<std::uint32_t>(d.us / 1'000'000);
  };
  // The full level collapses to one linear range over the whole recording.
  const auto full = presentation_order(t, t.highest_level(), pof);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full.front().first, 0u);
  EXPECT_EQ(full.front().last, 180u);  // 20+40+60+40+20 seconds

  // A shallower level plays every node of levels 0..q: its windows cover
  // exactly presentation_time(q) seconds, visited in playout order with
  // gaps where deeper-level detail is skipped.
  for (int q = 0; q < t.highest_level(); ++q) {
    const auto order = presentation_order(t, q, pof);
    ASSERT_FALSE(order.empty());
    std::uint32_t covered = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_LT(order[i].first, order[i].last);
      if (i > 0) EXPECT_GT(order[i].first, order[i - 1].last);
      covered += order[i].last - order[i].first;
    }
    EXPECT_EQ(covered,
              static_cast<std::uint32_t>(t.presentation_time(q).seconds()));
  }
}

// --- ReplicaSelector ---------------------------------------------------------

struct SelectorFixture : ::testing::Test {
  SelectorFixture() : network(sim, 7) {
    origin = network.add_host("origin");
    edge = network.add_host("edge");
    client = network.add_host("client");
    net::LinkConfig wan;
    wan.bandwidth_bps = 20'000'000;
    wan.latency = msec(40);
    network.add_link(origin, edge, wan);
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(5);
    network.add_link(edge, client, lan);
  }

  net::Simulator sim;
  net::Network network;
  net::HostId origin{}, edge{}, client{};
};

TEST_F(SelectorFixture, SeedsFromPathLatencyAndPicksNearestSite) {
  ReplicaSelector sel(network, client, origin, {edge});
  EXPECT_EQ(sel.estimate(edge), msec(5));
  EXPECT_EQ(sel.estimate(origin), msec(45));  // LAN + WAN through the edge
  EXPECT_EQ(sel.pick_site(), edge);
}

TEST_F(SelectorFixture, ObservationsShiftTheEwmaAndThePick) {
  ReplicaSelector sel(network, client, origin, {edge}, 0.5);
  // The edge starts degrading: measured delays way above the origin's.
  sel.observe(edge, msec(400));
  EXPECT_GT(sel.estimate(edge).us, msec(45).us);
  EXPECT_EQ(sel.pick_site(), origin);
  // EWMA, not last-sample: one good reading pulls it halfway back.
  sel.observe(edge, msec(5));
  EXPECT_LT(sel.estimate(edge).us, msec(400).us);
}

TEST_F(SelectorFixture, FailoverMarksDownAndOriginIsAlwaysEligible) {
  ReplicaSelector sel(network, client, origin, {edge});
  EXPECT_EQ(sel.failover_from(edge), origin);
  EXPECT_TRUE(sel.is_down(edge));
  EXPECT_EQ(sel.pick_site(), origin);
  EXPECT_EQ(sel.failovers(), 1u);
  // Failing over from the origin itself still answers: the origin never
  // leaves the candidate set.
  EXPECT_EQ(sel.failover_from(origin), origin);
  sel.revive(edge);
  EXPECT_EQ(sel.pick_site(), edge);
}

TEST_F(SelectorFixture, UnreachableEdgeIsBornDown) {
  const net::HostId island = network.add_host("island");  // no links
  ReplicaSelector sel(network, client, origin, {island, edge});
  EXPECT_TRUE(sel.is_down(island));
  EXPECT_EQ(sel.pick_site(), edge);
}

// --- EdgeNode end to end -----------------------------------------------------

/// Origin + gateway on a WAN; edge + client on a LAN behind it. The client's
/// path to the origin routes THROUGH the edge host, so origin-served traffic
/// pays LAN + WAN while edge-served traffic is LAN-only.
struct EdgeFixture : ::testing::Test {
  EdgeFixture() : network(sim, 4321) {
    origin_host = network.add_host("origin");
    edge_host = network.add_host("edge");
    client_host = network.add_host("client");
    net::LinkConfig wan;
    wan.bandwidth_bps = 20'000'000;
    wan.latency = msec(60);
    network.add_link(origin_host, edge_host, wan);
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    network.add_link(edge_host, client_host, lan);

    server = std::make_unique<streaming::StreamingServer>(network, origin_host);
    gateway = std::make_unique<OriginGateway>(network, *server);
    EdgeConfig ec;
    ec.origin = origin_host;
    edge = std::make_unique<EdgeNode>(network, edge_host, ec);
  }

  streaming::EncodeResult publish(const std::string& name, SimDuration len) {
    streaming::EncodeJob job;
    job.profile = *media::find_profile("Video 250k DSL/cable");
    job.preroll = msec(2000);
    media::LectureVideoSource v(len, job.profile.fps, job.profile.width,
                                job.profile.height, 7);
    media::LectureAudioSource a(len, job.profile.audio_sample_rate());
    auto enc = streaming::encode_lecture(job, v, a, {});
    server->publish(name, enc.file);
    return enc;
  }

  streaming::PlayerConfig player_cfg(net::Port base) {
    streaming::PlayerConfig cfg;
    cfg.model = streaming::SyncModel::kEtpn;
    cfg.ctl_port = base;
    cfg.data_port = static_cast<net::Port>(base + 1);
    cfg.web_server = origin_host;
    return cfg;
  }

  net::Simulator sim;
  net::Network network;
  net::HostId origin_host{}, edge_host{}, client_host{};
  std::unique_ptr<streaming::StreamingServer> server;
  std::unique_ptr<OriginGateway> gateway;
  std::unique_ptr<EdgeNode> edge;
};

TEST_F(EdgeFixture, ServesSequentialPlayoutMostlyFromCache) {
  publish("lec", sec(30));
  streaming::Player p(network, client_host, player_cfg(5000));
  p.open_and_play(edge_host, "lec");
  sim.run_until(SimTime{sec(60).us});

  EXPECT_TRUE(p.finished());
  EXPECT_EQ(p.units_lost(), 0u);
  EXPECT_GT(p.packets_received(), 0u);
  // With prefetch walking ahead of the playhead, only the very first
  // segment(s) can demand-miss; steady state serves from cache.
  EXPECT_GT(edge->cache().hit_rate(), 0.9);
  EXPECT_GT(edge->prefetch_fetches(), 0u);
  EXPECT_LE(edge->demand_fetches(), 2u);

  // As at the origin, the session lives until the client's STOP.
  EXPECT_EQ(edge->active_sessions(), 1u);
  p.stop();
  sim.run_until(sim.now() + sec(1));
  EXPECT_EQ(edge->active_sessions(), 0u);
}

TEST_F(EdgeFixture, WarmEdgeStartsFasterThanOrigin) {
  publish("lec", sec(20));

  // Warm the edge with a throwaway session.
  {
    streaming::Player warm(network, client_host, player_cfg(5000));
    warm.open_and_play(edge_host, "lec");
    sim.run_until(sim.now() + sec(40));
    ASSERT_TRUE(warm.finished());
  }

  streaming::Player via_edge(network, client_host, player_cfg(5100));
  via_edge.open_and_play(edge_host, "lec");
  sim.run_until(sim.now() + sec(40));
  ASSERT_TRUE(via_edge.finished());

  streaming::Player via_origin(network, client_host, player_cfg(5200));
  via_origin.open_and_play(origin_host, "lec");
  sim.run_until(sim.now() + sec(40));
  ASSERT_TRUE(via_origin.finished());

  // Same client, same links, same content: the warm edge's preroll beats the
  // origin's because every round trip is LAN-only.
  EXPECT_GT(via_edge.startup_delay().us, 0);
  EXPECT_LT(via_edge.startup_delay().us, via_origin.startup_delay().us);
}

TEST_F(EdgeFixture, SeekReanchorsPrefetchAndPlayoutContinues) {
  publish("lec", sec(60));
  streaming::Player p(network, client_host, player_cfg(5000));
  p.open_and_play(edge_host, "lec");
  sim.run_until(SimTime{sec(6).us});
  ASSERT_TRUE(p.playing());

  p.seek(sec(40));
  sim.run_until(SimTime{sec(10).us});
  // Prefetch followed the jump: the segments at the seek target are resident
  // even though sequential warming had only reached the file's start.
  const auto& cache = edge->cache();
  bool warm_at_target = false;
  for (const auto& key : cache.keys_mru_first()) {
    // 40 s into a 60 s file is past 60% of the packets.
    if (key.segment >= 2 * cache.entries() / 3) warm_at_target = true;
  }
  EXPECT_TRUE(warm_at_target);

  sim.run_until(SimTime{sec(80).us});
  EXPECT_TRUE(p.finished());
  // The playout after the seek rendered the jumped-to region.
  ASSERT_FALSE(p.rendered().empty());
  EXPECT_GE(p.rendered().back().pts.us, sec(55).us);
}

TEST_F(EdgeFixture, PlayerFailsOverToOriginWhenEdgeDies) {
  publish("lec", sec(30));
  ReplicaSelector sel(network, client_host, origin_host, {edge_host});

  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(SimTime{sec(5).us});
  ASSERT_TRUE(p.playing());
  ASSERT_EQ(p.current_server(), edge_host);

  edge.reset();  // kill the edge mid-session
  sim.run_until(SimTime{sec(60).us});

  EXPECT_GE(p.failovers(), 1u);
  EXPECT_EQ(p.current_server(), origin_host);
  EXPECT_TRUE(sel.is_down(edge_host));
  EXPECT_TRUE(p.finished());
}

TEST_F(EdgeFixture, RenderLogMatchesObservedRendersAcrossFailover) {
  struct RecordingObserver : streaming::PlayerObserver {
    std::vector<streaming::RenderEvent> seen;
    void on_render(const streaming::RenderEvent& e) override {
      seen.push_back(e);
    }
  };

  publish("lec", sec(30));
  ReplicaSelector sel(network, client_host, origin_host, {edge_host});
  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  streaming::Player p(network, client_host, cfg);
  RecordingObserver watch;
  p.set_observer(&watch);
  p.open_and_play_via(sel, "lec");
  sim.run_until(SimTime{sec(5).us});
  ASSERT_TRUE(p.playing());
  edge.reset();  // kill the edge mid-session
  sim.run_until(SimTime{sec(60).us});

  ASSERT_GE(p.failovers(), 1u);
  ASSERT_TRUE(p.finished());
  const auto& log = p.rendered();
  EXPECT_EQ(log.size(), p.units_rendered());
  ASSERT_EQ(log.size(), watch.seen.size());
  std::size_t i = 0;
  for (const streaming::RenderEvent& e : log) {
    ASSERT_EQ(e, watch.seen[i]) << "unit " << i;
    ++i;
  }
}

TEST_F(EdgeFixture, FlightDumpCarriesWholeSpanTrees) {
  // A dump is the evidence that ships with a failure. With tracing on it
  // carries the causal trace in the same stream, names included, so the
  // session's span tree rebuilds from the dump text alone: the same spans,
  // names and self-times as the tree built from the live journal.
  sim.obs().flight().set_tracing(true);
  std::vector<obs::FlightDump> dumps;
  sim.obs().flight().on_dump(
      [&dumps](const obs::FlightDump& d) { dumps.push_back(d); });
  publish("lec", sec(10));
  ReplicaSelector sel(network, client_host, origin_host, {edge_host});
  streaming::Player p(network, client_host, player_cfg(5000));
  p.open_and_play_via(sel, "lec");
  sim.run_until(SimTime{sec(30).us});
  ASSERT_TRUE(p.finished());
  ASSERT_EQ(p.current_server(), edge_host);
  sim.obs().flight().trigger_dump("test.session_end");
  ASSERT_EQ(dumps.size(), 1u);

  const auto live = obs::build_span_trees(sim.obs().flight().trace_events());
  const auto dumped = obs::build_span_trees(obs::parse_jsonl(dumps[0].jsonl));
  ASSERT_EQ(live.size(), 1u);
  ASSERT_EQ(dumped.size(), 1u);
  const obs::SpanTree& want = live[0];
  const obs::SpanTree& got = dumped[0];
  ASSERT_TRUE(got.root());
  EXPECT_EQ(got.root()->name, "player.session");
  EXPECT_EQ(got.trace_id, want.trace_id);
  EXPECT_TRUE(got.orphans.empty());
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  bool saw_edge = false, saw_origin = false;
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].name, want.nodes[i].name) << i;
    EXPECT_EQ(got.nodes[i].begin, want.nodes[i].begin) << i;
    EXPECT_EQ(got.nodes[i].end, want.nodes[i].end) << i;
    saw_edge |= got.nodes[i].name.rfind("edge.", 0) == 0;
    saw_origin |= got.nodes[i].name.rfind("origin.", 0) == 0;
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_origin);
  const auto want_split = want.decompose();
  const auto got_split = got.decompose();
  ASSERT_EQ(got_split.size(), want_split.size());
  for (std::size_t i = 0; i < want_split.size(); ++i) {
    EXPECT_EQ(got_split[i].node, want_split[i].node) << i;
    EXPECT_EQ(got_split[i].self_us, want_split[i].self_us) << i;
  }
}

TEST_F(EdgeFixture, FailoverSessionYieldsOneSpanTreeWithoutOrphans) {
  // The tentpole acceptance scenario: edge-relayed playout with a forced
  // mid-session failover must reconstruct into a single span tree per
  // session — every hop's spans (player, edge relay, origin gateway) linked
  // under one root, no orphans — whose startup subtree decomposes into
  // per-hop self-times that sum to the measured startup latency.
  sim.obs().flight().set_tracing(true);
  publish("lec", sec(30));
  ReplicaSelector sel(network, client_host, origin_host, {edge_host});

  auto cfg = player_cfg(5000);
  cfg.failover_timeout = msec(1500);
  streaming::Player p(network, client_host, cfg);
  p.open_and_play_via(sel, "lec");
  sim.run_until(SimTime{sec(5).us});
  ASSERT_TRUE(p.playing());
  ASSERT_EQ(p.current_server(), edge_host);

  edge.reset();  // kill the edge mid-session
  sim.run_until(SimTime{sec(60).us});
  ASSERT_GE(p.failovers(), 1u);
  ASSERT_TRUE(p.finished());

  const auto trees =
      obs::build_span_trees(sim.obs().flight().trace_events());
  ASSERT_EQ(trees.size(), 1u);
  const obs::SpanTree& t = trees[0];
  EXPECT_TRUE(t.orphans.empty());
  ASSERT_EQ(t.roots.size(), 1u);
  ASSERT_TRUE(t.root());
  EXPECT_EQ(t.root()->name, "player.session");
  EXPECT_TRUE(t.root()->closed);

  // The root covers the whole player timeline: kPlayIssued through
  // kRenderStart (and the failover machinery) land inside its window.
  std::optional<obs::TimeUs> play_issued, render_start;
  for (const auto& ev : t.points) {
    if (ev.type == obs::FlightType::kPlayIssued && !play_issued) {
      play_issued = ev.t;
    }
    if (ev.type == obs::FlightType::kRenderStart && !render_start) {
      render_start = ev.t;
    }
  }
  ASSERT_TRUE(play_issued.has_value());
  ASSERT_TRUE(render_start.has_value());
  EXPECT_GE(*play_issued, t.root()->begin);
  EXPECT_LE(*render_start, t.root()->end);

  // Every hop contributed spans to the one tree.
  std::size_t startup_idx = t.nodes.size();
  bool saw_edge = false, saw_origin = false, saw_failover = false;
  for (std::size_t i = 0; i < t.nodes.size(); ++i) {
    const std::string& n = t.nodes[i].name;
    if (n == "player.startup" && startup_idx == t.nodes.size()) {
      startup_idx = i;
    }
    if (n.rfind("edge.", 0) == 0) saw_edge = true;
    if (n.rfind("origin.", 0) == 0) saw_origin = true;
    if (n == "player.failover") saw_failover = true;
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_origin);
  EXPECT_TRUE(saw_failover);

  // Critical-path decomposition of the startup subtree: the per-span
  // self-times must sum exactly to the measured startup latency.
  ASSERT_LT(startup_idx, t.nodes.size());
  const obs::SpanNode& startup = t.nodes[startup_idx];
  EXPECT_TRUE(startup.closed);
  EXPECT_EQ(startup.end - startup.begin, p.startup_delay().us);
  obs::TimeUs attributed = 0;
  for (const auto& c : t.decompose(startup_idx)) attributed += c.self_us;
  EXPECT_EQ(attributed, p.startup_delay().us);
  EXPECT_EQ(*render_start - *play_issued, p.startup_delay().us);
}

TEST_F(EdgeFixture, HealthMonitorDemotesThrashingEdgeInSelector) {
  // Satellite of the SLO monitor: induce cache thrash (budget far below one
  // segment) so the edge's hit rate collapses; the monitor flags the site
  // and the selector must stop picking it while the origin stays eligible.
  publish("lec", sec(30));
  EdgeConfig thrash;
  thrash.origin = origin_host;
  thrash.cache_budget_bytes = 1;  // every insert evicts: guaranteed misses
  thrash.prefetch_depth = 0;
  edge.reset();  // free the ports before rebinding with the thrash config
  edge = std::make_unique<EdgeNode>(network, edge_host, thrash);

  obs::HealthMonitor health(sim.obs());
  health.add_rule(obs::slo_edge_cache_hit_rate(std::to_string(edge_host),
                                               /*min_rate=*/0.5,
                                               /*min_lookups=*/10));
  ReplicaSelector sel(network, client_host, origin_host, {edge_host});
  sel.set_health(&health);
  ASSERT_EQ(sel.pick_site(), edge_host);  // healthy: LAN edge wins

  streaming::Player p(network, client_host, player_cfg(5000));
  p.open_and_play(edge_host, "lec");
  sim.run_until(SimTime{sec(20).us});

  ASSERT_EQ(health.evaluate(), 1u);
  EXPECT_FALSE(health.site_healthy(std::to_string(edge_host)));
  EXPECT_TRUE(health.site_healthy(std::to_string(origin_host)));
  // Demoted — without being marked down, the edge no longer wins a pick.
  EXPECT_FALSE(sel.is_down(edge_host));
  EXPECT_EQ(sel.pick_site(), origin_host);
  EXPECT_EQ(sim.obs()
                .metrics()
                .snapshot()
                .counter("lod.health.violations",
                         {{"rule", "edge_cache_hit_rate"}}),
            1u);
}

TEST_F(EdgeFixture, EdgeAnswersDescribeAndTimesyncLikeTheOrigin) {
  publish("lec", sec(10));
  streaming::Player p(network, client_host, player_cfg(5000));
  p.open_and_play(edge_host, "lec");
  sim.run_until(SimTime{sec(30).us});
  ASSERT_TRUE(p.finished());
  // ETPN ran DESCRIBE, TIMESYNC and PLAY against the edge; pause/seek paths
  // are covered above. The origin never saw a player session.
  EXPECT_EQ(server->active_sessions(), 0u);
  EXPECT_EQ(server->metrics().sessions_opened(), 0u);
  EXPECT_GT(gateway->segment_requests(), 0u);
  EXPECT_GT(gateway->meta_requests(), 0u);
}

// --- WMPS integration --------------------------------------------------------

TEST_F(EdgeFixture, SegmentReplyIsByteIdenticalToPerPacketBlobs) {
  publish("lec", sec(10));
  const media::asf::File* f = server->stored("lec");
  ASSERT_NE(f, nullptr);
  constexpr std::uint32_t kPer = 32;
  const std::uint32_t segments =
      static_cast<std::uint32_t>((f->packets.size() + kPer - 1) / kPer);
  ASSERT_GE(segments, 2u);
  for (std::uint32_t seg = 0; seg < segments; ++seg) {
    net::ByteWriter req;
    req.str("lec");
    req.u32(seg);
    req.u32(kPer);
    streaming::proto::write_trace_context(req, {});
    const auto [status, body] = gateway->rpc().handle("/edge/segment",
                                                      req.bytes());
    ASSERT_EQ(status, 200);
    // The construction the gateway used before it wrote packets in place.
    const std::size_t first = static_cast<std::size_t>(seg) * kPer;
    const std::size_t last = std::min<std::size_t>(first + kPer,
                                                   f->packets.size());
    net::ByteWriter want;
    want.u32(static_cast<std::uint32_t>(last - first));
    for (std::size_t i = first; i < last; ++i) {
      want.blob(media::asf::serialize_packet(f->packets[i]));
    }
    EXPECT_EQ(body, want.bytes()) << "segment " << seg;
  }
}

/// An origin whose gateway answers with hostile element counts: the edge
/// must treat the reply as a failed fill instead of reserving for the count.
struct HostileOriginFixture : ::testing::Test {
  HostileOriginFixture() : network(sim, 99) {
    origin_host = network.add_host("origin");
    edge_host = network.add_host("edge");
    client_host = network.add_host("client");
    net::LinkConfig link;
    link.latency = msec(5);
    network.add_link(origin_host, edge_host, link);
    network.add_link(edge_host, client_host, link);
    server = std::make_unique<streaming::StreamingServer>(network, origin_host);
    streaming::EncodeJob job;
    job.profile = *media::find_profile("Video 250k DSL/cable");
    media::LectureVideoSource v(sec(5), job.profile.fps, job.profile.width,
                                job.profile.height, 7);
    media::LectureAudioSource a(sec(5), job.profile.audio_sample_rate());
    server->publish("lec", streaming::encode_lecture(job, v, a, {}).file);
    // The genuine gateway listens elsewhere; the hostile one forwards to it
    // for whatever the test does not corrupt.
    real_gateway = std::make_unique<OriginGateway>(network, *server, 9554);
    hostile = std::make_unique<net::RpcServer>(network, origin_host,
                                               kOriginGatewayPort);
    EdgeConfig ec;
    ec.origin = origin_host;
    edge = std::make_unique<EdgeNode>(network, edge_host, ec);
  }

  std::unique_ptr<streaming::Player> play() {
    streaming::PlayerConfig cfg;
    cfg.model = streaming::SyncModel::kEtpn;
    cfg.web_server = origin_host;
    auto p = std::make_unique<streaming::Player>(network, client_host, cfg);
    p->open_and_play(edge_host, "lec");
    sim.run_until(SimTime{sec(10).us});
    return p;
  }

  net::Simulator sim;
  net::Network network;
  net::HostId origin_host{}, edge_host{}, client_host{};
  std::unique_ptr<streaming::StreamingServer> server;
  std::unique_ptr<OriginGateway> real_gateway;
  std::unique_ptr<net::RpcServer> hostile;
  std::unique_ptr<EdgeNode> edge;
};

TEST_F(HostileOriginFixture, MetaReplyWithHostileCountsFailsTheDescribe) {
  hostile->route("/edge/meta", [this](std::string_view path,
                                      std::span<const std::byte> body) {
    auto [status, reply] = real_gateway->rpc().handle(path, body);
    // Keep the header blob, then claim 2^32 - 1 packets and index entries.
    net::ByteReader r(reply);
    const auto header = r.blob();
    net::ByteWriter w;
    w.blob(header);
    w.u32(0xFFFFFFFF);
    w.u32(0xFFFFFFFF);
    return std::pair{status, std::move(w).take()};
  });
  const auto p = play();
  EXPECT_EQ(p->packets_received(), 0u);
  EXPECT_FALSE(p->playing());
  EXPECT_EQ(edge->active_sessions(), 0u);
}

TEST_F(HostileOriginFixture, SegmentReplyWithHostileCountIsAFailedFill) {
  hostile->route("/edge/meta", [this](std::string_view path,
                                      std::span<const std::byte> body) {
    return real_gateway->rpc().handle(path, body);
  });
  hostile->route("/edge/segment", [](std::string_view,
                                     std::span<const std::byte>) {
    net::ByteWriter w;
    w.u32(0xFFFFFFFF);  // packet count, and nothing after it
    return std::pair{200, std::move(w).take()};
  });
  const auto p = play();
  EXPECT_EQ(p->packets_received(), 0u);
  EXPECT_TRUE(p->buffering());  // parked on fills that never land
  EXPECT_GT(edge->prefetch_fetches() + edge->demand_fetches(), 0u);
  EXPECT_EQ(edge->cache().entries(), 0u);
}

TEST(WmpsEdge, CandidateSitesListEdgesFirstOriginLast) {
  namespace app = ::lod::lod;
  net::Simulator sim;
  net::Network network(sim, 3);
  const auto origin = network.add_host("origin");
  const auto e1 = network.add_host("edge1");
  const auto e2 = network.add_host("edge2");
  app::WmpsNode wmps(network, origin);
  wmps.register_edge(e1);
  wmps.register_edge(e2);
  wmps.register_edge(e1);  // re-registering is a no-op
  EXPECT_EQ(wmps.edge_sites(), (std::vector<net::HostId>{e1, e2}));
  // Mirrors ReplicaSelector's ordering contract: edges first, origin last.
  EXPECT_EQ(wmps.candidate_sites(), (std::vector<net::HostId>{e1, e2, origin}));
}

}  // namespace
}  // namespace lod::edge
