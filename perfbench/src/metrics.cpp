#include <charconv>
#include <string>

#include "workloads.hpp"

namespace perfbench {

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  const SessionStats& s = e.sessions;
  return {
      {"us_per_event", e.us_per_event, "us"},
      {"sessions_per_cpu_s", e.sessions_per_cpu_s, "1/s"},
      {"setup_s", e.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"session_ok_frac", s.ok_frac, "ratio"},
      {"startup_p50_ms", s.startup_p50_ms, "ms"},
      {"startup_tail_ms", s.startup_tail_ms, "ms"},
      {"rebuffer_ratio", s.rebuffer_ratio, "ratio"},
      {"interaction_p50_ms", s.interaction_p50_ms, "ms"},
      {"interaction_tail_ms", s.interaction_tail_ms, "ms"},
      {"failovers_per_session", s.failovers_per_session, "ratio"},
      {"cpu_us_per_dgram", e.cpu_us_per_dgram, "us"},
  };
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  std::vector<Metric> m;
  const lod::obs::Snapshot& snap = in.snapshot;
  auto count = [&](const std::string& name, double v) {
    m.push_back({name, v, "count"});
  };
  auto total = [&](std::string_view series) {
    return static_cast<double>(snap.total(series));
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const double residual_ns =
      static_cast<double>(in.run_cpu_ns - in.run_top_ns);
  const double events = static_cast<double>(in.events_fired);
  m.push_back({"net.sim.residual_us", residual_ns / 1e3, "us"});
  m.push_back({"net.sim.ns_per_event", ratio(residual_ns, events), "ns"});
  count("net.sim.events_fired", events);
  count("net.sim.events_cancelled", static_cast<double>(in.events_cancelled));
  count("net.sim.events_per_session",
        ratio(events, static_cast<double>(in.sessions)));

  // Span time per layer. `sync.migrate` runs only where failover sessions
  // migrate (its time would read 0 elsewhere), so it reports calls alone.
  for (Layer l : {Layer::kNetSend, Layer::kServer, Layer::kEdgeNode,
                  Layer::kGateway, Layer::kSelector, Layer::kPlayer,
                  Layer::kMigrate, Layer::kDriver, Layer::kEncode,
                  Layer::kPublish}) {
    const LayerTotals& t = in.ledger.at(l);
    const std::string name(layer_name(l));
    count(name + ".calls", static_cast<double>(t.calls));
    if (l == Layer::kMigrate) continue;
    m.push_back({name + ".self_us", static_cast<double>(t.self_ns) / 1e3, "us"});
    m.push_back({name + ".ns_per_call",
                 ratio(static_cast<double>(t.self_ns),
                       static_cast<double>(t.calls)),
                 "ns"});
  }

  count("net.packets_sent",
        total("lod.net.packets_sent") + total("lod.realnet.datagrams_sent"));
  count("net.packets_dropped_queue", total("lod.net.packets_dropped_queue"));
  count("net.packets_dropped_loss", total("lod.net.packets_dropped_loss"));
  m.push_back({"net.bytes_sent", total("lod.net.bytes_sent"), "B"});

  const double msgs = total("lod.transport.messages_sent");
  const double rtx = total("lod.transport.retransmissions");
  count("net.transport.messages_sent", msgs);
  count("net.transport.retransmissions", rtx);
  m.push_back({"net.transport.retransmit_ratio", ratio(rtx, msgs), "ratio"});

  count("streaming.server.packets_sent", total("lod.server.packets_sent"));
  count("streaming.server.sessions_opened", total("lod.server.sessions_opened"));
  count("streaming.server.open_after_drain", static_cast<double>(in.open_server));

  const double hits = total("lod.edge.cache.hits");
  const double misses = total("lod.edge.cache.misses");
  m.push_back({"edge.node.cache.hit_ratio", ratio(hits, hits + misses), "ratio"});
  count("edge.node.cache.misses", misses);
  count("edge.node.cache.evictions", total("lod.edge.cache.evictions"));
  count("edge.node.demand_fetches", total("lod.edge.demand_fetches"));
  count("edge.node.prefetch_fetches", total("lod.edge.prefetch_fetches"));
  // The fill histogram's buckets are coarse (1-2-5 steps), so its exact
  // mean is reported rather than a bucket bound.
  const lod::obs::HistogramData fill = snap.merged_histogram("lod.edge.miss_fill_us");
  m.push_back({"edge.node.miss_fill_mean_us", fill.mean(), "us"});
  count("edge.node.open_after_drain", static_cast<double>(in.open_edge));

  count("edge.gateway.segment_requests",
        total("lod.edge.origin.segment_requests"));
  m.push_back({"edge.gateway.segment_bytes",
               total("lod.edge.origin.segment_bytes"), "B"});
  count("edge.selector.picks", total("lod.edge.selector.picks"));
  count("edge.selector.failovers", total("lod.edge.selector.failovers"));

  count("streaming.player.packets_received", total("lod.player.packets_received"));
  count("streaming.player.units_rendered", total("lod.player.units_rendered"));
  count("streaming.player.units_lost", total("lod.player.units_lost"));
  count("streaming.player.repairs_requested",
        total("lod.player.repairs_requested"));
  count("streaming.player.stalls", total("lod.player.stalls"));
  count("sync.migrate.migrations_adopted", total("lod.edge.migrations_adopted"));

  count("seam.timer.calls", static_cast<double>(in.ledger.timers_fired));
  for (std::size_t r = 0; r < kRoleCount; ++r) {
    count("seam.recv." + std::string(role_name(static_cast<Role>(r))) + ".calls",
          static_cast<double>(in.ledger.receives[r]));
  }
  count("realnet.datagrams_dropped", total("lod.realnet.datagrams_dropped"));

  m.push_back({"net.sharded.merge_us", static_cast<double>(in.merge_ns) / 1e3, "us"});
  m.push_back({"obs.export_us", static_cast<double>(in.export_ns) / 1e3, "us"});
  m.push_back({"trace.overhead_frac", in.overhead_frac, "ratio"});
  return m;
}

}  // namespace perfbench
