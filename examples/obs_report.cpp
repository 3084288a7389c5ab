// Observability report: turn an event journal into per-session timelines.
//
// Two modes:
//
//   obs_report <dump.jsonl> [more.jsonl ...]
//     Parse journal JSONL — a flight dump (the JSONL a trigger_dump sink
//     receives), a /debug/flight scrape, or events_to_jsonl output; several
//     journals concatenate when each was seeded distinctly so span ids
//     cannot collide. Print the journal's event counts by type, rebuild the
//     span tree of every trace, and print an indented timeline with
//     per-span self-times and the critical path. Exits 1 when no journal
//     event parses.
//
//   obs_report --demo
//     Run a small origin -> edge -> player simulation with tracing on and
//     report on its own journal: the session timeline, the Prometheus
//     rendering of the metrics registry, and the SLO health summary.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "lod/edge/edge_node.hpp"
#include "lod/edge/replica_selector.hpp"
#include "lod/media/sources.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/export.hpp"
#include "lod/obs/flight.hpp"
#include "lod/obs/health.hpp"
#include "lod/obs/spantree.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"

namespace {

void report(const std::vector<lod::obs::FlightEvent>& events) {
  using namespace lod::obs;
  std::map<std::string_view, std::size_t> by_type;
  for (const FlightEvent& e : events) ++by_type[to_string(e.type)];
  std::printf("%zu journal event(s):", events.size());
  for (const auto& [type, n] : by_type) {
    std::printf(" %.*s=%zu", static_cast<int>(type.size()), type.data(), n);
  }
  std::printf("\n\n");

  const auto trees = build_span_trees(events);
  if (trees.empty()) {
    std::printf("no traced spans found\n");
    return;
  }
  for (const SpanTree& tree : trees) {
    std::fputs(format_span_tree(tree).c_str(), stdout);
    const auto path = tree.critical_path();
    if (path.size() > 1) {
      std::string line = "  critical path:";
      for (const std::size_t idx : path) {
        line += ' ';
        line += tree.nodes[idx].name;
      }
      std::printf("%s\n", line.c_str());
    }
    std::printf("\n");
  }
  std::printf("%zu trace(s)\n", trees.size());
}

bool slurp(int argc, char** argv, int first, std::string& text) {
  for (int i = first; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text += ss.str();
    if (!text.empty() && text.back() != '\n') text += '\n';
  }
  return true;
}

int report_files(int argc, char** argv) {
  std::string text;
  if (!slurp(argc, argv, 1, text)) return 1;
  const auto events = lod::obs::parse_jsonl(text);
  if (events.empty()) {
    std::fprintf(stderr, "no journal events found\n");
    return 1;
  }
  report(events);
  return 0;
}

int demo() {
  using namespace lod;
  net::Simulator sim;
  sim.obs().flight().set_tracing(true);
  net::Network network(sim, 7);

  const auto origin = network.add_host("origin");
  const auto edge_host = network.add_host("edge");
  const auto client = network.add_host("client");
  net::LinkConfig wan;
  wan.bandwidth_bps = 20'000'000;
  wan.latency = net::msec(60);
  network.add_link(origin, edge_host, wan);
  net::LinkConfig lan;
  lan.bandwidth_bps = 10'000'000;
  lan.latency = net::msec(2);
  network.add_link(edge_host, client, lan);

  streaming::StreamingServer server(network, origin);
  edge::OriginGateway gateway(network, server);
  edge::EdgeConfig ec;
  ec.origin = origin;
  edge::EdgeNode edge(network, edge_host, ec);

  streaming::EncodeJob job;
  job.profile = *media::find_profile("Video 250k DSL/cable");
  job.preroll = net::msec(2000);
  const auto len = net::sec(20);
  media::LectureVideoSource v(len, job.profile.fps, job.profile.width,
                              job.profile.height, 7);
  media::LectureAudioSource a(len, job.profile.audio_sample_rate());
  auto enc = streaming::encode_lecture(job, v, a, {});
  server.publish("lecture", enc.file);

  // SLO rules watched while the session runs; the selector demotes the edge
  // if its cache hit rate collapses.
  obs::HealthMonitor health(sim.obs());
  health.add_rule(obs::slo_startup_p95(/*max_us=*/10'000'000));
  health.add_rule(obs::slo_stall_ratio(/*max_ratio=*/0.05, 50));
  health.add_rule(obs::slo_edge_cache_hit_rate(std::to_string(edge_host),
                                               /*min_rate=*/0.5, 20));
  health.start_periodic(
      [&sim](obs::TimeUs delay, std::function<void()> fn) {
        sim.schedule_after(net::SimDuration{static_cast<std::int64_t>(delay)},
                           std::move(fn));
      },
      net::msec(500).us);

  edge::ReplicaSelector sel(network, client, origin, {edge_host});
  sel.set_health(&health);

  streaming::PlayerConfig cfg;
  cfg.model = streaming::SyncModel::kEtpn;
  cfg.ctl_port = 5000;
  cfg.data_port = 5001;
  cfg.web_server = origin;
  streaming::Player player(network, client, cfg);
  player.open_and_play_via(sel, "lecture");
  sim.run_until(net::SimTime{net::sec(40).us});

  std::printf("== session timeline =========================================\n");
  report(sim.obs().flight().events());

  std::printf("== health ===================================================\n");
  const obs::HealthSummary sum = health.health();
  std::printf("%s: %zu/%zu rules violated\n",
              sum.healthy ? "healthy" : "UNHEALTHY", sum.violated, sum.rules);
  for (const obs::SloStatus& st : sum.statuses) {
    std::printf("  %-28s %s value %.3f threshold %.3f%s\n", st.rule.c_str(),
                st.healthy ? "ok " : "BAD", st.value, st.threshold,
                st.evaluated ? "" : " (no signal)");
  }

  std::printf("\n== prometheus (lod.player.* / lod.edge.*) ===================\n");
  std::istringstream prom(obs::to_prometheus(sim.obs().metrics().snapshot()));
  for (std::string line; std::getline(prom, line);) {
    if (line.rfind("lod_player_", 0) == 0 || line.rfind("lod_edge_", 0) == 0) {
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--demo") != 0) {
    return report_files(argc, argv);
  }
  return demo();
}
