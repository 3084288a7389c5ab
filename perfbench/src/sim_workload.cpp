#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lod/edge/edge_node.hpp"
#include "lod/edge/replica_selector.hpp"
#include "lod/lod/floor.hpp"
#include "lod/lod/loadgen.hpp"
#include "lod/media/profile.hpp"
#include "lod/media/sources.hpp"
#include "lod/net/network.hpp"
#include "lod/net/sharded_runner.hpp"
#include "lod/obs/export.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"
#include "workloads.hpp"

/// \file sim_workload.cpp
/// The simulated workloads. Each run builds the same deployment shape as
/// `lod::LoadGen` (origin + gateway, a stable edge, a flaky edge that dies
/// mid-run, a floor service, client hosts on WAN/LAN links) from the public
/// constructors, and drives seeded session plans against it on a
/// `net::ShardedRunner`.

namespace perfbench {

namespace {

namespace net = lod::net;
namespace edge = lod::edge;
namespace media = lod::media;
namespace streaming = lod::streaming;

constexpr std::uint64_t kNetSalt = 0x6e65747325ULL;
constexpr net::Port kFloorPort = 7100;
constexpr net::Port kSessionPortBase = 10000;
// A player takes ctl/data/data+1, a floor client base+3/base+4; one spare.
constexpr std::uint16_t kPortsPerSession = 6;
constexpr std::uint32_t kMaxReleaseAttempts = 240;
constexpr std::size_t kClientHosts = 16;
constexpr const char* kProfile = "Video 56k dial-up";
// No workload keeps more than this many simulation threads busy.
constexpr std::size_t kWorkerThreads = 3;

struct SimSpec {
  PlanSpec plan;
  std::int64_t flaky_up_for_us{6'000'000};
  std::int64_t horizon_us{120'000'000};
  bool migrate_on_failover{false};
  std::size_t cache_budget_bytes{16u * 1024 * 1024};
  std::size_t shards{1};
  /// Per-packet delay jitter (std-dev) on the client LANs and the WAN. It
  /// makes delays continuous, so latency figures differ from seed to seed
  /// instead of landing on the same fixed path delay.
  std::int64_t lan_jitter_us{1000};
  std::int64_t wan_jitter_us{3000};
  /// Independent simulations (sub-seeds of the run's seed) pooled into one
  /// run's session figures.
  std::size_t sims_per_run{1};
};

// Workload sizes. `steady` sits below the one-shard congestion cliff and
// `overload` past it (the cliff depends on how many sessions overlap, not
// on the session count alone). `catalog_seek` holds a fixed load per shard.
std::optional<SimSpec> sim_spec(const std::string& name) {
  SimSpec s;
  if (name == "steady") {
    s.plan.sessions = 1200;
    s.plan.lecture_len_us = 90'000'000;
    s.plan.arrival_window_us = 120'000'000;
    s.flaky_up_for_us = 60'000'000;
    s.horizon_us = 240'000'000;
    s.sims_per_run = 6;
    return s;
  }
  if (name == "overload") {
    s.plan.sessions = 2000;
    s.plan.lecture_len_us = 8'000'000;
    s.plan.arrival_window_us = 10'000'000;
    s.flaky_up_for_us = 6'000'000;
    s.horizon_us = 120'000'000;
    s.sims_per_run = 6;
    return s;
  }
  if (name == "catalog_seek") {
    s.shards = 2;
    s.plan.sessions = 2 * 600;
    s.plan.mix[0] = 0.25;
    s.plan.mix[1] = 0.50;
    s.plan.mix[2] = 0.20;
    s.plan.mix[3] = 0.05;
    s.plan.lectures = 40;
    s.plan.zipf_s = 0.9;
    s.plan.lecture_len_us = 20'000'000;
    s.plan.arrival_window_us = 60'000'000;
    s.plan.interactions = 6;
    s.plan.seek_share = 0.8;
    s.flaky_up_for_us = 30'000'000;
    s.horizon_us = 150'000'000;
    s.migrate_on_failover = true;
    s.cache_budget_bytes = 3584u * 1024;
    s.sims_per_run = 16;
    return s;
  }
  return std::nullopt;
}

std::string lecture_name(std::uint32_t k) { return "lec" + std::to_string(k); }

struct Catalog {
  std::vector<media::asf::File> files;
  std::vector<LectureUnits> units;
};

Catalog encode_catalog(const SimSpec& spec, Ledger* ledger) {
  Catalog c;
  const auto prof = media::find_profile(kProfile);
  const net::SimDuration len{spec.plan.lecture_len_us};
  for (std::size_t k = 0; k < std::max<std::size_t>(spec.plan.lectures, 1); ++k) {
    Span s(ledger, Layer::kEncode);
    streaming::EncodeJob job;
    job.profile = *prof;
    job.preroll = net::msec(2000);
    media::LectureVideoSource v(len, job.profile.fps, job.profile.width,
                                job.profile.height, 5 + k);
    media::LectureAudioSource a(len, job.profile.audio_sample_rate());
    auto enc = streaming::encode_lecture(job, v, a, {});
    c.units.push_back(lecture_units(enc.file));
    c.files.push_back(std::move(enc.file));
  }
  return c;
}

/// One shard's results, written only by that shard's worker.
struct ShardOut {
  std::vector<Outcome> outcomes;
  std::int64_t setup_ns{0};
  std::int64_t run_cpu_ns{0};
  std::int64_t run_top_ns{0};
  std::int64_t body_end_ns{0};
  std::int64_t open_server{0};
  std::int64_t open_edge{0};
  Ledger ledger;
};

/// One shard's deployment and its share of the sessions.
class Shard {
 public:
  Shard(net::ShardEnv& env, const SimSpec& spec, const Catalog& catalog,
        const std::vector<SessionPlan>& plans, std::uint64_t seed, bool traced,
        ShardOut& out)
      : env_(env),
        spec_(spec),
        catalog_(catalog),
        out_(out),
        net_(env.sim, net::derive_shard_seed(seed ^ kNetSalt, env.shard)) {
    if (traced) tracer_.emplace(net_, out_.ledger);
    build();
    std::vector<std::string> floor_users;
    for (const SessionPlan& p : plans) {
      if (p.index % env.shard_count != env.shard) continue;
      Rec r;
      r.plan = &p;
      const std::size_t slot = recs_.size();
      r.client = clients_[slot % clients_.size()];
      r.base = static_cast<net::Port>(
          kSessionPortBase + (slot / clients_.size()) * kPortsPerSession);
      if (p.kind == Kind::kFloor) floor_users.push_back(user(p));
      recs_.push_back(std::move(r));
    }
    floor_service_ = std::make_unique<lod::lod::FloorService>(
        net_, origin_, kFloorPort, std::move(floor_users));
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Run the plans to the horizon, drain, and judge every session.
  void run();

 private:
  struct Rec {
    const SessionPlan* plan{nullptr};
    net::HostId client{0};
    net::Port base{0};
    std::int64_t open_us{-1};
    std::vector<Mark> marks;
    std::unique_ptr<edge::ReplicaSelector> selector;
    std::unique_ptr<TracedSelector> traced_selector;
    std::unique_ptr<streaming::Player> player;
    std::unique_ptr<lod::lod::FloorClient> floor;
    std::uint32_t release_attempts{0};
  };

  static std::string user(const SessionPlan& p) {
    return "u" + std::to_string(p.index);
  }
  net::Transport& seam() {
    return tracer_ ? static_cast<net::Transport&>(*tracer_) : net_;
  }
  Ledger* ledger() { return tracer_ ? &out_.ledger : nullptr; }

  void build();
  void start_session(Rec& r);
  void interact(Rec& r, const Interaction& in);
  void floor_script(Rec& r);
  void floor_release_tick(Rec& r);

  net::ShardEnv& env_;
  const SimSpec& spec_;
  const Catalog& catalog_;
  ShardOut& out_;
  net::Network net_;
  std::optional<TracingTransport> tracer_;
  net::HostId origin_{0};
  net::HostId edge_host_{0};
  net::HostId flaky_host_{0};
  std::vector<net::HostId> clients_;
  std::unique_ptr<streaming::StreamingServer> server_;
  std::unique_ptr<edge::OriginGateway> gateway_;
  std::unique_ptr<edge::EdgeNode> edge_;
  std::unique_ptr<edge::EdgeNode> flaky_;
  std::unique_ptr<lod::lod::FloorService> floor_service_;
  std::vector<Rec> recs_;
};

void Shard::build() {
  origin_ = net_.add_host("origin");
  edge_host_ = net_.add_host("edge");
  flaky_host_ = net_.add_host("edge-flaky");
  net::LinkConfig wan;
  wan.bandwidth_bps = 20'000'000;
  wan.latency = net::msec(40);
  wan.jitter = net::usec(spec_.wan_jitter_us);
  net_.add_link(origin_, edge_host_, wan);
  net_.add_link(origin_, flaky_host_, wan);
  net::LinkConfig lan;
  lan.bandwidth_bps = 10'000'000;
  lan.latency = net::msec(2);
  lan.jitter = net::usec(spec_.lan_jitter_us);
  for (std::size_t i = 0; i < kClientHosts; ++i) {
    const net::HostId h = net_.add_host("client" + std::to_string(i));
    net_.add_link(h, edge_host_, lan);
    net_.add_link(h, flaky_host_, lan);
    clients_.push_back(h);
  }
  if (tracer_) {
    tracer_->set_role(origin_, Role::kOrigin);
    tracer_->set_role(edge_host_, Role::kEdge);
    tracer_->set_role(flaky_host_, Role::kEdge);
    // The edges' `/edge/migrate` RPC server is the migration layer.
    const auto migrate_port = static_cast<net::Port>(
        streaming::proto::kControlPort + streaming::proto::kMigratePortOffset);
    tracer_->attribute(edge_host_, migrate_port, Layer::kMigrate);
    tracer_->attribute(flaky_host_, migrate_port, Layer::kMigrate);
  }

  Ledger* l = ledger();
  {
    Span s(l, Layer::kServer);
    server_ = std::make_unique<streaming::StreamingServer>(seam(), origin_);
  }
  {
    Span s(l, Layer::kGateway);
    gateway_ = std::make_unique<edge::OriginGateway>(seam(), *server_);
  }
  {
    Span s(l, Layer::kEdgeNode);
    edge::EdgeConfig ec;
    ec.origin = origin_;
    ec.cache_budget_bytes = spec_.cache_budget_bytes;
    edge_ = std::make_unique<edge::EdgeNode>(seam(), edge_host_, ec);
    flaky_ = std::make_unique<edge::EdgeNode>(seam(), flaky_host_, ec);
  }
  for (std::size_t k = 0; k < catalog_.files.size(); ++k) {
    Span s(l, Layer::kPublish);
    server_->publish(lecture_name(static_cast<std::uint32_t>(k)),
                     catalog_.files[k]);
  }
}

void Shard::start_session(Rec& r) {
  Ledger* l = ledger();
  Span driver(l, Layer::kDriver);
  r.open_us = net_.now().us;
  streaming::PlayerConfig cfg;
  cfg.model = streaming::SyncModel::kEtpn;
  cfg.ctl_port = r.base;
  cfg.data_port = static_cast<net::Port>(r.base + 1);
  cfg.web_server = origin_;
  cfg.auto_stop_on_finish = true;
  const std::string content = lecture_name(r.plan->lecture);

  if (r.plan->kind == Kind::kFailover) {
    cfg.failover_timeout = net::msec(1500);
    {
      Span s(l, Layer::kSelector);
      if (spec_.migrate_on_failover) {
        // Migration needs a post-kill pick that speaks /edge/migrate: the
        // stable edge is the selector's floor, the flaky edge its first pick.
        cfg.migrate_on_failover = true;
        r.selector = std::make_unique<edge::ReplicaSelector>(
            seam(), r.client, edge_host_, std::vector<net::HostId>{flaky_host_});
      } else {
        r.selector = std::make_unique<edge::ReplicaSelector>(
            seam(), r.client, origin_, std::vector<net::HostId>{flaky_host_});
      }
    }
    streaming::SiteSelector* sel = r.selector.get();
    if (l) {
      r.traced_selector = std::make_unique<TracedSelector>(*r.selector, *l);
      sel = r.traced_selector.get();
    }
    Span s(l, Layer::kPlayer);
    r.player = std::make_unique<streaming::Player>(seam(), r.client, cfg);
    r.player->open_and_play_via(*sel, content);
    return;
  }
  const net::HostId site =
      r.plan->kind == Kind::kStraight && r.plan->direct_to_origin ? origin_
                                                                  : edge_host_;
  {
    Span s(l, Layer::kPlayer);
    r.player = std::make_unique<streaming::Player>(seam(), r.client, cfg);
    r.player->open_and_play(site, content);
  }
  if (r.plan->kind == Kind::kFloor) floor_script(r);
}

void Shard::interact(Rec& r, const Interaction& in) {
  Ledger* l = ledger();
  Span driver(l, Layer::kDriver);
  if (!r.player || r.player->finished()) return;
  r.marks.push_back(Mark{r.player->units_rendered(), r.player->position().us,
                         in.action, in.target_us});
  Span s(l, Layer::kPlayer);
  switch (in.action) {
    case Action::kPause: r.player->pause(); break;
    case Action::kResume: r.player->resume(); break;
    case Action::kSeek: r.player->seek(net::SimDuration{in.target_us}); break;
  }
}

// Floor traffic runs on the fabric directly: FloorService/FloorClient take
// `net::Network&`, so it bypasses the traced seam.
void Shard::floor_script(Rec& r) {
  r.floor = std::make_unique<lod::lod::FloorClient>(
      net_, r.client, static_cast<net::Port>(r.base + 3), user(*r.plan),
      origin_, kFloorPort, [](const std::string&) {});
  Rec* rp = &r;
  r.floor->join([this, rp](bool ok) {
    if (!ok) return;
    rp->floor->request_floor([this, rp](bool) {
      net_.schedule_after(net::msec(700), [this, rp] {
        rp->floor->speak("question from " + rp->floor->user());
        floor_release_tick(*rp);
      });
    });
  });
}

void Shard::floor_release_tick(Rec& r) {
  if (++r.release_attempts > kMaxReleaseAttempts) return;
  Rec* rp = &r;
  r.floor->release_floor([this, rp](bool ok) {
    if (ok) return;
    net_.schedule_after(net::msec(500), [this, rp] { floor_release_tick(*rp); });
  });
}

void Shard::run() {
  const net::SimTime start = net_.now();
  {
    Span driver(ledger(), Layer::kDriver);
    for (Rec& r : recs_) {
      Rec* rp = &r;
      const net::SimTime at = start + net::SimDuration{r.plan->arrival_us};
      seam().schedule_at(at, [this, rp] { start_session(*rp); });
      for (const Interaction& in : r.plan->script) {
        const Interaction* ip = &in;
        seam().schedule_at(at + net::SimDuration{in.after_us},
                           [this, rp, ip] { interact(*rp, *ip); });
      }
    }
    seam().schedule_at(start + net::SimDuration{spec_.flaky_up_for_us}, [this] {
      Span s(ledger(), Layer::kDriver);
      flaky_.reset();
    });
  }

  const std::int64_t top0 = out_.ledger.top_level_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  const net::SimTime horizon = start + net::SimDuration{spec_.horizon_us};
  env_.sim.run_until(horizon);
  // Anything still going at the horizon is stopped (and counts as not
  // finished); the teardown messages get a moment to drain.
  for (Rec& r : recs_) {
    if (!r.player || r.player->finished()) continue;
    Span driver(ledger(), Layer::kDriver);
    Span s(ledger(), Layer::kPlayer);
    r.player->stop();
  }
  env_.sim.run_until(env_.sim.now() + net::msec(500));
  out_.run_cpu_ns = thread_cpu_ns() - cpu0;
  out_.run_top_ns = out_.ledger.top_level_ns() - top0;

  out_.open_server = static_cast<std::int64_t>(server_->active_sessions());
  out_.open_edge = static_cast<std::int64_t>(edge_->active_sessions()) +
                   (flaky_ ? static_cast<std::int64_t>(flaky_->active_sessions())
                           : 0);
  for (Rec& r : recs_) {
    if (!r.player) {
      Outcome o;
      o.failed = true;
      o.startup_us = horizon.us - (start.us + r.plan->arrival_us);
      out_.outcomes.push_back(o);
      continue;
    }
    out_.outcomes.push_back(judge(*r.player, catalog_.units[r.plan->lecture],
                                  r.marks,
                                  r.open_us, horizon.us));
  }
}

/// One complete simulation of the workload: set-up, run, merge.
struct Rep {
  std::int64_t setup_ns{0};
  std::int64_t run_cpu_ns{0};
  std::int64_t run_top_ns{0};
  std::int64_t merge_ns{0};
  std::int64_t export_ns{0};
  std::uint64_t events{0};
  std::uint64_t cancelled{0};
  std::uint64_t delivered{0};
  std::int64_t open_server{0};
  std::int64_t open_edge{0};
  std::string snapshot_json;
  lod::obs::Snapshot merged;
  std::vector<Outcome> outcomes;
  SessionStats stats;
  Ledger ledger;
};

Rep run_rep(const SimSpec& spec, const std::vector<SessionPlan>& plans,
            std::uint64_t seed, bool traced) {
  Rep rep;
  const std::int64_t t0 = mono_ns();
  const Catalog catalog = encode_catalog(spec, traced ? &rep.ledger : nullptr);
  const std::int64_t encode_ns = mono_ns() - t0;

  std::vector<ShardOut> outs(spec.shards);
  net::ShardedRunner runner(spec.shards, seed);
  net::ShardedResult result = runner.run([&](net::ShardEnv& env) {
    ShardOut& out = outs[env.shard];
    {
      const std::int64_t s0 = mono_ns();
      Shard shard(env, spec, catalog, plans, seed, traced, out);
      out.setup_ns = mono_ns() - s0;
      shard.run();
    }
    out.body_end_ns = mono_ns();
  });
  const std::int64_t returned = mono_ns();

  std::int64_t last_end = 0;
  std::int64_t shard_setup = 0;
  std::vector<Outcome> outcomes;
  for (const ShardOut& o : outs) {
    last_end = std::max(last_end, o.body_end_ns);
    shard_setup = std::max(shard_setup, o.setup_ns);
    rep.run_cpu_ns += o.run_cpu_ns;
    rep.run_top_ns += o.run_top_ns;
    rep.open_server += o.open_server;
    rep.open_edge += o.open_edge;
    rep.ledger.add(o.ledger);
    outcomes.insert(outcomes.end(), o.outcomes.begin(), o.outcomes.end());
  }
  rep.setup_ns = encode_ns + shard_setup;
  rep.merge_ns = returned - last_end;
  const std::int64_t e0 = mono_ns();
  rep.snapshot_json = lod::obs::to_json(result.merged);
  rep.export_ns = mono_ns() - e0;
  rep.events = result.merged.total("lod.sim.events_fired");
  rep.cancelled = result.merged.total("lod.sim.events_cancelled");
  rep.delivered = result.merged.total("lod.net.packets_delivered");
  rep.merged = std::move(result.merged);
  rep.stats = summarize(outcomes);
  rep.outcomes = std::move(outcomes);
  return rep;
}

/// The sim-time figures, which must repeat exactly for a given seed.
std::vector<double> sim_figures(const Rep& r) {
  const SessionStats& s = r.stats;
  return {static_cast<double>(r.events), s.ok_frac,
          s.startup_p50_ms,             s.startup_tail_ms,
          s.interaction_p50_ms,         s.interaction_tail_ms,
          s.rebuffer_ratio,             s.failovers_per_session,
          static_cast<double>(s.order_violations)};
}

/// What a repeat of a sub-seed must reproduce.
struct Fingerprint {
  std::uint64_t events{0};
  std::string snapshot_json;
  std::vector<double> figures;
};

Fingerprint fingerprint(const Rep& r) {
  return {r.events, r.snapshot_json, sim_figures(r)};
}

void check_same(const Fingerprint& ref, const Rep& r, const std::string& what,
                RunResult& out) {
  if (r.events != ref.events) {
    out.problems.push_back(what + ": events_fired differ (" +
                           std::to_string(ref.events) + " vs " +
                           std::to_string(r.events) + ")");
  }
  if (r.snapshot_json != ref.snapshot_json) {
    out.problems.push_back(what + ": merged snapshot JSON is not byte-identical");
  }
  if (sim_figures(r) != ref.figures) {
    out.problems.push_back(what + ": sim-time end-to-end metrics differ");
  }
}

}  // namespace

RunResult run_s1_reference() {
  // LoadGen's S1 spec (1000 sessions, LoadGen defaults: 8 s lecture, 10 s
  // window, half the interactions seeks, flaky edge dies at 6 s, no link
  // jitter), one shard.
  constexpr std::uint64_t kS1Seed = 0xC0FFEE5EEDULL;
  SimSpec spec;
  spec.plan.sessions = 1000;
  spec.plan.seek_share = 0.5;
  spec.lan_jitter_us = 0;
  spec.wan_jitter_us = 0;
  const Rep ours =
      run_rep(spec, make_plans(spec.plan, kS1Seed), kS1Seed, false);
  lod::lod::WorkloadSpec s1;
  s1.sessions = 1000;
  s1.client_hosts = 16;
  const net::ShardedResult theirs = lod::lod::LoadGen::run_sharded(s1, 1, kS1Seed);
  RunResult out;
  out.attempted = spec.plan.sessions;
  out.record.emplace_back("perfbench_events_fired", json_number(static_cast<double>(ours.events)));
  out.record.emplace_back("loadgen_events_fired",
                          json_number(static_cast<double>(theirs.total_events_fired())));
  out.record.emplace_back("perfbench_sessions_failed",
                          json_number(static_cast<double>(ours.stats.failed)));
  out.record.emplace_back(
      "loadgen_finished",
      json_number(static_cast<double>(theirs.merged.total("lod.loadgen.finished"))));
  return out;
}

bool is_sim_workload(const std::string& name) {
  return sim_spec(name).has_value();
}

RunResult run_sim_workload(const Options& opt) {
  const SimSpec spec = *sim_spec(opt.workload);
  const std::int64_t deadline =
      mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::size_t k_sims = std::max<std::size_t>(spec.sims_per_run, 1);
  std::vector<std::uint64_t> sub_seeds;
  std::vector<std::vector<SessionPlan>> plans;
  for (std::size_t k = 0; k < k_sims; ++k) {
    sub_seeds.push_back(net::derive_shard_seed(opt.seed, k));
    plans.push_back(make_plans(spec.plan, sub_seeds.back()));
  }
  RunResult out;

  // First pass: one untraced simulation per sub-seed; the run's session
  // figures pool their sessions. Then repeat sub-seeds round-robin until
  // the time is used up (at least one repeat, the determinism check):
  // untraced repeats with --trace 0, traced ones with --trace 1. CPU
  // figures are medians over every untraced simulation. Simulations run in
  // batches on up to kWorkerThreads threads at once, so each batch samples
  // several cores at the same moment: on a shared machine one core's speed
  // drifts by tens of percent over minutes.
  const std::size_t parallel =
      std::max<std::size_t>(1, kWorkerThreads / spec.shards);
  std::vector<Fingerprint> refs;
  std::vector<Outcome> pooled;
  std::vector<double> us_per_event, per_cpu_s, setup_s, per_dgram;
  std::vector<double> untraced_cpu, traced_cpu;
  std::vector<Rep> traced;
  std::int64_t open_server = 0, open_edge = 0;
  std::uint64_t events = 0, queue_drops = 0;
  std::size_t sessions_driven = 0;
  std::size_t i = 0;
  while (true) {
    const std::int64_t b0 = mono_ns();
    std::vector<Rep> batch(parallel);
    std::vector<std::exception_ptr> errors(parallel);
    {
      std::vector<std::thread> workers;
      // Joins on every way out, including a failed thread start.
      struct JoinAll {
        std::vector<std::thread>& threads;
        ~JoinAll() {
          for (std::thread& t : threads) {
            if (t.joinable()) t.join();
          }
        }
      } join_all{workers};
      for (std::size_t p = 0; p < parallel; ++p) {
        const std::size_t k = (i + p) % k_sims;
        const bool trace_this = opt.trace && i + p >= k_sims;
        workers.emplace_back([&, p, k, trace_this] {
          try {
            batch[p] = run_rep(spec, plans[k], sub_seeds[k], trace_this);
          } catch (...) {
            errors[p] = std::current_exception();
          }
        });
      }
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (Rep& r : batch) {
      const std::size_t k = i % k_sims;
      const bool first_pass = i < k_sims;
      const bool trace_this = opt.trace && !first_pass;
      ++i;
      sessions_driven += plans[k].size();
      const double cpu_s = static_cast<double>(r.run_cpu_ns) / 1e9;
      const double cpu_us = static_cast<double>(r.run_cpu_ns) / 1e3;
      if (first_pass) {
        refs.push_back(fingerprint(r));
        pooled.insert(pooled.end(), r.outcomes.begin(), r.outcomes.end());
        open_server += r.open_server;
        open_edge += r.open_edge;
        events += r.events;
        queue_drops += r.merged.total("lod.net.packets_dropped_queue");
      } else {
        check_same(refs[k], r,
                   std::string(trace_this ? "traced" : "untraced") +
                       " repeat of sub-seed " + std::to_string(k),
                   out);
      }
      if (trace_this) {
        traced_cpu.push_back(cpu_s);
        r.outcomes.clear();
        traced.push_back(std::move(r));
      } else {
        untraced_cpu.push_back(cpu_s);
        us_per_event.push_back(cpu_us / static_cast<double>(
                                            std::max<std::uint64_t>(r.events, 1)));
        per_cpu_s.push_back(static_cast<double>(plans[k].size()) / cpu_s);
        setup_s.push_back(static_cast<double>(r.setup_ns) / 1e9);
        per_dgram.push_back(cpu_us / static_cast<double>(std::max<std::uint64_t>(
                                         r.delivered, 1)));
      }
    }
    const std::int64_t now = mono_ns();
    if (i >= k_sims + 1 && now + (now - b0) > deadline) break;
  }
  const std::size_t sims = i;

  const SessionStats st = summarize(pooled);
  out.attempted = sessions_driven;
  out.failed = st.misordered;
  if (st.order_violations > 0) {
    out.problems.push_back(std::to_string(st.order_violations) +
                           " rendered units out of pts order or rendered twice");
  }

  auto rec = [&](const std::string& key, double v) {
    out.record.emplace_back(key, json_number(v));
  };
  rec("simulations", static_cast<double>(sims));
  rec("sub_seeds", static_cast<double>(k_sims));
  rec("sessions", static_cast<double>(st.sessions));
  rec("sessions_failed", static_cast<double>(st.failed));
  rec("session_fail_frac", 1.0 - st.ok_frac);
  rec("startup_tail_percentile", st.startup_tail_pct);
  rec("interaction_tail_percentile", st.interaction_tail_pct);
  rec("interactions", static_cast<double>(st.interactions));
  rec("events_fired", static_cast<double>(events));
  rec("packets_dropped_queue", static_cast<double>(queue_drops));
  rec("streaming_server_open_after_drain", static_cast<double>(open_server));
  rec("edge_node_open_after_drain", static_cast<double>(open_edge));

  if (!opt.trace) {
    EndToEnd e;
    e.us_per_event = median(us_per_event);
    e.sessions_per_cpu_s = median(per_cpu_s);
    e.setup_s = median(setup_s);
    e.cpu_us_per_dgram = median(per_dgram);
    e.sessions = st;
    out.metrics = end_to_end_metrics(e);
  } else {
    // Per-layer figures from the traced simulation with the median run CPU.
    std::sort(traced.begin(), traced.end(), [](const Rep& a, const Rep& b) {
      return a.run_cpu_ns < b.run_cpu_ns;
    });
    const Rep& t = traced[traced.size() / 2];
    LayerInputs in;
    in.ledger = t.ledger;
    in.run_cpu_ns = t.run_cpu_ns;
    in.run_top_ns = t.run_top_ns;
    in.events_fired = t.events;
    in.events_cancelled = t.cancelled;
    in.sessions = plans.front().size();
    in.snapshot = t.merged;
    in.open_server = t.open_server;
    in.open_edge = t.open_edge;
    in.merge_ns = t.merge_ns;
    in.export_ns = t.export_ns;
    in.overhead_frac = median(traced_cpu) / median(untraced_cpu) - 1.0;
    out.metrics = layer_metrics(in);
  }
  out.correct = out.problems.empty();
  return out;
}

}  // namespace perfbench
