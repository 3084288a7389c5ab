#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lod/edge/edge_node.hpp"
#include "lod/edge/replica_selector.hpp"
#include "lod/media/profile.hpp"
#include "lod/media/sources.hpp"
#include "lod/net/real_transport.hpp"
#include "lod/net/sharded_runner.hpp"
#include "lod/net/transport.hpp"
#include "lod/obs/export.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"
#include "workloads.hpp"

/// \file loopback_workload.cpp
/// The real pipeline: a deployment is one `RealTransport` event loop that
/// hosts every machine (origin, edges, clients), each on its own loopback
/// address, talking UDP through the kernel. One loop per deployment keeps
/// the CPU figures free of cross-thread wake-ups, whose cost on a shared
/// virtual machine depends on the neighbours. Three independent
/// deployments (sub-seeds of the run's seed) run at once, one thread each,
/// on disjoint addresses. The origin runs the streaming server, the edge
/// gateway and the slide web server; the edge host runs a stable edge,
/// next to a row of flaky edges that die one per second; the client hosts
/// run every player. Sessions of a high-bitrate profile arrive on a seeded
/// wall-clock schedule (open loop). A probe echoes patterned datagrams
/// client -> origin -> client and checks every byte.

namespace perfbench {

namespace {

namespace net = lod::net;
namespace edge = lod::edge;
namespace media = lod::media;
namespace streaming = lod::streaming;

constexpr net::HostId kOrigin = 1;
constexpr net::HostId kEdge = 2;
// Flaky edge j (host kFlakyBase + j) dies (j + 1) * kFlakyEveryUs into the
// run. A failover session arriving at a plays from the flaky edge that dies
// 1-2 s later, mid-playout, so every failover session meets a dead site.
constexpr net::HostId kFlakyBase = 3;
constexpr std::size_t kMaxFlakyEdges = 64;
constexpr std::int64_t kFlakyEveryUs = 1'000'000;
constexpr net::HostId kClientBase = kFlakyBase + kMaxFlakyEdges;
constexpr std::size_t kClientHosts = 4;
// Deployments run at once, one loop thread each. Each answers on its own
// run of loopback addresses.
constexpr std::size_t kDeployments = 3;
constexpr std::uint32_t kAddressesPerDeployment = 128;
static_assert(kClientBase + kClientHosts <= kAddressesPerDeployment);
// Unprivileged ports.
constexpr net::Port kCtl = 18554;
constexpr net::Port kGateway = 18556;
constexpr net::Port kWeb = 18080;
constexpr net::Port kProbe = 18600;
constexpr net::Port kSessionPortBase = 20000;
constexpr std::uint16_t kPortsPerSession = 4;
constexpr std::uint32_t kSlides = 2;

constexpr std::int64_t kLectureUs = 3'000'000;
constexpr std::int64_t kProbeEveryUs = 20'000;
// A finished session is judged and its player released this long after it
// finished (its STOP has landed by then), which keeps open sockets bounded.
constexpr std::int64_t kReleaseAfterUs = 500'000;
// Arrival rate of the open-loop schedule.
constexpr double kSessionsPerSecond = 60.0;

PlanSpec loopback_plan(std::int64_t window_us) {
  PlanSpec p;
  p.sessions = static_cast<std::size_t>(
      kSessionsPerSecond * static_cast<double>(window_us) / 1e6);
  // Interactive-heavy, so that a run holds enough resume/seek samples for
  // a steady median on a wall-clock backend.
  p.mix[0] = 0.40;
  p.mix[1] = 0.40;
  p.mix[2] = 0.20;
  p.mix[3] = 0.0;  // floor control runs only on the simulated fabric
  p.arrival_window_us = window_us;
  p.lecture_len_us = kLectureUs;
  p.interactions = 2;
  p.first_interaction_us = 1'000'000;
  p.first_jitter_us = 500'000;
  p.gap_us = 500'000;
  p.gap_jitter_us = 300'000;
  p.pause_len_us = 300'000;
  return p;
}

media::asf::File encode_lecture(Ledger* ledger) {
  Span s(ledger, Layer::kEncode);
  streaming::EncodeJob job;
  job.profile = *media::find_profile("Video 750k broadband");
  job.preroll = net::msec(500);
  // Seeks restart at the index entry before the target; the default 5 s
  // interval would send every seek in a 3 s lecture back to the start.
  job.index_interval = net::msec(500);
  const net::SimDuration len{kLectureUs};
  media::LectureVideoSource v(len, job.profile.fps, job.profile.width,
                              job.profile.height, 7);
  media::LectureAudioSource a(len, job.profile.audio_sample_rate());
  const auto times = media::make_slide_schedule(kSlides, len, 17);
  return streaming::encode_lecture(job, v, a,
                                   streaming::slide_flip_commands(times, "slides/"))
      .file;
}

void register_hosts(net::RealTransport& t) {
  t.register_host(kOrigin, "origin");
  t.register_host(kEdge, "edge");
  for (std::size_t i = 0; i < kMaxFlakyEdges; ++i) {
    t.register_host(static_cast<net::HostId>(kFlakyBase + i),
                    "edge-flaky" + std::to_string(i));
  }
  for (std::size_t i = 0; i < kClientHosts; ++i) {
    t.register_host(static_cast<net::HostId>(kClientBase + i),
                    "client" + std::to_string(i));
  }
}

/// The event loop every host of a deployment runs on and, in traced runs,
/// the seam decorator.
struct Loop {
  net::RealTransport net;
  Ledger ledger;
  std::optional<TracingTransport> tracer;

  Loop(bool traced, std::uint32_t base_ip)
      : net(net::RealTransport::Config{.base_ip = base_ip}) {
    register_hosts(net);
    if (traced) tracer.emplace(net, ledger);
  }
  net::Transport& seam() {
    return tracer ? static_cast<net::Transport&>(*tracer) : net;
  }
  Ledger* spans() { return tracer ? &ledger : nullptr; }
};

/// The deployment and its sessions. Members are destroyed in reverse
/// order: sessions and servers before the loop they are bound on.
class Deployment {
 public:
  Deployment(bool traced, const std::vector<SessionPlan>& plans,
             std::int64_t window_us, std::uint32_t base_ip);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Run every session through its schedule on the loop, on the calling
  /// thread; returns once the loop has stopped.
  void run();

  std::vector<Outcome> judge_sessions() const;
  lod::obs::Snapshot snapshot(std::int64_t* snapshot_ns);
  const Ledger& ledger() const { return loop_.ledger; }

  std::int64_t run_cpu_ns{0};
  std::int64_t run_top_ns{0};
  std::vector<std::int64_t> gen_late_us;
  std::vector<std::int64_t> timer_late_us;
  std::uint64_t probes_sent{0};
  std::uint64_t probes_ok{0};
  std::uint64_t probes_corrupt{0};
  std::int64_t open_server{0};
  std::int64_t open_edge{0};

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
    net::HostId flaky{kFlakyBase};  ///< failover sessions' first pick
    std::int64_t finished_seen_us{-1};
    std::optional<Outcome> outcome;
  };

  void start_session(Rec& r);
  void interact(Rec& r, const Interaction& in);
  void send_probe();
  /// Periodic tick: sends a probe, judges and releases finished sessions,
  /// and stops the loop once all are done.
  void tick(lod::net::SimTime due);

  const std::vector<SessionPlan>& plans_;
  std::int64_t window_us_;
  LectureUnits units_;
  Loop loop_;
  std::unique_ptr<streaming::StreamingServer> server_;
  std::unique_ptr<edge::OriginGateway> gateway_;
  std::unique_ptr<net::RpcServer> web_;
  std::unique_ptr<net::DatagramSocket> echo_;
  std::unique_ptr<edge::EdgeNode> edge_node_;
  std::vector<std::unique_ptr<edge::EdgeNode>> flaky_;
  std::unique_ptr<net::DatagramSocket> probe_;
  std::vector<Rec> recs_;
  std::uint32_t probe_seq_{0};
  std::int64_t hard_stop_us_{0};
  std::int64_t end_us_{0};
};

Deployment::Deployment(bool traced, const std::vector<SessionPlan>& plans,
                       std::int64_t window_us, std::uint32_t base_ip)
    : plans_(plans), window_us_(window_us), loop_(traced, base_ip) {
  media::asf::File lecture = encode_lecture(loop_.spans());
  units_ = lecture_units(lecture);
  if (traced) {
    loop_.tracer->set_role(kOrigin, Role::kOrigin);
    loop_.tracer->set_role(kEdge, Role::kEdge);
    const auto migrate_port =
        static_cast<net::Port>(kCtl + streaming::proto::kMigratePortOffset);
    loop_.tracer->attribute(kEdge, migrate_port, Layer::kMigrate);
    for (std::size_t i = 0; i < kMaxFlakyEdges; ++i) {
      const auto h = static_cast<net::HostId>(kFlakyBase + i);
      loop_.tracer->set_role(h, Role::kEdge);
      loop_.tracer->attribute(h, migrate_port, Layer::kMigrate);
    }
  }

  // --- origin host: server, edge gateway, slide web server --------------
  streaming::ServerConfig scfg;
  scfg.control_port = kCtl;
  {
    Span s(loop_.spans(), Layer::kServer);
    server_ = std::make_unique<streaming::StreamingServer>(loop_.seam(),
                                                           kOrigin, scfg);
  }
  {
    Span s(loop_.spans(), Layer::kPublish);
    server_->publish("lecture", std::move(lecture));
  }
  {
    Span s(loop_.spans(), Layer::kGateway);
    gateway_ =
        std::make_unique<edge::OriginGateway>(loop_.seam(), *server_, kGateway);
  }
  {
    Span s(loop_.spans(), Layer::kServer);
    web_ = std::make_unique<net::RpcServer>(loop_.seam(), kOrigin, kWeb);
    for (std::uint32_t i = 0; i < kSlides; ++i) {
      web_->route("/slides/" + std::to_string(i),
                  [](std::string_view, std::span<const std::byte>) {
                    return std::make_pair(200,
                                          media::asf::pattern_bytes(8'000, 1));
                  });
    }
  }
  {
    Span s(loop_.spans(), Layer::kDriver);
    echo_ = std::make_unique<net::DatagramSocket>(loop_.seam(), kOrigin, kProbe);
    echo_->on_receive([this](const net::Datagram& d) {
      echo_->send_to(d.src, d.src_port, d.payload);
    });
  }

  // --- edge hosts: a stable edge and the flaky ones --------------------
  {
    Span s(loop_.spans(), Layer::kEdgeNode);
    edge::EdgeConfig ecfg;
    ecfg.control_port = kCtl;
    ecfg.origin = kOrigin;
    ecfg.origin_gateway_port = kGateway;
    edge_node_ = std::make_unique<edge::EdgeNode>(loop_.seam(), kEdge, ecfg);
    const auto count = std::min<std::size_t>(
        kMaxFlakyEdges,
        static_cast<std::size_t>(window_us_ / kFlakyEveryUs) + 2);
    for (std::size_t i = 0; i < count; ++i) {
      flaky_.push_back(std::make_unique<edge::EdgeNode>(
          loop_.seam(), static_cast<net::HostId>(kFlakyBase + i), ecfg));
    }
  }

  // --- client hosts: the probe and the session records -----------------
  {
    Span s(loop_.spans(), Layer::kDriver);
    probe_ = std::make_unique<net::DatagramSocket>(loop_.seam(), kClientBase,
                                                   kProbe);
    probe_->on_receive([this](const net::Datagram& d) {
      const auto v = d.payload.view();
      std::uint32_t seq = 0;
      if (v.size() < sizeof seq) {
        probes_corrupt++;
        return;
      }
      std::memcpy(&seq, v.data(), sizeof seq);
      const auto want = media::asf::pattern_bytes(v.size() - sizeof seq, seq);
      if (std::equal(want.begin(), want.end(), v.begin() + sizeof seq)) {
        probes_ok++;
      } else {
        probes_corrupt++;
      }
    });
  }
  recs_.resize(plans_.size());
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    recs_[i].plan = &plans_[i];
    recs_[i].client = static_cast<net::HostId>(kClientBase + i % kClientHosts);
    const auto j =
        static_cast<std::size_t>(plans_[i].arrival_us / kFlakyEveryUs) + 1;
    recs_[i].flaky =
        static_cast<net::HostId>(kFlakyBase + std::min(j, flaky_.size() - 1));
    recs_[i].base = static_cast<net::Port>(kSessionPortBase +
                                           (i / kClientHosts) * kPortsPerSession);
  }
}

void Deployment::send_probe() {
  const std::uint32_t seq = ++probe_seq_;
  const std::size_t body = 64 + (seq * 97) % 1200;
  std::vector<std::byte> bytes(sizeof seq);
  std::memcpy(bytes.data(), &seq, sizeof seq);
  const auto pattern = media::asf::pattern_bytes(body, seq);
  bytes.insert(bytes.end(), pattern.begin(), pattern.end());
  probe_->send_to(kOrigin, kProbe, net::Payload(std::move(bytes)));
  probes_sent++;
}

void Deployment::start_session(Rec& r) {
  Ledger* l = loop_.spans();
  Span driver(l, Layer::kDriver);
  r.open_us = loop_.net.now().us;
  streaming::PlayerConfig cfg;
  cfg.model = streaming::SyncModel::kEtpn;
  cfg.ctl_port = r.base;
  cfg.data_port = static_cast<net::Port>(r.base + 1);
  cfg.server_port = kCtl;
  cfg.web_server = kOrigin;
  cfg.web_port = kWeb;
  cfg.auto_stop_on_finish = true;
  if (r.plan->kind == Kind::kFailover) {
    cfg.failover_timeout = net::msec(1500);
    {
      Span s(l, Layer::kSelector);
      // The kernel path has no static latency, so the selector starts every
      // edge down; revive the flaky edge so it wins the first pick and the
      // stable edge is where sessions fail over to.
      r.selector = std::make_unique<edge::ReplicaSelector>(
          loop_.seam(), r.client, kEdge, std::vector<net::HostId>{r.flaky});
      r.selector->revive(r.flaky);
    }
    streaming::SiteSelector* sel = r.selector.get();
    if (l) {
      r.traced_selector = std::make_unique<TracedSelector>(*r.selector, *l);
      sel = r.traced_selector.get();
    }
    Span s(l, Layer::kPlayer);
    r.player = std::make_unique<streaming::Player>(loop_.seam(), r.client, cfg);
    r.player->open_and_play_via(*sel, "lecture");
    return;
  }
  const net::HostId site =
      r.plan->kind == Kind::kStraight && r.plan->direct_to_origin ? kOrigin
                                                                  : kEdge;
  Span s(l, Layer::kPlayer);
  r.player = std::make_unique<streaming::Player>(loop_.seam(), r.client, cfg);
  r.player->open_and_play(site, "lecture");
}

void Deployment::interact(Rec& r, const Interaction& in) {
  Ledger* l = loop_.spans();
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

void Deployment::run() {
  const std::int64_t window_us = window_us_;
  // Lead time so the loop is up before the first arrival is due.
  const net::SimTime start = loop_.net.now() + net::msec(100);
  {
    Span driver(loop_.spans(), Layer::kDriver);
    for (Rec& r : recs_) {
      Rec* rp = &r;
      const net::SimTime due = start + net::SimDuration{r.plan->arrival_us};
      loop_.seam().schedule_at(due, [this, rp, due] {
        gen_late_us.push_back(loop_.net.now().us - due.us);
        start_session(*rp);
      });
      for (const Interaction& in : r.plan->script) {
        const Interaction* ip = &in;
        loop_.seam().schedule_at(due + net::SimDuration{in.after_us},
                                   [this, rp, ip] { interact(*rp, *ip); });
      }
    }
    hard_stop_us_ = start.us + window_us + kLectureUs + 6'000'000;
    loop_.seam().schedule_at(start, [this, start] { tick(start); });
  }
  for (std::size_t i = 0; i < flaky_.size(); ++i) {
    const net::SimTime kill =
        start + net::SimDuration{static_cast<std::int64_t>(i + 1) * kFlakyEveryUs};
    loop_.seam().schedule_at(kill, [this, i] {
      Span s(loop_.spans(), Layer::kDriver);
      flaky_[i].reset();
    });
  }

  const std::int64_t top0 = loop_.ledger.top_level_ns();
  const std::int64_t cpu0 = thread_cpu_ns();
  loop_.net.run();
  run_cpu_ns = thread_cpu_ns() - cpu0;
  run_top_ns = loop_.ledger.top_level_ns() - top0;
  open_server = static_cast<std::int64_t>(server_->active_sessions());
  open_edge = static_cast<std::int64_t>(edge_node_->active_sessions());
  for (const auto& f : flaky_) {
    if (f) open_edge += static_cast<std::int64_t>(f->active_sessions());
  }
}

void Deployment::tick(net::SimTime due) {
  const net::SimTime now = loop_.net.now();
  timer_late_us.push_back(now.us - due.us);
  send_probe();
  bool done = true;
  for (Rec& r : recs_) {
    if (r.outcome) continue;
    done = false;
    if (!r.player || !r.player->finished()) continue;
    if (r.finished_seen_us < 0) r.finished_seen_us = now.us;
    if (now.us - r.finished_seen_us < kReleaseAfterUs) continue;
    r.outcome = judge(*r.player, units_, r.marks, r.open_us, now.us);
    Span driver(loop_.spans(), Layer::kDriver);
    Span s(loop_.spans(), Layer::kPlayer);
    r.player.reset();
    r.traced_selector.reset();
    r.selector.reset();
  }
  if (done || now.us >= hard_stop_us_) {
    end_us_ = now.us;
    loop_.net.stop();
    return;
  }
  const net::SimTime next = due + net::SimDuration{kProbeEveryUs};
  loop_.seam().schedule_at(next, [this, next] { tick(next); });
}

std::vector<Outcome> Deployment::judge_sessions() const {
  std::vector<Outcome> out;
  for (const Rec& r : recs_) {
    if (r.outcome) {
      out.push_back(*r.outcome);
      continue;
    }
    if (!r.player) {
      Outcome o;
      o.failed = true;
      out.push_back(o);
      continue;
    }
    out.push_back(judge(*r.player, units_, r.marks, r.open_us, end_us_));
  }
  return out;
}

lod::obs::Snapshot Deployment::snapshot(std::int64_t* snapshot_ns) {
  const std::int64_t t0 = mono_ns();
  lod::obs::Snapshot snap = loop_.net.obs().snapshot();
  *snapshot_ns = mono_ns() - t0;
  return snap;
}

double percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return static_cast<double>(v[i]);
}

/// The loopback addresses of deployment \p slot: its own run inside this
/// process's block (the block `RealTransport` derives from the pid by
/// default), so the deployments of a batch bind the same ports side by side.
std::uint32_t deployment_base_ip(std::size_t slot) {
  const auto pid = static_cast<std::uint32_t>(::getpid());
  return 0x7F000000u + ((pid % 4094u + 1u) << 12) +
         static_cast<std::uint32_t>(slot) * kAddressesPerDeployment;
}

/// A deployment after its run, with what the figures are read from.
struct Ran {
  std::unique_ptr<Deployment> dep;
  lod::obs::Snapshot snap;
  std::int64_t snapshot_ns{0};
  std::vector<Outcome> outcomes;
  std::uint64_t dgrams{0};
  double us_per_dgram{0.0};
  double sessions_per_cpu_s{0.0};
};

}  // namespace

RunResult run_loopback(const Options& opt) {
  // Every live player holds three UDP sockets: allow as many descriptors
  // as the hard limit does.
  rlimit fds{};
  if (getrlimit(RLIMIT_NOFILE, &fds) == 0 && fds.rlim_cur < fds.rlim_max) {
    fds.rlim_cur = fds.rlim_max;
    setrlimit(RLIMIT_NOFILE, &fds);
  }
  RunResult out;
  const auto budget_us = static_cast<std::int64_t>(opt.seconds * 1e6);
  // A window holds the arrivals; the last sessions then play out (lecture
  // plus start-up and failover slack) and the deployment is torn down.
  const std::int64_t tail_us = kLectureUs + 4'000'000;
  const std::int64_t window_us =
      std::max<std::int64_t>((opt.trace ? budget_us / 2 : budget_us) - tail_us,
                             2'000'000);
  std::vector<std::vector<SessionPlan>> plans;
  for (std::size_t k = 0; k < kDeployments; ++k) {
    plans.push_back(make_plans(loopback_plan(window_us),
                               net::derive_shard_seed(opt.seed, k)));
  }

  auto build = [&](bool traced, std::size_t k) {
    return std::make_unique<Deployment>(traced, plans[k], window_us,
                                        deployment_base_ip(k));
  };
  // Set-up takes about a millisecond, so setup_s is the median of nine
  // builds torn down unused, after one cold build that is not timed (it
  // pays for first-touch page faults). The deployments that run are built
  // afterwards, untimed.
  build(false, 0);
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < 3 * kDeployments; ++i) {
    const std::int64_t t0 = mono_ns();
    build(false, i % kDeployments);
    setup_s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
  }

  // A batch runs every deployment at once, one loop thread each, so its
  // CPU figures sample several cores at the same moment (the median of
  // the batch is reported).
  auto run_batch = [&](bool traced) {
    std::vector<std::unique_ptr<Deployment>> deps;
    for (std::size_t k = 0; k < kDeployments; ++k) deps.push_back(build(traced, k));
    std::vector<std::exception_ptr> errors(kDeployments);
    {
      std::vector<std::thread> loops;
      // Joins on every way out, including a failed thread start.
      struct JoinAll {
        std::vector<std::thread>& threads;
        ~JoinAll() {
          for (std::thread& t : threads) {
            if (t.joinable()) t.join();
          }
        }
      } join_all{loops};
      for (std::size_t k = 0; k < kDeployments; ++k) {
        loops.emplace_back([&deps, &errors, k] {
          try {
            deps[k]->run();
          } catch (...) {
            errors[k] = std::current_exception();
          }
        });
      }
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    std::vector<Ran> batch(kDeployments);
    for (std::size_t k = 0; k < kDeployments; ++k) {
      Ran& r = batch[k];
      r.dep = std::move(deps[k]);
      r.snap = r.dep->snapshot(&r.snapshot_ns);
      r.outcomes = r.dep->judge_sessions();
      r.dgrams = r.snap.total("lod.realnet.datagrams_received");
      const double cpu_us = static_cast<double>(r.dep->run_cpu_ns) / 1e3;
      r.us_per_dgram =
          cpu_us / static_cast<double>(std::max<std::uint64_t>(r.dgrams, 1));
      r.sessions_per_cpu_s = static_cast<double>(r.outcomes.size()) / (cpu_us / 1e6);
    }
    return batch;
  };
  std::vector<Ran> plain = run_batch(false);
  std::vector<Ran> traced;
  if (opt.trace) traced = run_batch(true);

  // Session figures pool the untraced batch; the checks cover every run.
  std::vector<Outcome> pooled, checked;
  std::vector<double> per_dgram, per_cpu_s, traced_per_dgram;
  std::vector<std::int64_t> timer_late_us, gen_late_us;
  std::uint64_t dgrams = 0, probes_sent = 0, probes_ok = 0, probes_corrupt = 0;
  std::uint64_t frames_dropped = 0;
  std::int64_t open_server = 0, open_edge = 0;
  std::size_t silent = 0;  // deployments whose probes never came back
  for (const Ran& r : plain) {
    pooled.insert(pooled.end(), r.outcomes.begin(), r.outcomes.end());
    per_dgram.push_back(r.us_per_dgram);
    per_cpu_s.push_back(r.sessions_per_cpu_s);
    dgrams += r.dgrams;
    const Deployment& d = *r.dep;
    timer_late_us.insert(timer_late_us.end(), d.timer_late_us.begin(),
                         d.timer_late_us.end());
    gen_late_us.insert(gen_late_us.end(), d.gen_late_us.begin(),
                       d.gen_late_us.end());
  }
  for (const std::vector<Ran>* batch : {&plain, &traced}) {
    for (const Ran& r : *batch) {
      checked.insert(checked.end(), r.outcomes.begin(), r.outcomes.end());
      const Deployment& d = *r.dep;
      probes_sent += d.probes_sent;
      probes_ok += d.probes_ok;
      probes_corrupt += d.probes_corrupt;
      if (d.probes_ok == 0) silent++;
      frames_dropped += r.snap.total("lod.net.frames_dropped");
      open_server += d.open_server;
      open_edge += d.open_edge;
    }
  }
  for (const Ran& r : traced) traced_per_dgram.push_back(r.us_per_dgram);
  SessionStats st = summarize(pooled);
  const SessionStats all = summarize(checked);
  // The tails are medians over the deployments: pooled, the tenth sample
  // from the top sits near p99.7, where one stall of one loop decides it.
  std::vector<double> startup_tail, startup_pct, interaction_tail, interaction_pct;
  for (const Ran& r : plain) {
    const SessionStats one = summarize(r.outcomes);
    startup_tail.push_back(one.startup_tail_ms);
    startup_pct.push_back(one.startup_tail_pct);
    interaction_tail.push_back(one.interaction_tail_ms);
    interaction_pct.push_back(one.interaction_tail_pct);
  }
  st.startup_tail_ms = median(startup_tail);
  st.startup_tail_pct = median(startup_pct);
  st.interaction_tail_ms = median(interaction_tail);
  st.interaction_tail_pct = median(interaction_pct);

  out.attempted = checked.size();
  out.failed = all.misordered;
  if (all.order_violations > 0) {
    out.problems.push_back(std::to_string(all.order_violations) +
                           " rendered units out of pts order or rendered twice");
  }
  if (probes_corrupt > 0) {
    out.problems.push_back(std::to_string(probes_corrupt) +
                           " loopback probe datagrams arrived corrupted");
  }
  if (silent > 0) {
    out.problems.push_back(std::to_string(silent) +
                           " deployments got no loopback probe datagram back");
  }
  if (frames_dropped > 0) {
    out.problems.push_back(std::to_string(frames_dropped) +
                           " malformed frames dropped by the receivers");
  }

  auto rec = [&](const std::string& key, double v) {
    out.record.emplace_back(key, json_number(v));
  };
  rec("deployments", static_cast<double>(plain.size() + traced.size()));
  rec("sessions", static_cast<double>(st.sessions));
  rec("sessions_failed", static_cast<double>(st.failed));
  rec("session_fail_frac", 1.0 - st.ok_frac);
  rec("startup_tail_percentile", st.startup_tail_pct);
  rec("interaction_tail_percentile", st.interaction_tail_pct);
  rec("interactions", static_cast<double>(st.interactions));
  rec("datagrams_received", static_cast<double>(dgrams));
  rec("probes_sent", static_cast<double>(probes_sent));
  rec("probes_ok", static_cast<double>(probes_ok));
  rec("probes_corrupt", static_cast<double>(probes_corrupt));
  rec("streaming_server_open_after_drain", static_cast<double>(open_server));
  rec("edge_node_open_after_drain", static_cast<double>(open_edge));
  rec("realnet_timer_late_p50_us", percentile(timer_late_us, 0.50));
  rec("realnet_timer_late_p99_us", percentile(timer_late_us, 0.99));
  rec("realnet_gen_late_p99_ms", percentile(gen_late_us, 0.99) / 1000.0);

  if (!opt.trace) {
    EndToEnd e;
    // On the kernel backend the dispatched events counted are datagram
    // receptions (RealTransport keeps no timer counter).
    e.us_per_event = median(per_dgram);
    e.cpu_us_per_dgram = median(per_dgram);
    e.sessions_per_cpu_s = median(per_cpu_s);
    e.setup_s = median(setup_s);
    e.sessions = st;
    out.metrics = end_to_end_metrics(e);
  } else {
    // Per-layer figures from the traced deployment with the median CPU per
    // datagram. One loop has nothing to merge: the shard-merge figure is
    // the time to take its registry snapshot.
    std::sort(traced.begin(), traced.end(), [](const Ran& a, const Ran& b) {
      return a.us_per_dgram < b.us_per_dgram;
    });
    const Ran& t = traced[traced.size() / 2];
    const Deployment& d = *t.dep;
    LayerInputs in;
    in.ledger = d.ledger();
    in.run_cpu_ns = d.run_cpu_ns;
    in.run_top_ns = d.run_top_ns;
    in.events_fired = in.ledger.timers_fired;
    for (std::uint64_t n : in.ledger.receives) in.events_fired += n;
    in.sessions = t.outcomes.size();
    in.snapshot = t.snap;
    in.open_server = d.open_server;
    in.open_edge = d.open_edge;
    in.merge_ns = t.snapshot_ns;
    const std::int64_t e0 = mono_ns();
    const std::string json = lod::obs::to_json(t.snap);
    in.export_ns = mono_ns() - e0;
    in.overhead_frac = median(traced_per_dgram) / median(per_dgram) - 1.0;
    out.metrics = layer_metrics(in);
  }
  out.correct = out.problems.empty();
  return out;
}

}  // namespace perfbench
