#include "lod/net/network.hpp"
#include "lod/net/sharded_runner.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <string>

#include "lod/lod/loadgen.hpp"
#include "lod/media/profile.hpp"
#include "lod/media/sources.hpp"
#include "lod/obs/export.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"

namespace lod::net {
namespace {

// --- seed derivation ---------------------------------------------------------

TEST(DeriveShardSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_shard_seed(42, 3), derive_shard_seed(42, 3));
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {0ULL, 1ULL, 2ULL, 0xDEADBEEFULL}) {
    for (std::size_t shard = 0; shard < 16; ++shard) {
      seen.insert(derive_shard_seed(root, shard));
    }
  }
  // 4 roots x 16 shards, all decorrelated — no collisions.
  EXPECT_EQ(seen.size(), 64u);
}

// --- runner mechanics --------------------------------------------------------

TEST(ShardedRunner, BodySeesItsCoordinatesAndDerivedSeed) {
  ShardedRunner runner(3, 0xAB);
  const auto r = runner.run([](ShardEnv& env) {
    EXPECT_EQ(env.shard_count, 3u);
    EXPECT_EQ(env.seed, derive_shard_seed(0xAB, env.shard));
    env.sim.obs().metrics().counter("test.ran").inc();
  });
  ASSERT_EQ(r.shards.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(r.shards[k].shard, k);
    EXPECT_EQ(r.shards[k].seed, derive_shard_seed(0xAB, k));
    EXPECT_EQ(r.shards[k].snapshot.counter("test.ran"), 1u);
  }
  EXPECT_EQ(r.merged.counter("test.ran"), 3u);
}

TEST(ShardedRunner, ZeroShardsClampsToOne) {
  ShardedRunner runner(0);
  EXPECT_EQ(runner.shard_count(), 1u);
  const auto r = runner.run([](ShardEnv&) {});
  EXPECT_EQ(r.shards.size(), 1u);
}

TEST(ShardedRunner, MergedCountersSumAndGaugesKeepPerShardSeries) {
  ShardedRunner runner(2, 7);
  const auto r = runner.run([](ShardEnv& env) {
    auto& m = env.sim.obs().metrics();
    m.counter("test.events").inc(10 * (env.shard + 1));
    m.gauge("test.depth").set(static_cast<std::int64_t>(env.shard) + 5);
  });
  EXPECT_EQ(r.merged.counter("test.events"), 30u);
  // Aggregate gauge is last-writer (shard 1); per-shard values survive under
  // the appended {shard=<k>} label.
  EXPECT_EQ(r.merged.gauge("test.depth"), 6);
  EXPECT_EQ(r.merged.gauge("test.depth", {{"shard", "0"}}), 5);
  EXPECT_EQ(r.merged.gauge("test.depth", {{"shard", "1"}}), 6);
}

TEST(ShardedRunner, EventsFiredAndEndTimeCaptured) {
  ShardedRunner runner(2, 1);
  const auto r = runner.run([](ShardEnv& env) {
    for (int i = 0; i < 4; ++i) {
      env.sim.schedule_after(msec(10 * (i + 1)), [] {});
    }
    env.sim.run_until(SimTime{sec(1).us});
  });
  for (const auto& s : r.shards) {
    EXPECT_EQ(s.events_fired, 4u);
    EXPECT_EQ(s.end_time, SimTime{sec(1).us});
  }
  EXPECT_EQ(r.total_events_fired(), 8u);
}

TEST(ShardedRunner, TraceCollationOrdersByTimeWithDistinctIdRanges) {
  ShardedRunner runner(2, 1, /*enable_trace=*/true);
  const auto r = runner.run([](ShardEnv& env) {
    auto& journal = env.sim.obs().flight();
    // Shard 0 emits at 2ms and 4ms, shard 1 at 1ms and 3ms: the merged
    // timeline must interleave them by time.
    const auto base = msec(env.shard == 0 ? 2 : 1);
    env.sim.schedule_after(base, [&journal, &env] {
      journal.emit(obs::FlightType::kSpanBegin, env.shard);
    });
    env.sim.schedule_after(base + msec(2), [&journal, &env] {
      journal.emit(obs::FlightType::kSpanEnd, env.shard);
    });
    const auto ctx = journal.make_trace();
    EXPECT_GE(ctx.trace_id, (static_cast<std::uint64_t>(env.shard) + 1) << 32);
    EXPECT_LT(ctx.trace_id, (static_cast<std::uint64_t>(env.shard) + 2) << 32);
    env.sim.run_until(SimTime{sec(1).us});
  });
  ASSERT_EQ(r.trace.size(), 4u);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i - 1].t, r.trace[i].t);
  }
  // 1ms (shard 1), 2ms (shard 0), 3ms (shard 1), 4ms (shard 0).
  EXPECT_EQ(r.trace[0].actor, 1u);
  EXPECT_EQ(r.trace[1].actor, 0u);
  EXPECT_EQ(r.trace[2].actor, 1u);
  EXPECT_EQ(r.trace[3].actor, 0u);
}

TEST(ShardedRunner, BodyExceptionPropagatesAfterAllShardsJoin) {
  ShardedRunner runner(3, 1);
  EXPECT_THROW(runner.run([](ShardEnv& env) {
    if (env.shard == 1) throw std::runtime_error("shard 1 blew up");
    env.sim.obs().metrics().counter("test.ok").inc();
  }),
               std::runtime_error);
}

}  // namespace
}  // namespace lod::net

namespace lod::lod {
namespace {

WorkloadSpec small_spec() {
  WorkloadSpec spec;
  spec.sessions = 12;
  spec.client_hosts = 4;
  spec.lecture_len = net::sec(4);
  spec.arrival_window = net::sec(4);
  spec.flaky_edge_up_for = net::sec(3);
  spec.horizon = net::sec(90);
  return spec;
}

TEST(LoadGen, KindAndArrivalDependOnlyOnRootSeedAndGlobalIndex) {
  const auto spec = small_spec();
  net::Simulator sim_a;
  net::Simulator sim_b;
  LoadGen one(sim_a, spec, 0x1234, /*shard=*/0, /*shard_count=*/1);
  LoadGen four(sim_b, spec, 0x1234, /*shard=*/2, /*shard_count=*/4);
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    EXPECT_EQ(one.kind_of(i), four.kind_of(i)) << "session " << i;
    EXPECT_EQ(one.arrival_of(i).us, four.arrival_of(i).us) << "session " << i;
    EXPECT_LT(one.arrival_of(i).us, spec.arrival_window.us);
  }
}

TEST(LoadGen, SmallMixedWorkloadFinishesEverySession) {
  const auto r = LoadGen::run_sharded(small_spec(), 2, 0x51AB);
  EXPECT_EQ(r.merged.counter("lod.loadgen.sessions"), 12u);
  EXPECT_EQ(r.merged.counter("lod.loadgen.finished"), 12u);
  EXPECT_GT(r.merged.counter("lod.loadgen.units_rendered"), 0u);
  EXPECT_GT(r.merged.counter("lod.loadgen.packets_received"), 0u);
}

TEST(LoadGen, WorkloadCompositionIsIdenticalAcrossShardCounts) {
  const auto spec = small_spec();
  const auto one = LoadGen::run_sharded(spec, 1, 0xFEED);
  const auto two = LoadGen::run_sharded(spec, 2, 0xFEED);
  for (const char* kind : {"straight", "interactive", "failover", "floor"}) {
    EXPECT_EQ(
        one.merged.counter("lod.loadgen.sessions_kind", {{"kind", kind}}),
        two.merged.counter("lod.loadgen.sessions_kind", {{"kind", kind}}))
        << kind;
  }
  EXPECT_EQ(one.merged.counter("lod.loadgen.sessions"),
            two.merged.counter("lod.loadgen.sessions"));
}

TEST(LoadGen, SameRootSeedReproducesByteIdenticalMergedSnapshot) {
  const auto spec = small_spec();
  const auto a = LoadGen::run_sharded(spec, 2, 0xD5);
  const auto b = LoadGen::run_sharded(spec, 2, 0xD5);
  EXPECT_EQ(obs::to_json(a.merged), obs::to_json(b.merged));
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

}  // namespace
}  // namespace lod::lod

namespace lod::streaming {
namespace {

// Every shard publishes the same encoded File to its own server and plays
// it: the shards share the File's payload bodies across threads, so this
// is where a race on their refcounts would show (run it under TSan).
TEST(ShardedRunner, ShardsShareOneFilesBytesAcrossTheirServers) {
  EncodeJob job;
  job.profile = *media::find_profile("Video 56k dial-up");
  job.preroll = net::msec(1000);
  media::LectureVideoSource v(net::sec(4), job.profile.fps, job.profile.width,
                              job.profile.height, 5);
  media::LectureAudioSource a(net::sec(4), job.profile.audio_sample_rate());
  const media::asf::File file = encode_lecture(job, v, a, {}).file;
  const net::Payload& first = file.packets.front().payloads.front().data;
  const long owners_before = first.owners();

  constexpr std::size_t kShards = 2;
  std::array<std::size_t, kShards> rendered{};
  std::array<std::uint64_t, kShards> publish_copied{};
  net::ShardedRunner runner(kShards, 3);
  runner.run([&](net::ShardEnv& env) {
    net::Network network(env.sim, env.seed);
    const net::HostId origin = network.add_host("origin");
    const net::HostId client = network.add_host("client");
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = net::msec(2);
    network.add_link(origin, client, lan);
    StreamingServer server(network, origin);
    net::Payload::reset_stats();
    server.publish("lec", file);
    publish_copied[env.shard] = net::Payload::stats().bytes_copied;
    const media::asf::File* published = server.stored("lec");
    EXPECT_EQ(published->packets.front().payloads.front().data.data(),
              first.data());

    PlayerConfig cfg;
    cfg.model = SyncModel::kEtpn;
    cfg.web_server = origin;
    Player p(network, client, cfg);
    p.open_and_play(origin, "lec");
    env.sim.run();
    EXPECT_TRUE(p.finished());
    rendered[env.shard] = p.units_rendered();
  });
  for (std::size_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(publish_copied[k], 0u) << k;
    EXPECT_GT(rendered[k], 0u) << k;
    EXPECT_EQ(rendered[k], rendered[0]) << k;
  }
  // Both servers are gone; the File is again its bytes' only holder.
  EXPECT_EQ(first.owners(), owners_before);
}

}  // namespace
}  // namespace lod::streaming
