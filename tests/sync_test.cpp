#include "lod/sync/agent.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "lod/lod/floor.hpp"
#include "lod/net/network.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/streaming/player.hpp"
#include "lod/streaming/server.hpp"
#include "lod/sync/blocks.hpp"
#include "lod/sync/detector.hpp"
#include "lod/sync/replay.hpp"
#include "lod/sync/serialize.hpp"
#include "lod/sync/state.hpp"

namespace lod::sync {
namespace {

using net::msec;
using net::sec;
using net::SimDuration;
using net::SimTime;

std::span<const std::byte> span_of(const std::vector<std::byte>& v) {
  return {v.data(), v.size()};
}

// --- StateWriter / StateReader ----------------------------------------------------

TEST(SyncSerialize, RoundTripsEveryFieldType) {
  StateWriter w;
  w.u8(7);
  w.u16(60000);
  w.u32(0xdeadbeef);
  w.u64(1ull << 60);
  w.i64(-12345);
  w.f64(1.25);
  w.str("floor_free");
  w.marker(0x4d41524bu);
  w.blob(span_of(std::vector<std::byte>(13, std::byte{0x5a})));

  StateReader r(span_of(w.bytes()));
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 60000);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 1ull << 60);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_EQ(r.f64(), 1.25);
  EXPECT_EQ(r.str(), "floor_free");
  r.expect_marker(0x4d41524bu);
  EXPECT_EQ(r.blob().size(), 13u);
  EXPECT_TRUE(r.done());
}

TEST(SyncSerialize, MarkerMismatchThrows) {
  StateWriter w;
  w.marker(1);
  StateReader r(span_of(w.bytes()));
  EXPECT_THROW(r.expect_marker(2), std::runtime_error);
}

TEST(SyncSerialize, TruncatedInputThrowsNeverUb) {
  StateWriter w;
  w.u64(42);
  const auto& b = w.bytes();
  StateReader r(std::span{b.data(), 3});
  EXPECT_THROW(r.u64(), std::out_of_range);
}

TEST(SyncSerialize, ChecksumIsDeterministicAndSensitive) {
  std::vector<std::byte> a(64, std::byte{1});
  EXPECT_EQ(checksum64(span_of(a)), checksum64(span_of(a)));
  std::vector<std::byte> b = a;
  b[17] = std::byte{2};
  EXPECT_NE(checksum64(span_of(a)), checksum64(span_of(b)));
}

// --- DesyncDetector ---------------------------------------------------------------

TEST(DesyncDetector, ClassifiesTransientThenPersistent) {
  DesyncDetector d(DesyncDetector::Config{3});
  EXPECT_EQ(d.observe(1, true), DesyncDetector::Verdict::kInSync);
  EXPECT_EQ(d.observe(2, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.observe(3, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.observe(4, false), DesyncDetector::Verdict::kPersistent);
  EXPECT_TRUE(d.desynced());
  // One clean epoch clears it.
  EXPECT_EQ(d.observe(5, true), DesyncDetector::Verdict::kInSync);
  EXPECT_FALSE(d.desynced());
}

TEST(DesyncDetector, StaleOrRepeatedEpochsDoNotAdvance) {
  DesyncDetector d(DesyncDetector::Config{2});
  EXPECT_EQ(d.observe(5, false), DesyncDetector::Verdict::kTransient);
  // Same epoch again (duplicate gossip): ignored, verdict unchanged.
  EXPECT_EQ(d.observe(5, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.streak(), 1);
  // Older epoch: ignored.
  EXPECT_EQ(d.observe(3, false), DesyncDetector::Verdict::kTransient);
  EXPECT_EQ(d.observe(6, false), DesyncDetector::Verdict::kPersistent);
}

TEST(DesyncDetector, ResyncResetsTheStreak) {
  DesyncDetector d(DesyncDetector::Config{2});
  d.observe(1, false);
  d.observe(2, false);
  EXPECT_TRUE(d.desynced());
  d.note_resynced();
  EXPECT_FALSE(d.desynced());
  EXPECT_EQ(d.observe(3, false), DesyncDetector::Verdict::kTransient);
}

// --- SessionState -----------------------------------------------------------------

struct TwoBlockState {
  core::Marking marking{1, 0, 2};
  streaming::PlayerSyncCursor cursor;
  SessionState state;

  TwoBlockState() {
    register_marking_block(state, 1, "marking", &marking);
    register_player_cursor_block(state, 2, "cursor", &cursor);
    state.refresh();
  }
};

TEST(SessionState, DirtyTrackingFlagsOnlyChangedBlocks) {
  TwoBlockState s;
  EXPECT_EQ(s.state.refresh(), 0u);  // nothing changed since ctor refresh
  s.marking[1] = 1;
  ASSERT_EQ(s.state.refresh(), 1u);
  EXPECT_EQ(s.state.dirty_blocks().front(), 1u);
  s.cursor.media_us = 777;
  ASSERT_EQ(s.state.refresh(), 1u);
  EXPECT_EQ(s.state.dirty_blocks().front(), 2u);
}

TEST(SessionState, DuplicateBlockIdThrows) {
  TwoBlockState s;
  EXPECT_THROW(
      s.state.register_block(
          1, "dup", [](StateWriter&) {}, [](StateReader&) {}),
      std::invalid_argument);
}

TEST(SessionState, SerializeDeserializeSerializeIsByteIdentical) {
  TwoBlockState a;
  a.marking = {0, 1, 5};
  a.cursor.media_us = 123456;
  a.cursor.rate = 1.5;
  a.state.refresh();
  const std::vector<std::byte> img1 = a.state.serialize_full();

  TwoBlockState b;  // different starting state
  const auto res = b.state.apply(span_of(img1));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.delta);
  EXPECT_TRUE(res.checksum_match);
  EXPECT_EQ(res.blocks_applied, 2u);
  EXPECT_EQ(b.marking, a.marking);
  EXPECT_EQ(b.cursor.media_us, 123456);

  const std::vector<std::byte> img2 = b.state.serialize_full();
  EXPECT_EQ(img1, img2);
}

TEST(SessionState, DeltaShipsOnlyDisagreeingBlocks) {
  TwoBlockState authority;
  TwoBlockState replica;
  // Replica's marking diverges; cursors agree.
  replica.marking = {0, 0, 9};
  replica.state.refresh();

  const auto delta =
      authority.state.serialize_delta(replica.state.block_sums());
  const auto full = authority.state.serialize_full();
  EXPECT_LT(delta.size(), full.size());

  const auto res = replica.state.apply(span_of(delta));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.delta);
  EXPECT_TRUE(res.checksum_match);
  EXPECT_EQ(res.blocks_applied, 1u);  // only the marking travelled
  EXPECT_EQ(replica.marking, authority.marking);
  EXPECT_EQ(replica.state.checksum(), authority.state.checksum());
}

TEST(SessionState, ApplyRejectsGarbageAndUnknownBlocks) {
  TwoBlockState s;
  // Garbage bytes.
  std::vector<std::byte> junk(32, std::byte{0xee});
  EXPECT_FALSE(s.state.apply(span_of(junk)).ok);
  // Truncated valid image.
  const auto img = s.state.serialize_full();
  EXPECT_FALSE(s.state.apply(std::span{img.data(), img.size() / 2}).ok);
  // An image carrying a block this state does not register.
  SessionState other;
  core::Marking m{1};
  register_marking_block(other, 99, "alien", &m);
  other.refresh();
  const auto res = s.state.apply(span_of(other.serialize_full()));
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("unknown block"), std::string::npos);
}

// --- structure hash ---------------------------------------------------------------

TEST(StructureHash, StableAcrossInstancesAndStructureSensitive) {
  const auto build = [](std::uint32_t cap) {
    core::PetriNet n;
    const auto p = n.add_place("p", cap);
    const auto q = n.add_place("q");
    const auto t = n.add_transition("t");
    n.add_input(p, t);
    n.add_output(t, q);
    return n;
  };
  EXPECT_EQ(build(1).structure_hash(), build(1).structure_hash());
  EXPECT_NE(build(1).structure_hash(), build(2).structure_hash());

  ::lod::lod::FloorControl f1({"ann", "bob"});
  ::lod::lod::FloorControl f2({"ann", "bob"});
  ::lod::lod::FloorControl f3({"ann", "eve"});
  EXPECT_EQ(f1.net().structure_hash(), f2.net().structure_hash());
  EXPECT_NE(f1.net().structure_hash(), f3.net().structure_hash());
}

// --- FloorControl snapshot/restore ------------------------------------------------

TEST(FloorState, SnapshotRestoreReplicatesHolderAndQueue) {
  ::lod::lod::FloorControl a({"ann", "bob", "cyd"});
  ASSERT_TRUE(a.request("ann"));  // granted at once
  ASSERT_TRUE(a.request("bob"));  // queued
  ASSERT_TRUE(a.request("cyd"));  // queued
  ASSERT_EQ(a.holder(), "ann");

  ::lod::lod::FloorControl b({"ann", "bob", "cyd"});
  b.restore(a.state());
  EXPECT_EQ(b.holder(), "ann");
  EXPECT_EQ(b.waiting(), a.waiting());
  EXPECT_EQ(b.marking(), a.marking());
  // The restored replica keeps operating correctly from the new state.
  ASSERT_TRUE(b.release("ann"));
  EXPECT_EQ(b.holder(), "bob");
}

TEST(FloorState, RestoreValidatesSnapshotAgainstTheNet) {
  ::lod::lod::FloorControl f({"ann", "bob"});
  ::lod::lod::FloorControl::State bad;
  bad.marking = {1};  // wrong size
  EXPECT_THROW(f.restore(bad), std::invalid_argument);

  auto s = f.state();
  s.fifo = {"ann", "ann"};  // duplicate queue entry
  EXPECT_THROW(f.restore(s), std::invalid_argument);
  s.fifo = {"zed"};  // unknown user
  EXPECT_THROW(f.restore(s), std::invalid_argument);
  s.fifo.clear();
  s.marking[0] = 9;  // floor_free over its capacity of 1
  EXPECT_THROW(f.restore(s), std::invalid_argument);
}

// --- SyncAgent over the simulated fabric ------------------------------------------

struct SyncAgentTest : ::testing::Test {
  net::Simulator sim;
  net::Network network{sim, 99};
  net::HostId authority_host{};
  net::HostId replica_host{};

  core::Marking m_auth{1, 0, 0};
  core::Marking m_repl{1, 0, 0};
  streaming::PlayerSyncCursor c_auth;
  streaming::PlayerSyncCursor c_repl;
  SessionState s_auth;
  SessionState s_repl;
  std::unique_ptr<SyncAgent> authority;
  std::unique_ptr<SyncAgent> replica;

  SyncAgentTest() {
    authority_host = network.add_host("teacher");
    replica_host = network.add_host("student");
    net::LinkConfig lan;
    lan.bandwidth_bps = 10'000'000;
    lan.latency = msec(2);
    network.add_link(authority_host, replica_host, lan);

    register_marking_block(s_auth, 1, "marking", &m_auth);
    register_player_cursor_block(s_auth, 2, "cursor", &c_auth);
    register_marking_block(s_repl, 1, "marking", &m_repl);
    register_player_cursor_block(s_repl, 2, "cursor", &c_repl);
  }

  void make_agents(std::uint64_t auth_structure = 42,
                   std::uint64_t repl_structure = 42) {
    SyncConfig a;
    a.authoritative = true;
    a.structure = auth_structure;
    authority = std::make_unique<SyncAgent>(network, authority_host, s_auth, a);
    authority->add_peer(replica_host);

    SyncConfig r;
    r.authoritative = false;
    r.structure = repl_structure;
    replica = std::make_unique<SyncAgent>(network, replica_host, s_repl, r);
  }

  void run_for(SimDuration d) { sim.run_until(network.now() + d); }
};

TEST_F(SyncAgentTest, AgreeingSitesNeverMismatch) {
  make_agents();
  authority->start();
  replica->start();
  run_for(sec(5));
  EXPECT_GT(replica->stats().gossip_rx, 5u);
  EXPECT_EQ(replica->stats().mismatches, 0u);
  EXPECT_EQ(replica->stats().resync_requests, 0u);
  EXPECT_FALSE(replica->detector().desynced());
}

TEST_F(SyncAgentTest, InjectedDivergenceHealsViaDeltaTransfer) {
  make_agents();
  std::uint64_t resynced_epoch = 0;
  std::size_t resynced_blocks = 0;
  replica->on_resync([&](std::uint64_t e, std::size_t blocks) {
    resynced_epoch = e;
    resynced_blocks = blocks;
  });
  authority->start();
  replica->start();

  network.schedule_after(sec(1), [this] {
    m_repl[2] = 7;  // the replica silently drifts
  });
  run_for(sec(8));

  const SyncStats& st = replica->stats();
  EXPECT_GT(st.mismatches, 0u);
  EXPECT_GE(st.resync_requests, 1u);
  EXPECT_GE(st.resync_ok, 1u);
  EXPECT_GE(authority->stats().resync_serves, 1u);
  EXPECT_GT(resynced_blocks, 0u);
  EXPECT_GT(resynced_epoch, 0u);
  // Healed: replica matches the authority again and says so.
  EXPECT_EQ(m_repl, m_auth);
  EXPECT_EQ(s_repl.checksum(), s_auth.checksum());
  EXPECT_FALSE(replica->detector().desynced());
  // Delta economy: the transfer moved only the drifted block, well under a
  // full image.
  EXPECT_LT(st.delta_bytes, s_auth.full_size_bytes());
}

TEST_F(SyncAgentTest, StructureGuardRefusesForeignState) {
  make_agents(42, 43);  // replica runs a DIFFERENT net structure
  authority->start();
  replica->start();
  network.schedule_after(sec(1), [this] { m_repl[2] = 7; });
  run_for(sec(6));
  EXPECT_GT(replica->stats().structure_mismatches, 0u);
  EXPECT_EQ(replica->stats().resync_requests, 0u);
  EXPECT_NE(m_repl, m_auth);  // nothing was transferred
}

TEST_F(SyncAgentTest, SyncMetricsAreRegisteredPerHost) {
  make_agents();
  authority->start();
  replica->start();
  run_for(sec(3));
  const obs::Snapshot snap = sim.obs().metrics().snapshot();
  EXPECT_GT(snap.counter("lod.sync.epochs",
                         {{"host", std::to_string(replica_host)}}),
            0u);
  EXPECT_GT(snap.counter("lod.sync.gossip_tx",
                         {{"host", std::to_string(authority_host)}}),
            0u);
}

// --- mid-playout serialization (the ROADMAP item-4 foundation contract) -----------

TEST(SyncMidPlayout, SerializeDeserializeSerializeIsByteIdentical) {
  net::Simulator sim;
  net::Network network(sim, 1234);
  const auto server_host = network.add_host("server");
  const auto client_host = network.add_host("client");
  net::LinkConfig lan;
  lan.bandwidth_bps = 10'000'000;
  lan.latency = msec(2);
  network.add_link(server_host, client_host, lan);

  streaming::StreamingServer server(network, server_host);
  streaming::EncodeJob job;
  job.profile = *media::find_profile("Video 250k DSL/cable");
  job.title = "Lecture";
  job.preroll = msec(2000);
  media::LectureVideoSource v(sec(30), job.profile.fps, job.profile.width,
                              job.profile.height, 7);
  media::LectureAudioSource a(sec(30), job.profile.audio_sample_rate());
  server.publish("lec", streaming::encode_lecture(job, v, a, {}).file);

  streaming::PlayerConfig cfg;
  cfg.model = streaming::SyncModel::kEtpn;
  cfg.ctl_port = 5000;
  cfg.data_port = 5001;
  cfg.web_server = server_host;
  streaming::Player player(network, client_host, cfg);
  player.open_and_play(server_host, "lec");
  sim.run_until(SimTime{sec(10).us});
  ASSERT_TRUE(player.playing());
  const SimDuration pos_before = player.position();
  ASSERT_GT(pos_before.us, 0);

  ::lod::lod::FloorControl floor({"teacher", "student"});
  floor.request("teacher");

  SessionState state;
  register_player_block(state, 1, "player", &player);
  register_floor_block(state, 2, "floor", &floor);
  state.refresh();

  const std::vector<std::byte> img1 = state.serialize_full();
  const auto res = state.apply(span_of(img1));  // deserialize into the session
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.checksum_match);
  const std::vector<std::byte> img2 = state.serialize_full();
  EXPECT_EQ(img1, img2);

  // Re-applying its own cursor did not move the playhead.
  EXPECT_EQ(player.position().us, pos_before.us);
  EXPECT_EQ(floor.holder(), "teacher");
}

// --- hostile element counts ---------------------------------------------------------
//
// Every decoder below reads an element count off the wire. Reserving for
// 2^32 - 1 elements of a few bytes each before checking the input asks for
// tens of gigabytes; each must fail as truncated input instead.

constexpr std::uint32_t kHostileCount = 0xFFFFFFFF;

void put_u32(std::vector<std::byte>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b[at + static_cast<std::size_t>(i)] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// Apply \p state's own full image with the u32 that ends \p from_end bytes
/// before the end of its last block overwritten by a hostile count (the
/// image ends with that block and an 8-byte checksum).
SessionState::ApplyResult apply_hostile(SessionState& state,
                                        std::size_t from_end) {
  state.refresh();
  auto img = state.serialize_full();
  put_u32(img, img.size() - 8 - from_end, kHostileCount);
  return state.apply(span_of(img));
}

void expect_truncated(const SessionState::ApplyResult& r) {
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(HostileCounts, FloorBlockQueueCount) {
  ::lod::lod::FloorControl floor({"teacher", "student"});
  SessionState state;
  register_floor_block(state, 1, "floor", &floor);
  expect_truncated(apply_hostile(state, 4));  // queue length is last
}

struct HostilePlayerBlocks : ::testing::Test {
  net::Simulator sim;
  net::Network network{sim, 5};
  net::HostId host{network.add_host("client")};
  streaming::Player player{network, host, streaming::PlayerConfig{}};
  SessionState state;
};

TEST_F(HostilePlayerBlocks, ReorderHeldCount) {
  register_player_reorder_block(state, 1, "reorder", &player);
  expect_truncated(apply_hostile(state, 4));
}

TEST_F(HostilePlayerBlocks, RepairReceivedAndNackCounts) {
  register_player_repair_block(state, 1, "repair", &player);
  expect_truncated(apply_hostile(state, 8));  // received indices
  expect_truncated(apply_hostile(state, 4));  // NACK attempts
}

TEST_F(HostilePlayerBlocks, SlideCacheCount) {
  register_player_slide_cache_block(state, 1, "slides", &player);
  expect_truncated(apply_hostile(state, 4));
}

TEST(HostileCounts, InputLogRecordCount) {
  InputLog log;
  log.root_seed = 1;
  auto bytes = serialize_input_log(log);
  // Body ends with the record count; the checksum over the body follows.
  put_u32(bytes, bytes.size() - 12, kHostileCount);
  const std::uint64_t sum =
      checksum64(std::span<const std::byte>(bytes.data(), bytes.size() - 8));
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>(sum >> (8 * i));
  }
  EXPECT_THROW(parse_input_log(bytes), std::out_of_range);
}

TEST_F(SyncAgentTest, DeltaRequestWithHostileBlockCountIsDropped) {
  make_agents();
  authority->start();
  // A raw LSYG delta request claiming 2^32 - 1 block sums in 4 bytes.
  net::ByteWriter w;
  w.u32(0x4759534cu);  // gossip magic
  w.u8(1);             // version
  w.u8(2);             // delta request
  w.u64(1);            // epoch
  w.u64(42);           // structure (matches)
  w.u32(kHostileCount);
  net::DatagramSocket raw(network, replica_host, 7300);
  raw.send_to(authority_host, SyncConfig{}.port, std::move(w).take());
  const std::uint64_t before = authority->stats().malformed;
  run_for(msec(50));
  EXPECT_EQ(authority->stats().malformed, before + 1);
  EXPECT_EQ(authority->stats().resync_serves, 0u);
}

}  // namespace
}  // namespace lod::sync
