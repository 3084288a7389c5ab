#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "lod/lod/floor.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/flight.hpp"
#include "lod/sync/agent.hpp"
#include "lod/sync/blocks.hpp"
#include "lod/sync/state.hpp"

/// \file sync_storm_test.cpp
/// The acceptance scenario for the sync subsystem: a multi-site classroom on
/// LOSSY links rides out a floor-control storm. The teacher site is
/// authoritative and mutates its floor state rapidly; three student sites
/// replicate it purely through sync epochs + delta resynchronization, with
/// every gossip/request/reply datagram subject to loss and jitter.
///
/// The gates (ISSUE 7): after the storm quiets, every replica converges to
/// the authority within a bounded number of epochs (zero PERMANENT
/// desyncs), and every resynchronization travelled as a DELTA — a small
/// fraction of the full state image, which here carries a deliberately
/// chunky static "slide deck" block the deltas must not re-ship.

namespace lod::sync {
namespace {

using net::msec;
using net::sec;

constexpr std::size_t kStudents = 3;
constexpr std::size_t kDeckBytes = 4096;

struct Site {
  ::lod::lod::FloorControl floor;
  SessionState state;
  std::unique_ptr<SyncAgent> agent;

  explicit Site(const std::vector<std::string>& users) : floor(users) {}
};

/// Block 1 on every site: a static 4 KB "slide deck" that never changes.
/// Its only job is to make full images expensive so the delta economy is
/// measurable.
void register_deck_block(SessionState& s) {
  s.register_block(
      1, "deck",
      [](StateWriter& w) {
        std::vector<std::byte> deck(kDeckBytes);
        for (std::size_t i = 0; i < deck.size(); ++i) {
          deck[i] = static_cast<std::byte>(i * 31 + 7);
        }
        w.blob(deck);
      },
      [](StateReader& r) { (void)r.blob(); });
}

TEST(SyncStorm, LossyFloorStormConvergesViaDeltasOnly) {
  net::Simulator sim;
  net::Network network(sim, 777);
  const std::vector<std::string> users{"teacher", "ann", "bob", "cyd"};

  const net::HostId teacher_host = network.add_host("teacher");
  std::vector<net::HostId> student_hosts;
  net::LinkConfig lossy;
  lossy.bandwidth_bps = 2'000'000;
  lossy.latency = msec(8);
  lossy.jitter = msec(5);
  lossy.loss_rate = 0.15;  // 15% of sync traffic simply vanishes
  for (std::size_t i = 0; i < kStudents; ++i) {
    const auto h = network.add_host("student" + std::to_string(i));
    network.add_link(teacher_host, h, lossy);
    student_hosts.push_back(h);
  }

  Site authority(users);
  std::vector<std::unique_ptr<Site>> replicas;
  for (std::size_t i = 0; i < kStudents; ++i) {
    replicas.push_back(std::make_unique<Site>(users));
  }

  const std::uint64_t structure = authority.floor.net().structure_hash();
  SyncConfig base;
  base.epoch_interval = msec(200);
  base.persistent_after = 2;
  base.structure = structure;

  const auto wire = [&](Site& site, net::HostId host, bool authoritative) {
    register_deck_block(site.state);
    register_floor_block(site.state, 2, "floor", &site.floor);
    SyncConfig cfg = base;
    cfg.authoritative = authoritative;
    site.agent =
        std::make_unique<SyncAgent>(network, host, site.state, cfg);
  };
  wire(authority, teacher_host, true);
  for (std::size_t i = 0; i < kStudents; ++i) {
    wire(*replicas[i], student_hosts[i], false);
    authority.agent->add_peer(student_hosts[i]);
  }
  authority.agent->start();
  for (auto& r : replicas) r->agent->start();

  // The storm: every ~120 ms for 10 s, a random user flips their floor
  // state on the AUTHORITY (replicas only ever learn of it through sync).
  const net::SimTime storm_end = network.now() + sec(10);
  auto rng = std::make_shared<std::mt19937>(7);
  std::function<void()> storm = [&network, &authority, &users, rng,
                                 storm_end, &storm] {
    std::uniform_int_distribution<std::size_t> pick(0, users.size() - 1);
    const std::string& user = users[pick(*rng)];
    if (authority.floor.holder() == user) {
      authority.floor.release(user);
    } else {
      authority.floor.request(user);
    }
    if (network.now() < storm_end) network.schedule_after(msec(120), storm);
  };
  network.schedule_after(msec(500), storm);

  // Storm (10 s) + quiet tail: 30 more epochs to converge in — the
  // "bounded drift" budget. A replica still desynced by then has desynced
  // permanently.
  sim.run_until(network.now() + sec(16));

  const std::size_t full = authority.state.full_size_bytes();
  ASSERT_GT(full, kDeckBytes);
  authority.state.refresh();

  for (std::size_t i = 0; i < kStudents; ++i) {
    SCOPED_TRACE("student" + std::to_string(i));
    Site& r = *replicas[i];
    const SyncStats& st = r.agent->stats();

    // The storm actually stressed this replica...
    EXPECT_GT(st.mismatches, 0u);
    EXPECT_GE(st.resync_ok, 1u);

    // ...and it converged: zero permanent desyncs once the dust settled.
    EXPECT_FALSE(r.agent->detector().desynced());
    r.state.refresh();
    EXPECT_EQ(r.state.checksum(), authority.state.checksum());
    EXPECT_EQ(r.floor.holder(), authority.floor.holder());
    EXPECT_EQ(r.floor.waiting(), authority.floor.waiting());
    EXPECT_EQ(r.floor.marking(), authority.floor.marking());

    // Delta economy: every resync travelled as a delta — the average image
    // received is a small fraction of a full state (the 4 KB deck never
    // re-shipped).
    const std::uint64_t replies = st.resync_ok + st.resync_fail;
    ASSERT_GT(replies, 0u);
    EXPECT_LT(st.delta_bytes / replies, full / 4)
        << "resync images are not deltas (avg " << st.delta_bytes / replies
        << " bytes vs " << full << " full)";
  }
}

// A deliberately injected persistent desync must auto-dump the flight
// journal — trigger to dump verified in-test: the persistent verdict dumps
// BEFORE the resync starts (evidence of how we desynced), and the resync
// completion dumps a journal whose events cover the whole resync span
// (persistent verdict -> span open -> span close -> delta applied).
TEST(SyncStorm, InjectedPersistentDesyncAutoDumpsFlightJournal) {
  net::Simulator sim;
  net::Network network(sim, 42);
  const std::vector<std::string> users{"teacher", "ann"};

  const net::HostId teacher_host = network.add_host("teacher");
  const net::HostId student_host = network.add_host("student");
  net::LinkConfig reliable;
  reliable.bandwidth_bps = 10'000'000;
  reliable.latency = msec(5);
  network.add_link(teacher_host, student_host, reliable);

  Site authority(users);
  Site replica(users);

  SyncConfig base;
  base.epoch_interval = msec(100);
  base.persistent_after = 2;
  base.structure = authority.floor.net().structure_hash();

  const auto wire = [&](Site& site, net::HostId host, bool authoritative) {
    register_deck_block(site.state);
    register_floor_block(site.state, 2, "floor", &site.floor);
    SyncConfig cfg = base;
    cfg.authoritative = authoritative;
    site.agent = std::make_unique<SyncAgent>(network, host, site.state, cfg);
  };
  wire(authority, teacher_host, true);
  wire(replica, student_host, false);
  authority.agent->add_peer(student_host);

  // Spans reach the flight journal (its trace lane) only while tracing is on.
  network.obs().flight().set_tracing(true);
  std::vector<obs::FlightDump> dumps;
  network.obs().flight().on_dump(
      [&dumps](const obs::FlightDump& d) { dumps.push_back(d); });

  authority.agent->start();
  replica.agent->start();

  // Settle: both sites in sync, nothing worth dumping.
  sim.run_until(network.now() + sec(1));
  ASSERT_TRUE(dumps.empty()) << "spurious dump before the injected fault";

  // Inject: corrupt the REPLICA's floor locally. The authority never hears
  // about it, so every later epoch mismatches until a resync overwrites it.
  replica.floor.request("ann");
  sim.run_until(network.now() + sec(2));

  // The trigger fired and the replica healed through the dumped resync.
  ASSERT_GE(dumps.size(), 2u);
  EXPECT_EQ(dumps[0].reason, "sync.persistent_desync");
  EXPECT_FALSE(replica.agent->detector().desynced());
  replica.state.refresh();
  authority.state.refresh();
  EXPECT_EQ(replica.state.checksum(), authority.state.checksum());

  const auto done = std::find_if(
      dumps.begin(), dumps.end(), [](const obs::FlightDump& d) {
        return d.reason == "sync.resync_complete";
      });
  ASSERT_NE(done, dumps.end()) << "resync completion never dumped";

  // The completion journal covers the resync span end to end.
  obs::TimeUs t_verdict = -1, t_begin = -1, t_end = -1, t_resync = -1;
  for (const obs::FlightEvent& e :
       obs::parse_jsonl(done->jsonl)) {
    switch (e.type) {
      case obs::FlightType::kSyncVerdict:
        if (e.b == static_cast<std::int64_t>(
                       DesyncDetector::Verdict::kPersistent) &&
            t_verdict < 0) {
          t_verdict = e.t;
        }
        break;
      case obs::FlightType::kSpanBegin:
        if (t_begin < 0) t_begin = e.t;
        break;
      case obs::FlightType::kSpanEnd:
        t_end = e.t;
        break;
      case obs::FlightType::kResync:
        t_resync = e.t;
        break;
      default:
        break;
    }
  }
  ASSERT_GE(t_verdict, 0) << "journal lost the persistent verdict";
  ASSERT_GE(t_begin, 0) << "journal lost the resync span open";
  ASSERT_GE(t_end, 0) << "journal lost the resync span close";
  ASSERT_GE(t_resync, 0) << "journal lost the resync completion";
  EXPECT_LE(t_verdict, t_begin);
  EXPECT_LE(t_begin, t_end);
  EXPECT_LE(t_end, t_resync);
}

}  // namespace
}  // namespace lod::sync
