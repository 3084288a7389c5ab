#include "lod/lod/floor.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "lod/net/network.hpp"
#include "lod/net/rng.hpp"

namespace lod::lod {
namespace {

using Kind = FloorControl::Event::Kind;

TEST(FloorControl, SingleUserAcquiresAndReleases) {
  FloorControl fc({"alice"});
  EXPECT_FALSE(fc.holder().has_value());
  EXPECT_TRUE(fc.request("alice"));
  EXPECT_EQ(fc.holder(), "alice");
  EXPECT_TRUE(fc.release("alice"));
  EXPECT_FALSE(fc.holder().has_value());
}

TEST(FloorControl, MutualExclusion) {
  FloorControl fc({"a", "b", "c"});
  fc.request("a");
  fc.request("b");
  fc.request("c");
  EXPECT_EQ(fc.holder(), "a");
  EXPECT_EQ(fc.waiting(), (std::vector<std::string>{"b", "c"}));
}

TEST(FloorControl, FifoFairness) {
  FloorControl fc({"a", "b", "c"});
  fc.request("c");
  fc.request("a");
  fc.request("b");
  EXPECT_EQ(fc.holder(), "c");
  fc.release("c");
  EXPECT_EQ(fc.holder(), "a");  // arrival order, not id order
  fc.release("a");
  EXPECT_EQ(fc.holder(), "b");
}

TEST(FloorControl, UnknownUserRejected) {
  FloorControl fc({"a"});
  EXPECT_FALSE(fc.request("mallory"));
  EXPECT_FALSE(fc.release("mallory"));
}

TEST(FloorControl, DoubleRequestRejected) {
  FloorControl fc({"a", "b"});
  EXPECT_TRUE(fc.request("a"));
  EXPECT_FALSE(fc.request("a"));  // already holding
  EXPECT_TRUE(fc.request("b"));
  EXPECT_FALSE(fc.request("b"));  // already queued
}

TEST(FloorControl, NonHolderCannotRelease) {
  FloorControl fc({"a", "b"});
  fc.request("a");
  fc.request("b");
  EXPECT_FALSE(fc.release("b"));  // b is waiting, not holding
  EXPECT_EQ(fc.holder(), "a");
}

TEST(FloorControl, ReleaseWithEmptyQueueFreesFloor) {
  FloorControl fc({"a", "b"});
  fc.request("a");
  fc.release("a");
  EXPECT_FALSE(fc.holder().has_value());
  EXPECT_TRUE(fc.request("b"));
  EXPECT_EQ(fc.holder(), "b");
}

TEST(FloorControl, EventLogIsConsistent) {
  FloorControl fc({"a", "b"});
  fc.request("a");
  fc.request("b");
  fc.release("a");
  fc.release("b");
  const auto& log = fc.log();
  ASSERT_EQ(log.size(), 6u);
  EXPECT_EQ(log[0].kind, Kind::kRequest);
  EXPECT_EQ(log[1].kind, Kind::kGrant);
  EXPECT_EQ(log[1].user, "a");
  EXPECT_EQ(log[3].kind, Kind::kRelease);
  EXPECT_EQ(log[3].user, "a");
  EXPECT_EQ(log[4].kind, Kind::kGrant);
  EXPECT_EQ(log[4].user, "b");
  EXPECT_EQ(log[5].kind, Kind::kRelease);
  EXPECT_EQ(log[5].user, "b");
}

TEST(FloorControl, ExclusionInvariantIsStructural) {
  FloorControl fc({"a", "b", "c", "d"});
  EXPECT_TRUE(
      core::is_structural_p_invariant(fc.net(), fc.exclusion_invariant()));
}

TEST(FloorControl, InvariantHoldsUnderRandomSchedules) {
  const std::vector<std::string> users{"u1", "u2", "u3", "u4", "u5"};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    FloorControl fc(users);
    net::Rng rng(seed);
    const auto w = fc.exclusion_invariant();
    for (int i = 0; i < 500; ++i) {
      const auto& u = users[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(users.size()) - 1))];
      if (rng.bernoulli(0.5)) {
        fc.request(u);
      } else {
        fc.release(u);
      }
      // weights . marking == 1 at every step: at most one holder, ever.
      std::int64_t dot = 0;
      for (std::size_t p = 0; p < fc.marking().size(); ++p) {
        dot += w[p] * fc.marking()[p];
      }
      ASSERT_EQ(dot, 1) << "seed " << seed << " step " << i;
    }
  }
}

TEST(FloorControl, EveryRequestEventuallyGranted) {
  // Liveness under a polite schedule: holders always release.
  const std::vector<std::string> users{"a", "b", "c"};
  FloorControl fc(users);
  for (const auto& u : users) fc.request(u);
  int grants = 0;
  for (const auto& e : fc.log()) grants += (e.kind == Kind::kGrant) ? 1 : 0;
  EXPECT_EQ(grants, 1);
  fc.release("a");
  fc.release("b");
  fc.release("c");
  grants = 0;
  for (const auto& e : fc.log()) grants += (e.kind == Kind::kGrant) ? 1 : 0;
  EXPECT_EQ(grants, 3);
}

// --- distributed floor service ---------------------------------------------------

struct FloorNetFixture : ::testing::Test {
  FloorNetFixture() : network(sim, 5) {
    teacher = network.add_host("teacher");
    s1 = network.add_host("s1");
    s2 = network.add_host("s2");
    net::LinkConfig lan;
    lan.latency = net::msec(3);
    network.add_link(teacher, s1, lan);
    network.add_link(teacher, s2, lan);
    service = std::make_unique<FloorService>(network, teacher, 9000,
                                             std::vector<std::string>{
                                                 "alice", "bob"});
    alice = std::make_unique<FloorClient>(
        network, s1, 6000, "alice", teacher, 9000,
        [this](const std::string& m) { alice_heard.push_back(m); });
    bob = std::make_unique<FloorClient>(
        network, s2, 6000, "bob", teacher, 9000,
        [this](const std::string& m) { bob_heard.push_back(m); });
    alice->join();
    bob->join();
    sim.run();
  }

  net::Simulator sim;
  net::Network network;
  net::HostId teacher{}, s1{}, s2{};
  std::unique_ptr<FloorService> service;
  std::unique_ptr<FloorClient> alice;
  std::unique_ptr<FloorClient> bob;
  std::vector<std::string> alice_heard, bob_heard;
};

TEST_F(FloorNetFixture, HolderSpeaksEveryoneHears) {
  bool granted = false;
  alice->request_floor([&](bool ok) { granted = ok; });
  sim.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(service->control().holder(), "alice");

  bool spoke = false;
  alice->speak("what is a Petri net?", [&](bool ok) { spoke = ok; });
  sim.run();
  EXPECT_TRUE(spoke);
  ASSERT_EQ(alice_heard.size(), 1u);  // speakers hear themselves too
  ASSERT_EQ(bob_heard.size(), 1u);
  EXPECT_EQ(bob_heard[0], "alice: what is a Petri net?");
  EXPECT_EQ(service->messages_relayed(), 2u);
}

TEST_F(FloorNetFixture, NonHolderCannotSpeak) {
  alice->request_floor();
  sim.run();
  bool spoke = true;
  bob->speak("me me me!", [&](bool ok) { spoke = ok; });
  sim.run();
  EXPECT_FALSE(spoke);
  EXPECT_TRUE(bob_heard.empty());
  EXPECT_TRUE(alice_heard.empty());
}

TEST_F(FloorNetFixture, FloorPassesOverTheNetwork) {
  // Both ask at once; the floor goes to whoever's request ARRIVES first
  // (bob's shorter name serializes a hair earlier on an otherwise equal
  // path — arrival order is the service's ground truth, not call order).
  alice->request_floor();
  bob->request_floor();
  sim.run();
  const auto first = service->control().holder();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(service->control().waiting().size(), 1u);
  const std::string second = *first == "alice" ? "bob" : "alice";

  FloorClient& first_client = *first == "alice" ? *alice : *bob;
  FloorClient& second_client = *first == "alice" ? *bob : *alice;
  auto& first_heard = *first == "alice" ? alice_heard : bob_heard;

  first_client.release_floor();
  sim.run();
  EXPECT_EQ(service->control().holder(), second);
  bool spoke = false;
  second_client.speak("my turn", [&](bool ok) { spoke = ok; });
  sim.run();
  EXPECT_TRUE(spoke);
  ASSERT_EQ(first_heard.size(), 1u);
  EXPECT_EQ(first_heard[0], second + ": my turn");
}

TEST_F(FloorNetFixture, HostileUserNamesCannotGrowTheJournalsStringTable) {
  // A hostile client asks for the floor under 100k distinct user names with
  // tracing on. Every request is denied and journaled with the name it
  // carried, but the names land in the journal's bounded string table: it
  // stays at its cap and counts what it refused.
  auto& journal = sim.obs().flight();
  journal.set_tracing(true);
  net::RpcClient hostile(network, s1, 7000);
  constexpr std::size_t kNames = 100'000;
  constexpr std::size_t kBatch = 1000;
  std::size_t denied = 0;
  for (std::size_t sent = 0; sent < kNames; sent += kBatch) {
    for (std::size_t i = sent; i < sent + kBatch; ++i) {
      const std::string name = "mallory-" + std::to_string(i);
      std::vector<std::byte> body(name.size());
      std::memcpy(body.data(), name.data(), name.size());
      hostile.call(teacher, 9000, "/floor/request", std::move(body),
                   [&denied](net::Result<net::RpcReply> r) {
                     if (r && r->status == 403) ++denied;
                   });
    }
    sim.run();
  }
  EXPECT_EQ(denied, kNames);
  EXPECT_EQ(sim.obs().metrics().snapshot().counter("lod.floor.denies"),
            kNames);
  EXPECT_LE(journal.strings().size(), obs::StringTable::kMaxEntries);
  EXPECT_GE(journal.strings().overflow(),
            kNames - obs::StringTable::kMaxEntries);
}

TEST_F(FloorNetFixture, UnjoinedSpeakerStillGuarded) {
  // A third registered user never joined; requests still arbitrate.
  bool ok = true;
  bob->release_floor([&](bool v) { ok = v; });
  sim.run();
  EXPECT_FALSE(ok);  // nothing to release
}

}  // namespace
}  // namespace lod::lod
