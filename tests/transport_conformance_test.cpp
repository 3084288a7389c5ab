#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lod/core/etpn.hpp"
#include "lod/core/ocpn.hpp"
#include "lod/net/network.hpp"
#include "lod/net/real_transport.hpp"
#include "lod/net/transport.hpp"

/// \file transport_conformance_test.cpp
/// One behavioral contract, two backends.
///
/// Every test here is written against `net::Transport` alone and instantiated
/// for both implementations — the deterministic simulator (`SimTransport`)
/// and the kernel-socket epoll loop (`RealTransport`). A test may only use
/// the seam plus each harness's `run_until`; anything backend-specific
/// (links, loss, loopback addresses) lives in the harness. This is the
/// executable statement of "the stack above packets cannot tell which
/// network it is running on".

namespace lod::net {
namespace {

/// The simulated backend: two hosts joined by a clean 10 Mb/s LAN link.
struct SimHarness {
  Simulator sim;
  Network net{sim, 7};
  HostId a{0};
  HostId b{0};

  SimHarness() {
    a = net.add_host("alpha");
    b = net.add_host("beta");
    LinkConfig lan;  // defaults: 10 Mb/s, 1 ms, lossless
    net.add_link(a, b, lan);
  }

  Transport& transport() { return net; }
  std::size_t pending_timers() const { return sim.pending(); }

  /// Drive the event loop until \p pred holds or events run dry.
  bool run_until(const std::function<bool()>& pred) {
    const SimTime deadline = net.now() + sec(30);
    while (!pred() && net.now() < deadline) {
      if (sim.run_steps(64) == 0) break;  // idle: nothing further can change
    }
    return pred();
  }
};

/// The kernel backend: two loopback hosts on one epoll loop. Single-threaded
/// on purpose — the loop runs on the test thread, with a polling timer
/// checking the predicate, so the tests are TSan-clean by construction.
struct RealHarness {
  RealTransport rt;
  HostId a{0};
  HostId b{0};

  RealHarness() {
    a = rt.add_host("alpha");
    b = rt.add_host("beta");
  }

  Transport& transport() { return rt; }
  /// Includes run_until's own poll and guard timers while it runs.
  std::size_t pending_timers() const { return rt.pending_timers(); }

  bool run_until(const std::function<bool()>& pred) {
    bool ok = false;
    std::function<void()> poll = [&] {
      if (pred()) {
        ok = true;
        rt.stop();
        return;
      }
      rt.schedule_after(msec(2), poll);
    };
    rt.schedule_after(usec(0), poll);
    const EventId guard = rt.schedule_after(sec(10), [&] { rt.stop(); });
    rt.run();
    rt.cancel(guard);
    return ok || pred();
  }
};

template <typename H>
class TransportConformance : public ::testing::Test {
 protected:
  H h;
};

struct BackendNames {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, SimHarness>) return "SimTransport";
    if constexpr (std::is_same_v<T, RealHarness>) return "RealTransport";
    return "unknown";
  }
};

using Backends = ::testing::Types<SimHarness, RealHarness>;
TYPED_TEST_SUITE(TransportConformance, Backends, BackendNames);

std::vector<std::byte> bytes_of(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return std::vector<std::byte>(p, p + s.size());
}

std::string string_of(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

TYPED_TEST(TransportConformance, DatagramDelivery) {
  Transport& t = this->h.transport();
  std::optional<Datagram> got;
  DatagramSocket rx(t, this->h.b, 7000);
  rx.on_receive([&](const Datagram& d) { got = d; });
  DatagramSocket tx(t, this->h.a, 7001);
  tx.send_to(this->h.b, 7000, bytes_of("hello over any backend"));

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(got->src, this->h.a);
  EXPECT_EQ(got->src_port, 7001);
  EXPECT_EQ(got->dst, this->h.b);
  EXPECT_EQ(got->dst_port, 7000);
  EXPECT_EQ(string_of(got->payload), "hello over any backend");
  EXPECT_TRUE(got->body.empty());
}

/// Scatter-gather sends must arrive with the sender's exact payload/body
/// split: the reliable endpoint's framing reads header fields from `payload`
/// and takes `body` as the message, on every backend.
TYPED_TEST(TransportConformance, ScatterGatherSplitSurvivesTheWire) {
  Transport& t = this->h.transport();
  std::optional<Datagram> got;
  DatagramSocket rx(t, this->h.b, 7000);
  rx.on_receive([&](const Datagram& d) { got = d; });
  DatagramSocket tx(t, this->h.a, 7001);
  tx.send_to(this->h.b, 7000, bytes_of("hdr"), bytes_of("attached body"), 28);

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(string_of(got->payload), "hdr");
  EXPECT_EQ(string_of(got->body), "attached body");
}

TYPED_TEST(TransportConformance, ReliableDeliversInOrder) {
  Transport& t = this->h.transport();
  std::vector<std::string> got;
  ReliableEndpoint rx(t, this->h.b, 80);
  rx.on_receive([&](const ReliableEndpoint::Message& m) {
    got.push_back(string_of(m.payload));
  });
  ReliableEndpoint tx(t, this->h.a, 81);
  for (int i = 0; i < 20; ++i) {
    tx.send_to(this->h.b, 80, bytes_of("msg " + std::to_string(i)));
  }

  ASSERT_TRUE(this->h.run_until([&] { return got.size() == 20; }));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], "msg " + std::to_string(i));
  EXPECT_TRUE(this->h.run_until([&] { return tx.all_acked(); }));
}

/// Messages sent before the receiver exists are delivered by retransmission
/// once it binds — the reconnect story is identical on both backends.
TYPED_TEST(TransportConformance, RetransmissionCoversALateReceiver) {
  Transport& t = this->h.transport();
  ReliableEndpoint tx(t, this->h.a, 81, msec(50));
  for (int i = 0; i < 3; ++i) {
    tx.send_to(this->h.b, 80, bytes_of("early " + std::to_string(i)));
  }
  std::vector<std::string> got;
  std::optional<ReliableEndpoint> rx;
  t.schedule_after(msec(150), [&] {
    rx.emplace(t, this->h.b, 80);
    rx->on_receive([&](const ReliableEndpoint::Message& m) {
      got.push_back(string_of(m.payload));
    });
  });

  ASSERT_TRUE(this->h.run_until([&] { return got.size() == 3; }));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], "early " + std::to_string(i));
  EXPECT_GE(tx.retransmissions(), 1u);
}

TYPED_TEST(TransportConformance, RpcRoundTrip) {
  Transport& t = this->h.transport();
  RpcServer server(t, this->h.b, 80);
  server.route("/echo", [](std::string_view, std::span<const std::byte> body) {
    return std::make_pair(200,
                          std::vector<std::byte>(body.begin(), body.end()));
  });
  RpcClient client(t, this->h.a, 81);
  int status = -1;
  std::string body;
  client.call(this->h.b, 80, "/echo", bytes_of("ping"),
              [&](Result<RpcReply> r) {
                ASSERT_TRUE(r.has_value());
                status = r->status;
                body = string_of(r->body);
              });

  ASSERT_TRUE(this->h.run_until([&] { return status != -1; }));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ping");
}

TYPED_TEST(TransportConformance, RpcUnknownPathIs404) {
  Transport& t = this->h.transport();
  RpcServer server(t, this->h.b, 80);
  RpcClient client(t, this->h.a, 81);
  int status = -1;
  client.call(this->h.b, 80, "/missing", {},
              [&](Result<RpcReply> r) { status = r ? r->status : -2; });

  ASSERT_TRUE(this->h.run_until([&] { return status != -1; }));
  EXPECT_EQ(status, 404);
}

/// A deadline against a server that never answers reports the uniform
/// `Error::kTimeout` — the same code a sim black hole and a real dead port
/// produce.
TYPED_TEST(TransportConformance, RpcDeadlineReportsTimeout) {
  Transport& t = this->h.transport();
  RpcClient client(t, this->h.a, 81);
  std::optional<Error> err;
  RpcClient::CallOptions opts;
  opts.timeout = msec(200);
  client.call(this->h.b, 4242, "/void", {},
              [&](Result<RpcReply> r) {
                if (!r) err = r.error();
              },
              opts);

  ASSERT_TRUE(this->h.run_until([&] { return err.has_value(); }));
  EXPECT_EQ(*err, Error::kTimeout);
}

TYPED_TEST(TransportConformance, TimersFireInOrderAndCancel) {
  Transport& t = this->h.transport();
  std::vector<int> fired;
  bool done = false;
  t.schedule_after(msec(50), [&] {
    fired.push_back(50);
    done = true;
  });
  t.schedule_after(msec(10), [&] { fired.push_back(10); });
  const EventId victim = t.schedule_after(msec(30), [&] { fired.push_back(30); });
  EXPECT_TRUE(t.cancel(victim));
  EXPECT_FALSE(t.cancel(victim));  // second cancel is a stale no-op

  ASSERT_TRUE(this->h.run_until([&] { return done; }));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 10);
  EXPECT_EQ(fired[1], 50);
}

/// Both backends queue timers on one TimingWheel, so equal deadlines break
/// by schedule order everywhere, cancelled neighbours included.
TYPED_TEST(TransportConformance, SameDeadlineTimersFireInScheduleOrder) {
  Transport& t = this->h.transport();
  std::vector<int> fired;
  const SimTime at = t.now() + msec(20);
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(t.schedule_at(at, [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_TRUE(t.cancel(ids[3]));

  ASSERT_TRUE(this->h.run_until([&] { return fired.size() == 7; }));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 4, 5, 6, 7}));
}

/// Timer ids name a reusable slab slot plus a generation: once a timer has
/// fired or been cancelled its slot goes to a later timer, and the old id
/// must neither cancel that timer nor be handed out again.
TYPED_TEST(TransportConformance, StaleIdsDoNotCancelTimersThatReuseTheirSlots) {
  Transport& t = this->h.transport();
  constexpr int kN = 32;
  std::vector<EventId> old_ids;
  int old_fired = 0;
  for (int i = 0; i < kN; ++i) {
    old_ids.push_back(t.schedule_after(msec(1), [&] { ++old_fired; }));
  }
  for (int i = 0; i < kN; i += 2) EXPECT_TRUE(t.cancel(old_ids[i]));
  ASSERT_TRUE(this->h.run_until([&] { return old_fired == kN / 2; }));

  // Every old slot is free again; these timers take them over.
  int fired = 0;
  std::vector<EventId> new_ids;
  for (int i = 0; i < kN; ++i) {
    new_ids.push_back(t.schedule_after(msec(5), [&] { ++fired; }));
  }
  for (const EventId id : old_ids) {
    EXPECT_FALSE(t.cancel(id));
    EXPECT_EQ(std::count(new_ids.begin(), new_ids.end(), id), 0);
  }
  ASSERT_TRUE(this->h.run_until([&] { return fired == kN; }));
  EXPECT_EQ(old_fired, kN / 2);
}

TYPED_TEST(TransportConformance, EndpointNamesRoundTrip) {
  Transport& t = this->h.transport();
  EXPECT_EQ(t.find_endpoint("alpha"), std::optional<HostId>(this->h.a));
  EXPECT_EQ(t.find_endpoint("beta"), std::optional<HostId>(this->h.b));
  EXPECT_EQ(t.find_endpoint("no-such-host"), std::nullopt);
  EXPECT_EQ(t.endpoint_name(this->h.a), "alpha");
}

/// QoS is an optional capability: a backend may grant a reservation (the
/// simulator does) or decline (the kernel path does), but a granted channel
/// must report a positive rate and tagged datagrams must still deliver.
TYPED_TEST(TransportConformance, QosDegradesToBestEffort) {
  Transport& t = this->h.transport();
  const std::optional<ChannelId> ch =
      t.reserve_channel(this->h.a, this->h.b, 1'000'000);
  ChannelId tag = 0;
  if (ch.has_value()) {
    EXPECT_EQ(t.channel_rate_bps(*ch), 1'000'000);
    tag = *ch;
  } else {
    EXPECT_EQ(t.channel_rate_bps(999), 0);
  }

  std::optional<Datagram> got;
  DatagramSocket rx(t, this->h.b, 7000);
  rx.on_receive([&](const Datagram& d) { got = d; });
  DatagramSocket tx(t, this->h.a, 7001);
  tx.send_to(this->h.b, 7000, bytes_of("qos-or-not"), 28, tag);

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(string_of(got->payload), "qos-or-not");
  if (ch.has_value()) t.release_channel(*ch);
}

/// Oversized datagrams are refused by the backend's own limit (link MTU is
/// not modeled; UDP's 64KB ceiling is) without wedging the sender.
TYPED_TEST(TransportConformance, OversizedDatagramIsRefusedCleanly) {
  Transport& t = this->h.transport();
  DatagramSocket rx(t, this->h.b, 7000);
  bool got_big = false;
  rx.on_receive([&](const Datagram&) { got_big = true; });
  DatagramSocket tx(t, this->h.a, 7001);
  // Far over RealTransport::kMaxDatagram; the simulator takes anything, the
  // kernel refuses — either way the next normal send must still work.
  const bool sent = tx.send_to(this->h.b, 7000,
                               std::vector<std::byte>(100'000));
  std::optional<Datagram> got;
  DatagramSocket rx2(t, this->h.b, 7002);
  rx2.on_receive([&](const Datagram& d) { got = d; });
  tx.send_to(this->h.b, 7002, bytes_of("after the giant"));

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(string_of(got->payload), "after the giant");
  if (!sent) EXPECT_FALSE(got_big);
}

/// The paper's extended timed Petri net runs on the seam: three slides back
/// to back (20, 30 and 50 ms, with a seek back into the second) present in
/// the same order at the same media positions on both backends. Wall times
/// are the backend's own business.
TYPED_TEST(TransportConformance, EtpnPlayoutPresentsInScheduleOrder) {
  using core::Relation;
  using core::TemporalSpec;
  const auto slide = [](const char* name, std::int64_t ms) {
    return TemporalSpec::object(name, 0, msec(ms));
  };
  const auto compiled = core::build_ocpn(TemporalSpec::relate(
      Relation::kMeets,
      TemporalSpec::relate(Relation::kMeets, slide("s1", 20),
                           slide("s2", 30)),
      slide("s3", 50)));
  core::InteractivePlayout p(this->h.transport(), compiled.net,
                             compiled.initial_marking());
  std::vector<std::string> log;
  p.on_media([&](core::PlaceId, const core::MediaBinding& m, bool started,
                 SimDuration pos) {
    log.push_back((started ? "+" : "-") + m.object_name + "@" +
                  std::to_string(pos.us / 1000));
    // The first time s3 begins, seek back to the start of s2, from a timer
    // of its own rather than from inside the playout's event loop.
    if (started && log.size() == 5) {
      this->h.transport().schedule_after(usec(0), [&] { p.seek(msec(20)); });
    }
  });
  p.start();
  ASSERT_TRUE(this->h.run_until([&] { return p.finished(); }));
  EXPECT_EQ(log, (std::vector<std::string>{"+s1@0", "-s1@20", "+s2@20",
                                           "-s2@50", "+s3@50", "-s3@20",
                                           "+s2@20", "-s2@50", "+s3@50",
                                           "-s3@100"}));
  EXPECT_EQ(p.media_now(), msec(100));
  ASSERT_EQ(p.episodes().size(), 5u);
  EXPECT_FALSE(p.episodes()[2].complete);  // s3, cut short by the seek
  EXPECT_EQ(p.episodes()[3].media_start, msec(20));
  EXPECT_TRUE(p.episodes()[4].complete);
}

/// A control transition issued from inside a media callback takes effect:
/// seeking back to s2 from the callback that starts s3 replays s2 for its
/// full 30 ms instead of being undone at the same instant, and the playout
/// keeps exactly one timer armed.
TYPED_TEST(TransportConformance, EtpnSeekFromInsideAMediaCallback) {
  using core::Relation;
  using core::TemporalSpec;
  const auto slide = [](const char* name, std::int64_t ms) {
    return TemporalSpec::object(name, 0, msec(ms));
  };
  const auto compiled = core::build_ocpn(TemporalSpec::relate(
      Relation::kMeets,
      TemporalSpec::relate(Relation::kMeets, slide("s1", 20),
                           slide("s2", 30)),
      slide("s3", 50)));
  core::InteractivePlayout p(this->h.transport(), compiled.net,
                             compiled.initial_marking());
  std::vector<std::string> log;
  // Timers pending at the same instant after s2 first starts (plain
  // playback) and after the seek, each counted from a zero-delay probe
  // that runs once the playout's own timer callback has returned.
  std::optional<std::size_t> playing_timers;
  std::optional<std::size_t> after_seek_timers;
  auto probe = [&](std::optional<std::size_t>& into) {
    this->h.transport().schedule_after(
        usec(0), [&] { into = this->h.pending_timers(); });
  };
  p.on_media([&](core::PlaceId, const core::MediaBinding& m, bool started,
                 SimDuration pos) {
    log.push_back((started ? "+" : "-") + m.object_name + "@" +
                  std::to_string(pos.us / 1000));
    if (started && log.size() == 3) probe(playing_timers);
    if (started && log.size() == 5) {
      p.seek(msec(20));
      probe(after_seek_timers);
    }
  });
  p.start();
  ASSERT_TRUE(this->h.run_until([&] { return p.finished(); }));
  EXPECT_EQ(log, (std::vector<std::string>{"+s1@0", "-s1@20", "+s2@20",
                                           "-s2@50", "+s3@50", "-s3@20",
                                           "+s2@20", "-s2@50", "+s3@50",
                                           "-s3@100"}));
  ASSERT_EQ(p.episodes().size(), 5u);
  const auto& replay = p.episodes()[3];
  EXPECT_EQ(replay.media_start, msec(20));
  EXPECT_TRUE(replay.complete);
  // No zero-length s2 episode: the replay lasts its 30 ms of media.
  EXPECT_GE(replay.wall_end - replay.wall_start, msec(25));
  ASSERT_TRUE(playing_timers.has_value());
  ASSERT_TRUE(after_seek_timers.has_value());
  // The harness's own timers are the same at both probes; the playout holds
  // one timer in each.
  EXPECT_EQ(*after_seek_timers, *playing_timers);
  EXPECT_EQ(p.media_now(), msec(100));
}

/// A foreign thread schedules and cancels while the loop fires: the wheel
/// sits under RealTransport's timer mutex and scheduling kicks the loop
/// through its eventfd. Exactly the timers left uncancelled fire, each
/// once, on the loop thread.
TEST(RealTransportTimers, ForeignThreadSchedulesAndCancelsWhileTheLoopRuns) {
  RealTransport rt;
  constexpr int kN = 2000;
  std::vector<int> fires(kN, 0);
  std::vector<bool> cancelled(kN, false);
  std::atomic<bool> off_loop{false};
  std::atomic<int> left{kN / 2};
  std::thread loop([&] { rt.run(); });
  const std::thread::id loop_id = loop.get_id();

  auto timer = [&](int i, bool last) {
    return [&, i, last] {
      if (std::this_thread::get_id() != loop_id) off_loop = true;
      ++fires[static_cast<std::size_t>(i)];
      if (last) left.fetch_sub(1);
    };
  };
  // Kept timers are due within milliseconds, so the loop fires them while
  // this thread is still scheduling; doomed ones wait long enough for their
  // cancel to win the race.
  SimTime latest = rt.now();
  for (int i = 0; i < kN; ++i) {
    const bool keep = i % 2 == 1;
    const SimTime at = rt.now() + (keep ? usec(10 * i) : msec(500));
    latest = std::max(latest, at);
    const EventId id = rt.schedule_at(at, timer(i, keep));
    if (!keep) cancelled[static_cast<std::size_t>(i)] = rt.cancel(id);
  }
  std::atomic<bool> swept{false};
  rt.schedule_at(latest + msec(10), [&] { swept = true; });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((left.load() > 0 || !swept.load()) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.stop();
  loop.join();

  EXPECT_TRUE(swept.load());
  EXPECT_EQ(left.load(), 0);
  EXPECT_FALSE(off_loop.load());
  int n_cancelled = 0;
  for (int i = 0; i < kN; ++i) {
    const auto k = static_cast<std::size_t>(i);
    n_cancelled += cancelled[k] ? 1 : 0;
    EXPECT_EQ(fires[k], cancelled[k] ? 0 : 1) << "timer " << i;
  }
  EXPECT_EQ(n_cancelled, kN / 2);
}

}  // namespace
}  // namespace lod::net
