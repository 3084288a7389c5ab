#include "lod/net/network.hpp"

#include <gtest/gtest.h>

namespace lod::net {
namespace {

/// Two hosts joined by one configurable link, with a capture sink on B.
struct TwoHostFixture : ::testing::Test {
  TwoHostFixture() : net(sim, 7) {
    a = net.add_host("a");
    b = net.add_host("b");
  }
  void link(const LinkConfig& cfg) { net.add_link(a, b, cfg); }
  void sink(Port port) {
    net.bind(b, port, [this](const Packet& p) {
      received.push_back(p);
      receive_times.push_back(sim.now());
    });
  }
  Packet make(std::uint32_t bytes, Port dst_port = 9) {
    Packet p;
    p.src = a;
    p.dst = b;
    p.dst_port = dst_port;
    p.wire_size = bytes;
    return p;
  }

  Simulator sim;
  Network net;
  HostId a{}, b{};
  std::vector<Packet> received;
  std::vector<SimTime> receive_times;
};

TEST_F(TwoHostFixture, DeliversWithSerializationPlusLatency) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;  // 1 byte/us
  cfg.latency = msec(5);
  link(cfg);
  sink(9);
  net.send(make(1000));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  // 1000 bytes at 1 B/us = 1 ms serialize + 5 ms propagate.
  EXPECT_EQ(receive_times[0].us, 6000);
}

TEST_F(TwoHostFixture, BackToBackPacketsQueueBehindEachOther) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.latency = msec(0);
  link(cfg);
  sink(9);
  net.send(make(1000));
  net.send(make(1000));
  sim.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(receive_times[0].us, 1000);
  EXPECT_EQ(receive_times[1].us, 2000);  // waited for the first to serialize
}

TEST_F(TwoHostFixture, LossDropsDeterministically) {
  LinkConfig cfg;
  cfg.loss_rate = 1.0;
  link(cfg);
  sink(9);
  net.send(make(100));
  sim.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(net.link_stats(a, b).packets_dropped_loss, 1u);
}

TEST_F(TwoHostFixture, QueueOverflowDropsTail) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000;  // 1 byte/ms: first packet occupies the line
  cfg.queue_bytes = 1500;
  link(cfg);
  sink(9);
  net.send(make(1000));
  net.send(make(400));   // fits (1400 <= 1500)
  net.send(make(400));   // 1800 > 1500: dropped
  sim.run();
  EXPECT_EQ(received.size(), 2u);
  EXPECT_EQ(net.link_stats(a, b).packets_dropped_queue, 1u);
}

TEST_F(TwoHostFixture, UnknownDestinationRejected) {
  LinkConfig cfg;
  link(cfg);
  Packet p = make(100);
  p.dst = 77;
  EXPECT_FALSE(net.send(std::move(p)));
}

TEST_F(TwoHostFixture, NoRouteRejected) {
  // No link added at all.
  EXPECT_FALSE(net.send(make(100)));
}

TEST_F(TwoHostFixture, LoopbackDeliversAsynchronously) {
  LinkConfig cfg;
  link(cfg);
  bool got = false;
  net.bind(a, 5, [&](const Packet&) { got = true; });
  Packet p = make(10, 5);
  p.dst = a;
  EXPECT_TRUE(net.send(std::move(p)));
  EXPECT_FALSE(got);  // not synchronous
  sim.run();
  EXPECT_TRUE(got);
}

TEST_F(TwoHostFixture, UnboundPortDropsSilently) {
  LinkConfig cfg;
  link(cfg);
  net.send(make(100, 1234));
  sim.run();  // must not crash
  EXPECT_TRUE(received.empty());
}

TEST_F(TwoHostFixture, StatsCountBytesAndPackets) {
  LinkConfig cfg;
  link(cfg);
  sink(9);
  net.send(make(100));
  net.send(make(200));
  sim.run();
  const LinkStats& s = net.link_stats(a, b);
  EXPECT_EQ(s.packets_sent, 2u);
  EXPECT_EQ(s.bytes_sent, 300u);
}

TEST_F(TwoHostFixture, JitterPerturbsArrivalButNotCausality) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 80'000'000;
  cfg.latency = msec(1);
  cfg.jitter = usec(300);
  link(cfg);
  sink(9);
  for (int i = 0; i < 50; ++i) net.send(make(100));
  sim.run();
  ASSERT_EQ(received.size(), 50u);
  bool saw_nonzero_jitter = false;
  for (std::size_t i = 0; i < receive_times.size(); ++i) {
    // Never before serialization end + propagation floor.
    EXPECT_GE(receive_times[i].us, 1000 + static_cast<std::int64_t>(i + 1) * 10);
    if (receive_times[i].us != 1010 + static_cast<std::int64_t>(i) * 10) {
      saw_nonzero_jitter = true;
    }
  }
  EXPECT_TRUE(saw_nonzero_jitter);
}

TEST(NetworkTopology, MultiHopRouteAndDelivery) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId r1 = net.add_host("r1");
  const HostId r2 = net.add_host("r2");
  const HostId b = net.add_host("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.latency = msec(2);
  net.add_link(a, r1, cfg);
  net.add_link(r1, r2, cfg);
  net.add_link(r2, b, cfg);

  const auto path = net.route(a, b);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), a);
  EXPECT_EQ(path.back(), b);

  std::vector<SimTime> at;
  net.bind(b, 9, [&](const Packet&) { at.push_back(sim.now()); });
  Packet p;
  p.src = a;
  p.dst = b;
  p.dst_port = 9;
  p.wire_size = 1000;
  net.send(std::move(p));
  sim.run();
  ASSERT_EQ(at.size(), 1u);
  // 3 hops, each 1 ms serialize + 2 ms latency (store-and-forward).
  EXPECT_EQ(at[0].us, 9000);
}

TEST(NetworkTopology, ShortestPathPreferred) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId m = net.add_host("m");
  const HostId b = net.add_host("b");
  LinkConfig cfg;
  net.add_link(a, m, cfg);
  net.add_link(m, b, cfg);
  net.add_link(a, b, cfg);  // direct
  EXPECT_EQ(net.route(a, b).size(), 2u);
}

TEST(NetworkTopology, UnreachableRouteEmpty) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  EXPECT_TRUE(net.route(a, b).empty());
}

TEST(NetworkTopology, BadLinkEndpointsThrow) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  EXPECT_THROW(net.add_link(a, a, {}), std::invalid_argument);
  EXPECT_THROW(net.add_link(a, 42, {}), std::invalid_argument);
}

TEST(NetworkClock, HostClocksAreIndependent) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a", HostClock(msec(100), 0));
  const HostId b = net.add_host("b", HostClock(msec(-40), 0));
  sim.run_until(SimTime{1'000'000});
  EXPECT_EQ(net.local_now(a).us, 1'100'000);
  EXPECT_EQ(net.local_now(b).us, 960'000);
}

// --- QoS channels -------------------------------------------------------------

struct ChannelFixture : TwoHostFixture {};

TEST_F(ChannelFixture, AdmissionControlRespectsCapacity) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000;
  link(cfg);
  auto c1 = net.reserve_channel(a, b, 600'000);
  ASSERT_TRUE(c1.has_value());
  auto c2 = net.reserve_channel(a, b, 600'000);  // 1.2 Mb/s > 1 Mb/s
  EXPECT_FALSE(c2.has_value());
  net.release_channel(*c1);
  auto c3 = net.reserve_channel(a, b, 600'000);
  EXPECT_TRUE(c3.has_value());
}

TEST_F(ChannelFixture, ZeroOrNegativeRateRejected) {
  link({});
  EXPECT_FALSE(net.reserve_channel(a, b, 0).has_value());
  EXPECT_FALSE(net.reserve_channel(a, b, -5).has_value());
}

TEST_F(ChannelFixture, UnroutableChannelRejected) {
  // no link
  EXPECT_FALSE(net.reserve_channel(a, b, 1000).has_value());
}

TEST_F(ChannelFixture, ChannelTrafficUnaffectedByBestEffortCongestion) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.latency = msec(0);
  link(cfg);
  sink(9);
  auto ch = net.reserve_channel(a, b, 4'000'000);
  ASSERT_TRUE(ch.has_value());

  // Flood best-effort first; then send one channel packet.
  for (int i = 0; i < 20; ++i) net.send(make(1000, 8));
  Packet p = make(1000, 9);
  p.channel = *ch;
  net.send(std::move(p));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  // Channel rate 4 Mb/s => 1000 B serialize in 2 ms, regardless of the flood.
  EXPECT_EQ(receive_times[0].us, 2000);
}

TEST_F(ChannelFixture, ReservationShrinksBestEffortBandwidth) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.latency = msec(0);
  link(cfg);
  sink(9);
  auto ch = net.reserve_channel(a, b, 4'000'000);
  ASSERT_TRUE(ch.has_value());
  net.send(make(1000));  // best effort now sees only 4 Mb/s
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(receive_times[0].us, 2000);
}

TEST_F(ChannelFixture, ChannelInfoAndRelease) {
  LinkConfig cfg;
  link(cfg);
  auto ch = net.reserve_channel(a, b, 1000);
  ASSERT_TRUE(ch.has_value());
  auto info = net.channel_info(*ch);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->src, a);
  EXPECT_EQ(info->dst, b);
  EXPECT_EQ(info->rate_bps, 1000);
  net.release_channel(*ch);
  EXPECT_FALSE(net.channel_info(*ch).has_value());
  net.release_channel(*ch);  // double release is a no-op
}

TEST_F(ChannelFixture, ResizeChannelInPlace) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000;
  link(cfg);
  auto ch = net.reserve_channel(a, b, 300'000);
  ASSERT_TRUE(ch.has_value());
  // Grow within capacity.
  EXPECT_TRUE(net.resize_channel(*ch, 800'000));
  EXPECT_EQ(net.channel_info(*ch)->rate_bps, 800'000);
  // Grow beyond capacity: refused, old rate intact.
  EXPECT_FALSE(net.resize_channel(*ch, 1'200'000));
  EXPECT_EQ(net.channel_info(*ch)->rate_bps, 800'000);
  // Shrink always succeeds and frees admission headroom.
  EXPECT_TRUE(net.resize_channel(*ch, 100'000));
  auto ch2 = net.reserve_channel(a, b, 850'000);
  EXPECT_TRUE(ch2.has_value());
  // Bad ids / rates.
  EXPECT_FALSE(net.resize_channel(999, 1000));
  EXPECT_FALSE(net.resize_channel(*ch, 0));
}

TEST_F(ChannelFixture, ResizeRespectsOtherReservations) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000;
  link(cfg);
  auto c1 = net.reserve_channel(a, b, 400'000);
  auto c2 = net.reserve_channel(a, b, 400'000);
  ASSERT_TRUE(c1 && c2);
  EXPECT_FALSE(net.resize_channel(*c1, 700'000));  // 700+400 > 1000
  EXPECT_TRUE(net.resize_channel(*c1, 600'000));   // exactly fits
}

TEST(ChannelMultiHop, ReservesEveryHop) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId m = net.add_host("m");
  const HostId b = net.add_host("b");
  LinkConfig thin;
  thin.bandwidth_bps = 500'000;
  LinkConfig fat;
  fat.bandwidth_bps = 10'000'000;
  net.add_link(a, m, fat);
  net.add_link(m, b, thin);  // bottleneck
  EXPECT_FALSE(net.reserve_channel(a, b, 600'000).has_value());
  auto ch = net.reserve_channel(a, b, 400'000);
  ASSERT_TRUE(ch.has_value());
  EXPECT_EQ(ch ? net.channel_info(*ch)->path.size() : 0u, 2u);
}

TEST(ChannelMultiHop, OffPathSendsShareLinkSerializersAndReleaseIsBestEffort) {
  // a - b - c at 8 Mb/s with no latency; the channel a -> c runs at 4 Mb/s,
  // so 1000 bytes take 2 ms per hop on it and 1 ms best-effort.
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const HostId c = net.add_host("c");
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.latency = msec(0);
  net.add_link(a, b, cfg);
  net.add_link(b, c, cfg);
  std::vector<std::pair<Port, SimTime>> got;
  for (const Port port : {Port{1}, Port{2}, Port{3}, Port{4}}) {
    net.bind(c, port, [&got, &sim, port](const Packet&) {
      got.emplace_back(port, sim.now());
    });
  }
  const auto ch = net.reserve_channel(a, c, 4'000'000);
  ASSERT_TRUE(ch.has_value());
  auto send = [&](HostId src, Port port, ChannelId channel) {
    Packet p;
    p.src = src;
    p.dst = c;
    p.dst_port = port;
    p.wire_size = 1000;
    p.channel = channel;
    ASSERT_TRUE(net.send(std::move(p)));
  };
  // Port 1 rides the whole reserved path: b -> c is busy until 4 ms. Port
  // 2 rides only its b -> c hop from 2.5 ms and queues behind it there.
  send(a, 1, *ch);
  sim.schedule_at(SimTime{2500}, [&] { send(b, 2, *ch); });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<Port, SimTime>{1, SimTime{4000}}));
  EXPECT_EQ(got[1], (std::pair<Port, SimTime>{2, SimTime{6000}}));

  // Released while port 3's datagram is on its first hop: the second hop
  // is best-effort at the link's full 8 Mb/s. A later send on the released
  // id is best-effort throughout.
  got.clear();
  const SimTime t0 = sim.now();
  send(a, 3, *ch);
  sim.schedule_at(t0 + usec(1000), [&] { net.release_channel(*ch); });
  sim.run();
  send(a, 4, *ch);
  const SimTime t1 = sim.now();
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<Port, SimTime>{3, t0 + usec(3000)}));
  EXPECT_EQ(got[1], (std::pair<Port, SimTime>{4, t1 + usec(2000)}));
}

// --- the port table ----------------------------------------------------------

TEST_F(TwoHostFixture, ReceiverThatUnbindsItsOwnPortGetsOneDatagram) {
  link({});
  int calls = 0;
  // A capture held on the heap: it is read after the unbind, so ASan sees
  // a receiver destroyed while it runs.
  const std::vector<int> tag(16, 7);
  net.bind(b, 9, [&, tag](const Packet&) {
    net.unbind(b, 9);
    calls += tag[0] == 7 ? 1 : 100;
  });
  for (int i = 0; i < 3; ++i) net.send(make(100));
  sim.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(TwoHostFixture, ReceiverThatRebindsItsOwnPortGetsEachDatagramOnce) {
  link({});
  int first = 0;
  int second = 0;
  const std::vector<int> tag(16, 7);
  net.bind(b, 9, [&, tag](const Packet&) {
    // Rebound twice, and unbound in between, inside one call.
    net.bind(b, 9, [&](const Packet&) { second += 100; });
    net.unbind(b, 9);
    net.bind(b, 9, [&](const Packet&) { ++second; });
    first += tag[0] == 7 ? 1 : 100;
  });
  for (int i = 0; i < 4; ++i) net.send(make(100));
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 3);
}

TEST_F(TwoHostFixture, ReceiverThatBindsManyPortsDuringDeliveryStaysPut) {
  link({});
  // Port 250 sits near the end of its page; 300 more ports fill the rest
  // of it and two more pages while the receiver runs.
  std::vector<int> calls(600, 0);
  const std::vector<int> tag(16, 7);
  net.bind(b, 250, [&, tag](const Packet&) {
    calls[250] += tag[0] == 7 ? 1 : 100;
    if (calls[250] != 1) return;
    for (Port port = 251; port <= 550; ++port) {
      net.bind(b, port, [&calls, port](const Packet&) { ++calls[port]; });
    }
    calls[250] += tag[1] == 7 ? 0 : 100;
  });
  net.send(make(100, 250));
  net.send(make(100, 250));
  sim.run();
  EXPECT_EQ(calls[250], 2);
  for (const Port port : {Port{251}, Port{255}, Port{256}, Port{511},
                          Port{512}, Port{550}}) {
    net.send(make(100, port));
  }
  net.send(make(100, 551));  // never bound
  sim.run();
  for (Port port = 251; port <= 551; ++port) {
    const bool sent = port == 251 || port == 255 || port == 256 ||
                      port == 511 || port == 512 || port == 550;
    EXPECT_EQ(calls[port], sent ? 1 : 0) << port;
  }
}

TEST(RouteTable, ShorterLinkAddedAfterTrafficTakesEffect) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId m = net.add_host("m");
  const HostId b = net.add_host("b");
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000;
  cfg.latency = msec(2);
  net.add_link(a, m, cfg);
  net.add_link(m, b, cfg);

  std::vector<SimTime> at;
  net.bind(b, 9, [&](const Packet&) { at.push_back(sim.now()); });
  auto send = [&] {
    Packet p;
    p.src = a;
    p.dst = b;
    p.dst_port = 9;
    p.wire_size = 1000;
    ASSERT_TRUE(net.send(std::move(p)));
  };
  // Traffic over the two-hop path fills the route table.
  send();
  sim.run();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0].us, 6000);  // 2 x (1 ms serialize + 2 ms latency)
  EXPECT_EQ(net.route(a, b), (std::vector<HostId>{a, m, b}));
  EXPECT_EQ(net.path_latency(a, b), msec(4));

  // A direct link replaces the cached path for every reader.
  LinkConfig direct = cfg;
  direct.latency = msec(1);
  net.add_link(a, b, direct);
  EXPECT_EQ(net.route(a, b), (std::vector<HostId>{a, b}));
  EXPECT_EQ(net.route(b, a), (std::vector<HostId>{b, a}));
  EXPECT_EQ(net.path_latency(a, b), msec(1));
  const SimTime sent = sim.now();
  send();
  sim.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ((at[1] - sent).us, 2000);  // 1 ms serialize + 1 ms latency
  const auto ch = net.reserve_channel(a, b, 100'000);
  ASSERT_TRUE(ch.has_value());
  const auto info = net.channel_info(*ch);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->path,
            (std::vector<std::pair<HostId, HostId>>{{a, b}}));
}

TEST(RouteTable, EqualCostPathsFollowLinkOrder) {
  // Two equal-hop paths a-x-b and a-y-b: the path through the link added
  // first is chosen, before and after an unrelated link clears the table.
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId x = net.add_host("x");
  const HostId y = net.add_host("y");
  const HostId b = net.add_host("b");
  const HostId c = net.add_host("c");
  net.add_link(a, x, {});
  net.add_link(a, y, {});
  net.add_link(x, b, {});
  net.add_link(y, b, {});
  EXPECT_EQ(net.route(a, b), (std::vector<HostId>{a, x, b}));
  EXPECT_EQ(net.route(b, a), (std::vector<HostId>{b, x, a}));
  net.add_link(b, c, {});
  EXPECT_EQ(net.route(a, b), (std::vector<HostId>{a, x, b}));
  EXPECT_EQ(net.route(a, c), (std::vector<HostId>{a, x, b, c}));
  EXPECT_TRUE(net.route(a, 99).empty());
  EXPECT_EQ(net.path_latency(a, 99), SimDuration{-1});
}

}  // namespace
}  // namespace lod::net
