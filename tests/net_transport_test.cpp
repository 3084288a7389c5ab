#include "lod/net/network.hpp"
#include "lod/net/transport.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "lod/streaming/protocol.hpp"

namespace lod::net {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}
std::string string_of(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// --- ByteWriter / ByteReader ---------------------------------------------------

std::vector<std::byte> hex_bytes(std::initializer_list<int> v) {
  std::vector<std::byte> out;
  for (int b : v) out.push_back(static_cast<std::byte>(b));
  return out;
}

TEST(Bytes, WireFormatIsPinned) {
  // Little-endian fixed-width fields, u32 length prefixes. These are the
  // bytes every frame on the wire is made of; no rewrite may move one.
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-2);
  w.f64(1.5);
  w.str("hi");
  const std::vector<std::byte> blob{std::byte{0x07}, std::byte{0x00}};
  w.blob(blob);
  EXPECT_EQ(w.bytes(),
            hex_bytes({0xab,                                            // u8
                       0xef, 0xbe,                                      // u16
                       0xef, 0xbe, 0xad, 0xde,                          // u32
                       0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
                       0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // f64
                       0x02, 0x00, 0x00, 0x00, 'h', 'i',                // str
                       0x02, 0x00, 0x00, 0x00, 0x07, 0x00}));           // blob
}

TEST(Bytes, LoddDataHeaderIsPinned) {
  // [magic u32][session u64][epoch u32][seq u64][packet_index u32], written
  // in the session engine's field order.
  ByteWriter w;
  w.reserve(streaming::proto::kDataHeaderBytes);
  w.u32(streaming::proto::kDataMagic);
  w.u64(0x0000000100000002ULL);
  w.u32(3);
  w.u64(0x1122334455667788ULL);
  w.u32(0x00000105);
  EXPECT_EQ(w.size(), streaming::proto::kDataHeaderBytes);
  EXPECT_EQ(w.bytes(),
            hex_bytes({'D', 'D', 'O', 'L',                              // magic
                       0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // id
                       0x03, 0x00, 0x00, 0x00,                          // epoch
                       0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // seq
                       0x05, 0x01, 0x00, 0x00}));                       // index
}

TEST(Bytes, ReliableDataFrameIsPinned) {
  // A DATA frame as it leaves a ReliableEndpoint: [tag u8 = 1][incarnation
  // u64][seq u64] with the message attached as the body. Incarnations count
  // up per thread from 0x1c4c, so a fresh thread makes the first one known.
  std::vector<std::byte> header;
  std::vector<std::byte> body;
  std::uint32_t wire = 0;
  std::thread([&] {
    Simulator sim;
    Network net(sim);
    const HostId a = net.add_host("a");
    const HostId b = net.add_host("b");
    net.add_link(a, b, LinkConfig{});
    ReliableEndpoint ep(net, a, 5);
    net.bind(b, 6, [&](const Datagram& d) {
      if (!header.empty()) return;  // keep the first transmission
      header.assign(d.payload.view().begin(), d.payload.view().end());
      body.assign(d.body.view().begin(), d.body.view().end());
      wire = d.wire_size;
    });
    ep.send_to(b, 6, bytes_of("ok"));
    ep.send_to(b, 6, bytes_of("two"));
    sim.run_until(SimTime{50'000});
  }).join();
  EXPECT_EQ(header,
            hex_bytes({0x01,                                           // kData
                       0x4c, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // inc.
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}));  // seq
  EXPECT_EQ(string_of(body), "ok");
  EXPECT_EQ(wire, 17u + 2u + 40u);  // header + message + segment overhead
}


TEST(Bytes, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.blob(bytes_of("world"));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(string_of(r.blob()), "world");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, TruncatedInputThrows) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.u64(), std::out_of_range);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  ByteReader r(w.bytes());
  EXPECT_THROW(r.str(), std::out_of_range);
}

TEST(Bytes, EmptyStringAndBlob) {
  ByteWriter w;
  w.str("");
  w.blob({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.blob().empty());
}

// --- DatagramSocket -------------------------------------------------------------

struct TransportFixture : ::testing::Test {
  TransportFixture() : net(sim, 21) {
    a = net.add_host("a");
    b = net.add_host("b");
  }
  void link(double loss = 0.0) {
    LinkConfig cfg;
    cfg.bandwidth_bps = 10'000'000;
    cfg.latency = msec(2);
    cfg.loss_rate = loss;
    net.add_link(a, b, cfg);
  }

  Simulator sim;
  Network net;
  HostId a{}, b{};
};

TEST_F(TransportFixture, DatagramDelivers) {
  link();
  DatagramSocket sa(net, a, 100);
  DatagramSocket sb(net, b, 200);
  std::string got;
  sb.on_receive([&](const Packet& p) { got = string_of(p.payload); });
  sa.send_to(b, 200, bytes_of("ping"));
  sim.run();
  EXPECT_EQ(got, "ping");
}

TEST_F(TransportFixture, DatagramAccountsHeaderOverheadOnWire) {
  link();
  DatagramSocket sa(net, a, 100);
  DatagramSocket sb(net, b, 200);
  sa.send_to(b, 200, bytes_of("x"), 28);
  sim.run();
  EXPECT_EQ(net.link_stats(a, b).bytes_sent, 29u);
}

TEST_F(TransportFixture, DatagramIsLossy) {
  link(1.0);
  DatagramSocket sa(net, a, 100);
  DatagramSocket sb(net, b, 200);
  bool got = false;
  sb.on_receive([&](const Packet&) { got = true; });
  sa.send_to(b, 200, bytes_of("ping"));
  sim.run();
  EXPECT_FALSE(got);  // datagrams do not retry
}

TEST_F(TransportFixture, SocketUnbindsOnDestruction) {
  link();
  {
    DatagramSocket sb(net, b, 200);
  }
  DatagramSocket sa(net, a, 100);
  sa.send_to(b, 200, bytes_of("ping"));
  sim.run();  // must not crash or deliver anywhere
}

// --- ReliableEndpoint -----------------------------------------------------------

TEST_F(TransportFixture, ReliableDeliversInOrder) {
  link();
  ReliableEndpoint ea(net, a, 100);
  ReliableEndpoint eb(net, b, 200);
  std::vector<std::string> got;
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    got.push_back(string_of(m.payload));
  });
  for (int i = 0; i < 10; ++i) {
    ea.send_to(b, 200, bytes_of("msg" + std::to_string(i)));
  }
  sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], "msg" + std::to_string(i));
  EXPECT_TRUE(ea.all_acked());
}

TEST_F(TransportFixture, ReliableSurvivesHeavyLoss) {
  link(0.4);  // 40% loss each way
  ReliableEndpoint ea(net, a, 100, msec(50));
  ReliableEndpoint eb(net, b, 200, msec(50));
  std::vector<std::string> got;
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    got.push_back(string_of(m.payload));
  });
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    ea.send_to(b, 200, bytes_of(std::to_string(i)));
  }
  sim.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], std::to_string(i));
  EXPECT_GT(ea.retransmissions(), 0u);
  EXPECT_TRUE(ea.all_acked());
}

TEST_F(TransportFixture, ReliableInflightRingWrapsAcrossWavesUnderLoss) {
  // Waves of 1-9 messages, each sent while part of the previous wave is
  // still unacknowledged, so the sender's in-flight ring fills, grows,
  // drains from the front and wraps while retransmits fire out of it.
  link(0.2);
  ReliableEndpoint ea(net, a, 100, msec(30));
  ReliableEndpoint eb(net, b, 200, msec(30));
  std::vector<std::string> got;
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    got.push_back(string_of(m.payload));
  });
  int sent = 0;
  for (int wave = 0; wave < 40; ++wave) {
    for (int i = 0; i < 1 + wave % 9; ++i) {
      ea.send_to(b, 200, bytes_of(std::to_string(sent++)));
    }
    sim.run_until(sim.now() + msec(7));
  }
  sim.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(sent));
  for (int i = 0; i < sent; ++i) EXPECT_EQ(got[i], std::to_string(i));
  EXPECT_GT(ea.retransmissions(), 0u);
  EXPECT_TRUE(ea.all_acked());
}

TEST_F(TransportFixture, ReliableNoDuplicateDelivery) {
  link(0.3);
  ReliableEndpoint ea(net, a, 100, msec(20));
  ReliableEndpoint eb(net, b, 200, msec(20));
  int count = 0;
  eb.on_receive([&](const ReliableEndpoint::Message&) { ++count; });
  ea.send_to(b, 200, bytes_of("once"));
  sim.run();
  EXPECT_EQ(count, 1);  // retransmits may arrive multiple times; deliver once
}

TEST_F(TransportFixture, ReliableBidirectional) {
  link();
  ReliableEndpoint ea(net, a, 100);
  ReliableEndpoint eb(net, b, 200);
  std::string at_a, at_b;
  ea.on_receive([&](const ReliableEndpoint::Message& m) {
    at_a = string_of(m.payload);
  });
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    at_b = string_of(m.payload);
    eb.send_to(m.src, m.src_port, bytes_of("pong"));
  });
  ea.send_to(b, 200, bytes_of("ping"));
  sim.run();
  EXPECT_EQ(at_b, "ping");
  EXPECT_EQ(at_a, "pong");
}

TEST_F(TransportFixture, ReliableGivesUpAfterMaxRetries) {
  link(1.0);  // nothing ever arrives
  ReliableEndpoint ea(net, a, 100, msec(10), /*max_retries=*/3);
  ea.send_to(b, 200, bytes_of("void"));
  sim.run();
  EXPECT_EQ(ea.retransmissions(), 3u);
  EXPECT_FALSE(ea.all_acked());
}

TEST_F(TransportFixture, ReliableIndependentPeers) {
  const HostId c = net.add_host("c");
  LinkConfig cfg;
  cfg.latency = msec(1);
  net.add_link(a, b, cfg);
  net.add_link(a, c, cfg);
  ReliableEndpoint ea(net, a, 100);
  ReliableEndpoint eb(net, b, 200);
  ReliableEndpoint ec(net, c, 200);
  std::string got_b, got_c;
  eb.on_receive([&](const auto& m) { got_b = string_of(m.payload); });
  ec.on_receive([&](const auto& m) { got_c = string_of(m.payload); });
  ea.send_to(b, 200, bytes_of("to-b"));
  ea.send_to(c, 200, bytes_of("to-c"));
  sim.run();
  EXPECT_EQ(got_b, "to-b");
  EXPECT_EQ(got_c, "to-c");
}

TEST_F(TransportFixture, ReincarnatedEndpointResetsConversation) {
  // A new endpoint on the same (host, port) — a reconnect — must not be
  // mistaken for stale duplicates of the old sequence space, in EITHER
  // direction.
  link();
  ReliableEndpoint eb(net, b, 200);
  std::vector<std::string> got;
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    got.push_back(string_of(m.payload));
    eb.send_to(m.src, m.src_port, bytes_of("re:" + string_of(m.payload)));
  });

  std::vector<std::string> got_a;
  {
    ReliableEndpoint ea(net, a, 100);
    ea.on_receive([&](const ReliableEndpoint::Message& m) {
      got_a.push_back(string_of(m.payload));
    });
    ea.send_to(b, 200, bytes_of("first"));
    sim.run();
  }
  // The old endpoint died; a fresh one binds the same port with seq 0.
  {
    ReliableEndpoint ea2(net, a, 100);
    ea2.on_receive([&](const ReliableEndpoint::Message& m) {
      got_a.push_back(string_of(m.payload));
    });
    ea2.send_to(b, 200, bytes_of("second"));
    sim.run();
  }
  ASSERT_EQ(got, (std::vector<std::string>{"first", "second"}));
  // Replies from b reached both incarnations (b restarted its send side).
  ASSERT_EQ(got_a, (std::vector<std::string>{"re:first", "re:second"}));
}

TEST_F(TransportFixture, FirstContactDoesNotResetSender) {
  // Receiving a peer's FIRST data frame must not wipe our own send state
  // toward them (the subtle first-contact vs reincarnation distinction).
  link();
  ReliableEndpoint ea(net, a, 100);
  ReliableEndpoint eb(net, b, 200);
  std::vector<std::string> got_b;
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    got_b.push_back(string_of(m.payload));
    if (got_b.size() == 1) eb.send_to(m.src, m.src_port, bytes_of("ack1"));
  });
  ea.send_to(b, 200, bytes_of("one"));
  sim.run();
  ea.send_to(b, 200, bytes_of("two"));  // must arrive as seq 1, not a dup
  sim.run();
  EXPECT_EQ(got_b, (std::vector<std::string>{"one", "two"}));
}

TEST_F(TransportFixture, GapFillDeliversStashedMessagesInSeqOrder) {
  // Regression for the out_of_order std::map -> unordered_map move: raw data
  // frames injected out of order (2, 0, 3, 1) must still come out 0,1,2,3 —
  // the hole at the front stashes 2 and 3, and each fill drains the stash in
  // seq order, not in hash-iteration order.
  link();
  ReliableEndpoint eb(net, b, 200);
  std::vector<std::string> got;
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    got.push_back(string_of(m.payload));
  });

  DatagramSocket raw(net, a, 100);
  const auto header = [](std::uint64_t seq) {
    // [kData=1][incarnation u64][seq u64]; the message rides as the body.
    ByteWriter w;
    w.u8(1);
    w.u64(7);  // any nonzero incarnation
    w.u64(seq);
    return std::move(w).take();
  };
  for (const std::uint64_t seq : {2u, 0u, 3u, 1u}) {
    raw.send_to(b, 200, header(seq),
                Payload{bytes_of("m" + std::to_string(seq))}, 28);
  }
  sim.run();
  EXPECT_EQ(got, (std::vector<std::string>{"m0", "m1", "m2", "m3"}));
}

TEST_F(TransportFixture, InlineFramedDataIsDroppedNotDelivered) {
  // A data frame with bytes after its header (the old inline framing,
  // [u32 n][bytes]) is foreign input: dropped unacked, body or not.
  link();
  ReliableEndpoint eb(net, b, 200);
  int delivered = 0;
  eb.on_receive([&](const ReliableEndpoint::Message&) { ++delivered; });
  DatagramSocket raw(net, a, 100);
  int acks = 0;
  raw.on_receive([&](const Datagram&) { ++acks; });

  ByteWriter inline_frame;
  inline_frame.u8(1);
  inline_frame.u64(7);
  inline_frame.u64(0);
  inline_frame.u32(2);
  inline_frame.raw(bytes_of("m0"));
  raw.send_to(b, 200, std::move(inline_frame).take());
  ByteWriter trailing;
  trailing.u8(1);
  trailing.u64(7);
  trailing.u64(0);
  trailing.u8(0);
  raw.send_to(b, 200, std::move(trailing).take(), Payload{bytes_of("m0")},
              28);
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(acks, 0);
}

TEST_F(TransportFixture, ReliableDeliveryIsZeroCopy) {
  // The delivered message must BE the sender's buffer (same body, not a
  // duplicate), and the whole exchange must not copy payload bytes at all.
  link();
  ReliableEndpoint ea(net, a, 100);
  ReliableEndpoint eb(net, b, 200);
  const Payload sent{bytes_of(std::string(4096, 'z'))};
  const std::byte* delivered_data = nullptr;
  std::size_t delivered_size = 0;
  eb.on_receive([&](const ReliableEndpoint::Message& m) {
    delivered_data = m.payload.data();
    delivered_size = m.payload.size();
  });

  const std::uint64_t copied_before = Payload::stats().bytes_copied;
  ea.send_to(b, 200, sent);
  sim.run();
  EXPECT_EQ(delivered_data, sent.data());  // same bytes, not a lookalike
  EXPECT_EQ(delivered_size, sent.size());
  EXPECT_EQ(Payload::stats().bytes_copied - copied_before, 0u);
}

TEST_F(TransportFixture, RetransmissionsDoNotCopyPayloadBytes) {
  link(0.4);
  ReliableEndpoint ea(net, a, 100, msec(20));
  ReliableEndpoint eb(net, b, 200, msec(20));
  int count = 0;
  eb.on_receive([&](const ReliableEndpoint::Message&) { ++count; });
  const std::uint64_t copied_before = Payload::stats().bytes_copied;
  for (int i = 0; i < 20; ++i) {
    ea.send_to(b, 200, bytes_of(std::string(1024, 'a' + i % 26)));
  }
  sim.run();
  EXPECT_EQ(count, 20);
  EXPECT_GT(ea.retransmissions(), 0u);  // loss forced re-sends...
  EXPECT_EQ(Payload::stats().bytes_copied - copied_before, 0u);  // ...copy-free
}

// --- RpcServer / RpcClient --------------------------------------------------------

TEST_F(TransportFixture, RpcRoundTrip) {
  link();
  RpcServer server(net, b, 80);
  server.route("/echo", [](std::string_view, std::span<const std::byte> body) {
    return std::make_pair(200, std::vector<std::byte>(body.begin(), body.end()));
  });
  RpcClient client(net, a, 4000);
  int status = 0;
  std::string body;
  client.call(b, 80, "/echo", bytes_of("payload"),
              [&](net::Result<net::RpcReply> r) {
                ASSERT_TRUE(r.has_value());
                status = r->status;
                body = string_of(r->body);
              });
  sim.run();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "payload");
}

TEST_F(TransportFixture, RpcUnknownPathIs404) {
  link();
  RpcServer server(net, b, 80);
  RpcClient client(net, a, 4000);
  int status = 0;
  client.call(b, 80, "/nope", {},
              [&](net::Result<net::RpcReply> r) { status = r ? r->status : -1; });
  sim.run();
  EXPECT_EQ(status, 404);
}

TEST_F(TransportFixture, RpcSurvivesLoss) {
  link(0.3);
  RpcServer server(net, b, 80);
  server.route("/ok", [](auto, auto) {
    return std::make_pair(200, std::vector<std::byte>{});
  });
  RpcClient client(net, a, 4000);
  int calls_done = 0;
  for (int i = 0; i < 10; ++i) {
    client.call(b, 80, "/ok", {}, [&](net::Result<net::RpcReply> r) {
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->status, 200);
      ++calls_done;
    });
  }
  sim.run();
  EXPECT_EQ(calls_done, 10);
}

TEST_F(TransportFixture, RpcMultipleRoutes) {
  link();
  RpcServer server(net, b, 80);
  server.route("/one", [](auto, auto) {
    return std::make_pair(201, std::vector<std::byte>{});
  });
  server.route("/two", [](auto, auto) {
    return std::make_pair(202, std::vector<std::byte>{});
  });
  RpcClient client(net, a, 4000);
  int s1 = 0, s2 = 0;
  client.call(b, 80, "/one",
              {}, [&](net::Result<net::RpcReply> r) { s1 = r ? r->status : -1; });
  client.call(b, 80, "/two",
              {}, [&](net::Result<net::RpcReply> r) { s2 = r ? r->status : -1; });
  sim.run();
  EXPECT_EQ(s1, 201);
  EXPECT_EQ(s2, 202);
}

}  // namespace
}  // namespace lod::net
