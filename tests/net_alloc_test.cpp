// Allocation guard for the event, timer and datagram paths of both backends,
// and for the player's demux of received packets.
//
// This binary replaces the global operator new/delete with counting
// versions, so it must stay its own executable: the counters see every
// allocation in the process. Each test warms the structures up first (the
// timing wheel's handler slab and buckets, the network's hop slab and route
// table), then counts allocations over a measured phase.
//
// The timing wheel keeps bucket storage once a slot has held items (a
// level-0 slot keeps its own, an upper-level slot passes its on to the next
// one that fills), so a steady pattern stops allocating once every slot it
// visits has been visited. A pattern whose period divides 2^16 us visits
// the same level-0 and level-1 slots in every 65.5 ms window; the warm-up
// runs past 2^24 us so it also crosses every level-2 boundary, and the
// measured phase ends before the next level-3 boundary the warm-up did not
// cross.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "lod/media/asf.hpp"
#include "lod/net/bytes.hpp"
#include "lod/net/network.hpp"
#include "lod/net/payload.hpp"
#include "lod/net/real_transport.hpp"
#include "lod/net/simulator.hpp"
#include "lod/streaming/protocol.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it), so
// every allocation is counted and freed by the matching replacement.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lod::net {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

constexpr std::int64_t kPeriodUs = 1024;  // divides 2^16
constexpr std::int64_t kWarmUntilUs = (std::int64_t{1} << 24) + 100'000;

/// A self-rescheduling source that calls `fire()` every kPeriodUs.
template <typename Fire>
struct Ticker {
  Simulator& sim;
  Fire fire;
  void arm() {
    sim.schedule_after(usec(kPeriodUs), [this] {
      fire();
      arm();
    });
  }
};
template <typename Fire>
Ticker(Simulator&, Fire) -> Ticker<Fire>;

TEST(NetAlloc, ForwardingOverThreeHopsAllocatesNothing) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const HostId c = net.add_host("c");
  const HostId d = net.add_host("d");
  LinkConfig cfg;
  cfg.bandwidth_bps = 100'000'000;
  cfg.latency = usec(150);
  net.add_link(a, b, cfg);
  net.add_link(b, c, cfg);
  net.add_link(c, d, cfg);
  ASSERT_EQ(net.route(a, d).size(), 4u);

  std::uint64_t delivered = 0;
  net.bind(d, 9, [&](const Datagram&) { ++delivered; });
  Datagram proto;
  proto.src = a;
  proto.dst = d;
  proto.dst_port = 9;
  proto.payload = Payload::copy_of(std::array<std::byte, 24>{});
  proto.body = Payload::copy_of(std::array<std::byte, 1000>{});
  proto.wire_size = 1052;
  Ticker ticker{sim, [&] { net.send(proto); }};
  ticker.arm();

  sim.run_until(SimTime{kWarmUntilUs});
  const std::uint64_t warm = delivered;
  ASSERT_GT(warm, 16'000u);

  const std::uint64_t before = allocs();
  sim.run_until(SimTime{kWarmUntilUs + 10'000 * kPeriodUs});
  const std::uint64_t during = allocs() - before;
  const std::uint64_t hops = 3 * (delivered - warm);
  EXPECT_EQ(delivered - warm, 10'000u);
  EXPECT_EQ(during, 0u) << during << " allocations over " << hops << " hops";
}

TEST(NetAlloc, ThreeHopSendOnAReservedChannelAllocatesNothing) {
  Simulator sim;
  Network net(sim);
  const HostId a = net.add_host("a");
  const HostId b = net.add_host("b");
  const HostId c = net.add_host("c");
  const HostId d = net.add_host("d");
  LinkConfig cfg;
  cfg.bandwidth_bps = 100'000'000;
  cfg.latency = usec(150);
  net.add_link(a, b, cfg);
  net.add_link(b, c, cfg);
  net.add_link(c, d, cfg);
  const auto channel = net.reserve_channel(a, d, 20'000'000);
  ASSERT_TRUE(channel.has_value());

  std::uint64_t delivered = 0;
  net.bind(d, 9, [&](const Datagram&) { ++delivered; });
  Datagram proto;
  proto.src = a;
  proto.dst = d;
  proto.dst_port = 9;
  proto.channel = *channel;
  proto.payload = Payload::copy_of(std::array<std::byte, 24>{});
  proto.body = Payload::copy_of(std::array<std::byte, 1000>{});
  proto.wire_size = 1052;
  Ticker ticker{sim, [&] { net.send(proto); }};
  ticker.arm();

  sim.run_until(SimTime{kWarmUntilUs});
  const std::uint64_t warm = delivered;
  ASSERT_GT(warm, 16'000u);

  const std::uint64_t before = allocs();
  sim.run_until(SimTime{kWarmUntilUs + 10'000 * kPeriodUs});
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(delivered - warm, 10'000u);
  EXPECT_EQ(during, 0u) << during << " allocations over "
                        << 3 * (delivered - warm) << " hops";
}

TEST(NetAlloc, DemuxingSinglePacketUnitsAllocatesAndReferencesNothing) {
  // Audio units of 150 bytes: eight whole units fill each packet's 1388
  // bytes of room (23 bytes of framing each), and none fragments.
  namespace asf = media::asf;
  asf::Header h;
  h.props.packet_bytes = 1400;
  h.streams.push_back(
      {2, media::MediaType::kAudio, "WMA", 64'000, 0, 0, 44'100});
  asf::Muxer mux(h);
  for (int i = 0; i < 400; ++i) {
    media::EncodedUnit u;
    u.stream_id = 2;
    u.type = media::MediaType::kAudio;
    u.pts = usec(20'000 * i);
    u.duration = usec(20'000);
    u.bytes = 150;
    u.keyframe = true;
    mux.add_unit(u);
  }
  const asf::File f = mux.finalize();
  std::vector<Payload> wire;
  for (const auto& p : f.packets) {
    ASSERT_GE(p.payloads.size(), 2u);
    for (const auto& pl : p.payloads) {
      ASSERT_EQ(pl.data.size(), pl.object_size);  // whole units only
    }
    wire.emplace_back(asf::serialize_packet(p));
  }

  asf::Demuxer demux(h);
  std::uint64_t units = 0;
  auto feed_all = [&] {
    for (const Payload& w : wire) {
      const long owners = w.owners();
      demux.feed(w);
      EXPECT_EQ(w.owners(), owners);  // the units borrow the packet
      while (auto u = demux.next_unit()) {
        EXPECT_EQ(w.owners(), owners);
        ++units;
      }
      EXPECT_EQ(w.owners(), owners);
    }
  };
  feed_all();  // warm: the demuxer's assembly and ready queue
  ASSERT_EQ(units, 400u);
  const std::uint64_t before = allocs();
  feed_all();
  const std::uint64_t during = allocs() - before;
  EXPECT_EQ(units, 800u);
  EXPECT_EQ(during, 0u) << during << " allocations over 400 units";
}

TEST(NetAlloc, InlineTimersAllocateNothingToScheduleAndFire) {
  Simulator sim;
  std::uint64_t sum = 0;
  // Each tick schedules (and fires) timers with 8- to 48-byte captures,
  // and schedules and cancels one more.
  std::array<std::uint64_t, 5> pad{1, 2, 3, 4, 5};
  static_assert(sizeof(pad) + sizeof(&sum) == Task::kInlineBytes);
  std::uint64_t scheduled = 0;
  Ticker ticker{sim, [&] {
                  sim.schedule_after(usec(5), [&sum] { ++sum; });
                  sim.schedule_after(usec(7), [&sum, pad] { sum += pad[3]; });
                  sim.cancel(sim.schedule_after(
                      usec(9), [&sum, pad] { sum += pad[0]; }));
                  scheduled += 3;
                }};
  ticker.arm();

  sim.run_until(SimTime{kWarmUntilUs});
  const std::uint64_t warm = scheduled;
  const std::uint64_t before = allocs();
  sim.run_until(SimTime{kWarmUntilUs + 3'334 * kPeriodUs});
  const std::uint64_t during = allocs() - before;
  EXPECT_GE(scheduled - warm, 10'000u);
  EXPECT_EQ(during, 0u) << during << " allocations over "
                        << scheduled - warm << " timers";
}

TEST(NetAlloc, RealTransportTimersAllocateNothingAfterWarmUp) {
  // The wall clock decides which wheel slots these timers visit, so unlike
  // the simulated tests no warm-up can visit all of them first: a cascaded
  // bucket's storage must serve whichever bucket fills next.
  RealTransport::Config cfg;
  cfg.rollup_window_us = 0;  // rollup snapshots allocate by design
  RealTransport rt(cfg);
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 5> pad{1, 2, 3, 4, 5};
  static_assert(sizeof(pad) + sizeof(&sum) == Task::kInlineBytes);
  std::uint64_t scheduled = 0;
  std::uint64_t stop_after = 0;
  // Each tick schedules (and fires) timers with 8- to 48-byte captures,
  // schedules and cancels more, and re-arms itself.
  struct RealTicker {
    RealTransport& rt;
    std::function<void()> tick;
    void arm() {
      rt.schedule_after(usec(200), [this] { tick(); });
    }
  } ticker{rt, {}};
  ticker.tick = [&] {
    for (int i = 0; i < 4; ++i) {
      rt.schedule_after(usec(5 * i), [&sum] { ++sum; });
      rt.schedule_after(usec(7 * i), [&sum, pad] { sum += pad[3]; });
      rt.cancel(rt.schedule_after(usec(9 * i),
                                  [&sum, pad] { sum += pad[0]; }));
    }
    scheduled += 12;
    if (scheduled >= stop_after) {
      rt.stop();
    } else {
      ticker.arm();
    }
  };

  // Warm up. First, 16 timers at each of 256 instants 257 us apart, all
  // pending at once: they reach every level-0 slot and fill more
  // upper-level buckets, each with more timers, than the ticker's pattern
  // ever does together, which stocks the wheel's spare storage. Then the
  // ticker runs for about 0.2 s (three laps of the wheel's level 1).
  const SimTime t0 = rt.now();
  for (int k = 1; k <= 256; ++k) {
    for (int j = 0; j < 16; ++j) rt.schedule_at(t0 + usec(257 * k), [] {});
  }
  rt.schedule_at(t0 + usec(257 * 257), [&] { rt.stop(); });
  rt.run();
  stop_after = 2'400;
  ticker.arm();
  rt.run();
  const std::uint64_t warm = scheduled;
  const std::uint64_t before = allocs();
  stop_after = warm + 10'008;
  ticker.arm();
  rt.run();
  const std::uint64_t during = allocs() - before;
  EXPECT_GE(scheduled - warm, 10'000u);
  EXPECT_EQ(during, 0u) << during << " allocations over "
                        << scheduled - warm << " timers";
}

TEST(NetAlloc, LoddHeaderIsOneWriterAllocationPlusItsPayload) {
  // The session engine's data header, written as it writes it.
  const std::uint64_t before = allocs();
  {
    ByteWriter w;
    w.reserve(streaming::proto::kDataHeaderBytes);
    w.u32(streaming::proto::kDataMagic);
    w.u64(0x1122334455667788ULL);
    w.u32(3);
    w.u64(99);
    w.u32(7);
    ASSERT_EQ(w.size(), 28u);
    const Payload header = std::move(w).take();
    EXPECT_EQ(header.size(), 28u);
  }
  EXPECT_LE(allocs() - before, 2u);
}

TEST(NetAlloc, WriterAppendsEachIntegerInOneStep) {
  // Unreserved, a field grows the buffer at most once, never byte by byte.
  ByteWriter w;
  const std::uint64_t before = allocs();
  w.u64(0x0102030405060708ULL);
  EXPECT_EQ(allocs() - before, 1u);
}

}  // namespace
}  // namespace lod::net
