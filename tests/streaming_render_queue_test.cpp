// The player's jitter buffer: units come out in (pts, arrival) order however
// they arrive, exactly as the std::multimap it replaced ordered them.

#include "lod/streaming/render_queue.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "lod/net/rng.hpp"

namespace lod::streaming {
namespace {

QueuedUnit unit(std::int64_t pts_us, std::uint16_t tag) {
  // The stream id doubles as an arrival tag, to check equal-pts order.
  return QueuedUnit{net::SimDuration{pts_us}, tag, media::MediaType::kVideo};
}

std::vector<std::uint16_t> drain(RenderQueue& q) {
  std::vector<std::uint16_t> out;
  while (!q.empty()) {
    out.push_back(q.front().stream_id);
    q.pop_front();
  }
  return out;
}

TEST(RenderQueue, OutOfOrderAndEqualPtsRenderInPtsThenArrivalOrder) {
  RenderQueue q;
  q.push(unit(100, 0));
  q.push(unit(300, 1));
  q.push(unit(200, 2));  // straggler
  q.push(unit(300, 3));  // equal pts: after tag 1
  q.push(unit(100, 4));  // straggler with equal pts: after tag 0
  q.push(unit(50, 5));   // earlier than everything
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.front().pts.us, 50);
  EXPECT_EQ(q.back().pts.us, 300);
  EXPECT_EQ(drain(q), (std::vector<std::uint16_t>{5, 0, 4, 2, 1, 3}));
}

TEST(RenderQueue, MatchesAMultimapUnderInterleavedPushAndPop) {
  net::Rng rng(7);
  RenderQueue q;
  std::multimap<std::int64_t, std::uint16_t> ref;
  std::int64_t clock = 0;
  for (std::uint16_t tag = 0; tag < 5000; ++tag) {
    // Mostly in order, some stragglers and repeats, like a jittery stream.
    clock += rng.uniform_int(0, 3);
    const std::int64_t pts =
        rng.bernoulli(0.1) ? clock - rng.uniform_int(0, 20) : clock;
    q.push(unit(pts, tag));
    ref.emplace(pts, tag);
    const auto pops = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < pops && !ref.empty(); ++i) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.front().pts.us, ref.begin()->first);
      EXPECT_EQ(q.front().stream_id, ref.begin()->second);
      EXPECT_EQ(q.back().pts.us, ref.rbegin()->first);
      q.pop_front();
      ref.erase(ref.begin());
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  std::vector<std::uint16_t> want;
  for (const auto& [pts, tag] : ref) want.push_back(tag);
  EXPECT_EQ(drain(q), want);
}

TEST(RenderQueue, ClearEmptiesAndQueueIsReusable) {
  RenderQueue q;
  for (int i = 0; i < 100; ++i) q.push(unit(i, static_cast<std::uint16_t>(i)));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push(unit(10, 1));
  q.push(unit(5, 2));
  EXPECT_EQ(drain(q), (std::vector<std::uint16_t>{2, 1}));
}

}  // namespace
}  // namespace lod::streaming
