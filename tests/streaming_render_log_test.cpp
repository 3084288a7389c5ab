// The player's render history: every unit reads back exactly as it was
// appended, in 16 bytes per unit.

#include "lod/streaming/render_log.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "lod/net/rng.hpp"

namespace lod::streaming {
namespace {

static_assert(RenderLog::kRecordBytes == 16);

constexpr media::MediaType kAllTypes[] = {
    media::MediaType::kVideo, media::MediaType::kAudio,
    media::MediaType::kImage, media::MediaType::kText,
    media::MediaType::kAnnotation, media::MediaType::kScript};

RenderEvent event(media::MediaType type, std::uint16_t stream,
                  std::int64_t pts_us, std::int64_t true_us) {
  return RenderEvent{type, stream, net::SimDuration{pts_us},
                     net::SimTime{true_us}};
}

void expect_reads_back(const RenderLog& log,
                       const std::vector<RenderEvent>& want) {
  ASSERT_EQ(log.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(log[i], want[i]) << "unit " << i;
  }
}

TEST(RenderLog, RandomEventsReadBackExactly) {
  net::Rng rng(19);
  RenderLog log;
  std::vector<RenderEvent> want;
  for (int i = 0; i < 5000; ++i) {
    const auto type = kAllTypes[rng.uniform_int(0, 5)];
    const auto stream = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    // Negative pts happen (a seek before the first unit's pts, a skewed
    // clock); times span the whole 48-bit range.
    const std::int64_t pts =
        rng.uniform_int(RenderLog::kMinUs, RenderLog::kMaxUs);
    const std::int64_t now = i % 2 == 0 ? rng.uniform_int(-1'000'000, 1'000'000)
                                        : rng.uniform_int(RenderLog::kMinUs,
                                                          RenderLog::kMaxUs);
    want.push_back(event(type, stream, pts, now));
    log.push_back(want.back());
  }
  expect_reads_back(log, want);
}

TEST(RenderLog, BoundaryValuesAndEveryMediaTypeRoundTrip) {
  RenderLog log;
  std::vector<RenderEvent> want;
  for (const auto type : kAllTypes) {
    for (const std::uint16_t stream :
         {std::uint16_t{0}, std::uint16_t{65535}}) {
      for (const std::int64_t t :
           {RenderLog::kMaxUs, -RenderLog::kMaxUs, RenderLog::kMinUs,
            std::int64_t{0}, std::int64_t{-1}}) {
        // true_time mirrors pts inside the range, so a swapped word shows.
        want.push_back(event(type, stream, t, -1 - t));
        log.push_back(want.back());
      }
    }
  }
  expect_reads_back(log, want);
  EXPECT_EQ(RenderLog::kMaxUs, (std::int64_t{1} << 47) - 1);
}

TEST(RenderLog, OutOfRangeTimeThrowsAndLeavesLogUnchanged) {
  RenderLog log;
  const RenderEvent ok = event(media::MediaType::kAudio, 1, 10, 20);
  log.push_back(ok);
  const std::int64_t over = RenderLog::kMaxUs + 1;
  const std::int64_t under = RenderLog::kMinUs - 1;
  EXPECT_THROW(log.push_back(event(media::MediaType::kVideo, 0, over, 0)),
               std::out_of_range);
  EXPECT_THROW(log.push_back(event(media::MediaType::kVideo, 0, under, 0)),
               std::out_of_range);
  EXPECT_THROW(log.push_back(event(media::MediaType::kVideo, 0, 0, over)),
               std::out_of_range);
  EXPECT_THROW(log.push_back(event(media::MediaType::kVideo, 0, 0, under)),
               std::out_of_range);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.back(), ok);
}

TEST(RenderLog, EmptyLogHasNoUnits) {
  const RenderLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.begin() == log.end());
}

TEST(RenderLog, IndexFrontBackAndRangeForAgree) {
  RenderLog log;
  for (int i = 0; i < 100; ++i) {
    log.push_back(event(kAllTypes[i % 6], static_cast<std::uint16_t>(i),
                        i * 40'000 - 1'000'000, i * 40'123));
  }
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.front(), log[0]);
  EXPECT_EQ(log.back(), log[log.size() - 1]);
  std::size_t i = 0;
  for (const auto& e : log) {
    EXPECT_EQ(e, log[i]) << "unit " << i;
    ++i;
  }
  EXPECT_EQ(i, log.size());
  auto it = log.begin();
  EXPECT_EQ(*it++, log[0]);
  EXPECT_EQ(*it, log[1]);
}

}  // namespace
}  // namespace lod::streaming
