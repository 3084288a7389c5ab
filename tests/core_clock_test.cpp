#include "lod/core/presentation_clock.hpp"

#include <gtest/gtest.h>

namespace lod::core {
namespace {

using net::SimDuration;
using net::SimTime;
using net::usec;

TEST(PresentationClock, RateOneIsExact) {
  PresentationClock c;
  c.start(SimTime{1'000}, usec(500));
  for (const std::int64_t d : {0, 1, 7, 999'999, -3}) {
    EXPECT_EQ(c.media_at(SimTime{1'000 + d}), usec(500 + d));
    EXPECT_EQ(c.wall_at(usec(500 + d)), SimTime{1'000 + d});
  }
  EXPECT_EQ(c.wall_until(usec(800), SimTime{1'100}), usec(200));
}

// Readings truncate toward zero from the anchor; `wall_until` rounds up.
TEST(PresentationClock, DocumentedRoundingAtOneAndAHalfAndThreeQuarters) {
  PresentationClock c;
  c.set_rate(SimTime{0}, 1.5);
  c.start(SimTime{100}, usec(0));
  EXPECT_EQ(c.media_at(SimTime{101}), usec(1));   // 1.5
  EXPECT_EQ(c.media_at(SimTime{103}), usec(4));   // 4.5
  EXPECT_EQ(c.media_at(SimTime{97}), usec(-4));   // -4.5
  EXPECT_EQ(c.wall_at(usec(1)), SimTime{100});    // 0.67
  EXPECT_EQ(c.wall_at(usec(5)), SimTime{103});    // 3.33
  EXPECT_EQ(c.wall_until(usec(1), SimTime{100}), usec(1));  // 0.67
  EXPECT_EQ(c.wall_until(usec(5), SimTime{100}), usec(4));  // 3.33

  c.set_rate(SimTime{100}, 0.75);
  EXPECT_EQ(c.media_at(SimTime{101}), usec(0));   // 0.75
  EXPECT_EQ(c.media_at(SimTime{103}), usec(2));   // 2.25
  EXPECT_EQ(c.wall_at(usec(1)), SimTime{101});    // 1.33
  EXPECT_EQ(c.wall_at(usec(2)), SimTime{102});    // 2.67
  EXPECT_EQ(c.wall_until(usec(1), SimTime{100}), usec(2));   // 1.33
  EXPECT_EQ(c.wall_until(usec(-9), SimTime{100}), usec(0));  // passed
}

TEST(PresentationClock, PauseFreezesAndResumeKeepsThePosition) {
  PresentationClock c;
  c.start(SimTime{0}, usec(0));
  c.pause(c.media_at(SimTime{5'000}));
  EXPECT_TRUE(c.paused());
  EXPECT_EQ(c.media_at(SimTime{5'000}), usec(5'000));
  EXPECT_EQ(c.media_at(SimTime{60'000}), usec(5'000));
  c.seek(SimTime{61'000}, usec(9'000));  // a paused seek moves the freeze
  EXPECT_EQ(c.media_at(SimTime{62'000}), usec(9'000));
  c.resume(SimTime{70'000});
  EXPECT_FALSE(c.paused());
  EXPECT_EQ(c.media_at(SimTime{70'000}), usec(9'000));
  EXPECT_EQ(c.media_at(SimTime{71'000}), usec(10'000));
}

TEST(PresentationClock, SetRateReanchorsWithNoJump) {
  PresentationClock c;
  c.start(SimTime{0}, usec(0));
  c.set_rate(SimTime{1'001}, 1.5);
  EXPECT_EQ(c.anchor_wall(), SimTime{1'001});
  EXPECT_EQ(c.anchor_media(), usec(1'001));
  EXPECT_EQ(c.media_at(SimTime{1'001}), usec(1'001));
  EXPECT_EQ(c.media_at(SimTime{1'003}), usec(1'004));
  // Paused, only the speed changes: the anchor and the freeze stay.
  c.pause(usec(2'000));
  c.set_rate(SimTime{9'999}, 0.75);
  EXPECT_EQ(c.anchor_wall(), SimTime{1'001});
  EXPECT_EQ(c.media_at(SimTime{9'999}), usec(2'000));
  c.resume(SimTime{10'000});
  EXPECT_EQ(c.media_at(SimTime{10'004}), usec(2'003));
}

TEST(PresentationClock, StallShiftDelaysEveryLaterPosition) {
  PresentationClock c;
  c.set_rate(SimTime{0}, 1.5);
  c.start(SimTime{0}, usec(3'000));
  EXPECT_EQ(c.wall_at(usec(4'500)), SimTime{1'000});
  c.shift(usec(250));
  EXPECT_EQ(c.wall_at(usec(4'500)), SimTime{1'250});
  EXPECT_EQ(c.media_at(SimTime{1'250}), usec(4'500));
  EXPECT_EQ(c.anchor_media(), usec(3'000));
}

TEST(PresentationClock, FourFieldsRebuildTheSameClock) {
  PresentationClock c;
  c.start(SimTime{12'345}, usec(678));
  c.set_rate(SimTime{20'001}, 0.75);
  c.pause(c.media_at(SimTime{30'303}));
  c.resume(SimTime{40'000});
  const PresentationClock back(c.anchor_wall(), c.anchor_media(),
                               c.paused_at(), c.rate());
  EXPECT_EQ(back.anchor_wall(), c.anchor_wall());
  EXPECT_EQ(back.anchor_media(), c.anchor_media());
  EXPECT_EQ(back.paused_at(), c.paused_at());
  EXPECT_EQ(back.rate(), c.rate());
  for (std::int64_t t = 39'990; t < 40'020; ++t) {
    EXPECT_EQ(back.media_at(SimTime{t}), c.media_at(SimTime{t}));
    EXPECT_EQ(back.wall_at(usec(t)), c.wall_at(usec(t)));
  }
}

}  // namespace
}  // namespace lod::core
