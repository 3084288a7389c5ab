// The player's render history: every unit reads back exactly as it was
// appended, in a few bytes per unit.
//
// This binary replaces the global operator new/delete with counting
// versions (live heap bytes via malloc_usable_size), so it must stay an
// executable of its own.

#include "lod/streaming/render_log.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lod/net/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (p != nullptr) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}
void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted(std::malloc(n == 0 ? 1 : n))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(std::malloc(n == 0 ? 1 : n));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }

namespace lod::streaming {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

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


/// Appends \p ev to both the log and the expectation.
void append(RenderLog& log, std::vector<RenderEvent>& want,
            const RenderEvent& ev) {
  log.push_back(ev);
  want.push_back(ev);
}

/// A lecture's render stream: 25 fps video (stream 1) and 44.1 kHz audio in
/// 1024-sample frames (stream 2) interleaved in pts order, rendered at
/// `base + (pts - from)` plus 0-2 µs of timer jitter, from pts \p from_us
/// up to \p to_us.
std::int64_t play(RenderLog& log, std::vector<RenderEvent>& want, net::Rng& rng,
                  std::int64_t from_us, std::int64_t to_us,
                  std::int64_t base_us) {
  std::int64_t v = (from_us + 39'999) / 40'000;
  std::int64_t a = (from_us * 44'100 / 1'000'000 + 1023) / 1024;
  const auto audio_pts = [](std::int64_t k) {
    return k * 1024 * 1'000'000 / 44'100;
  };
  std::int64_t last = base_us;
  while (true) {
    const std::int64_t vp = v * 40'000;
    const std::int64_t ap = audio_pts(a);
    const bool video = vp <= ap;
    const std::int64_t pts = video ? vp : ap;
    if (pts >= to_us) return last;
    last = base_us + (pts - from_us) + rng.uniform_int(0, 2);
    append(log, want,
           event(video ? media::MediaType::kVideo : media::MediaType::kAudio,
                 video ? 1 : 2, pts, last));
    (video ? v : a)++;
  }
}

TEST(RenderLog, RoundTripsAcrossChunkBoundaries) {
  RenderLog log;
  std::vector<RenderEvent> want;
  for (std::size_t i = 0; i < 5 * RenderLog::kChunkRecords + 7; ++i) {
    const auto n = static_cast<std::int64_t>(i);
    append(log, want,
           event(kAllTypes[i % 3], static_cast<std::uint16_t>(i % 3),
                 n * 33'367 + (i % 5 == 0 ? 1 : 0), 5'000'000 + n * 33'400));
    // Each length reads back whole: the first, last and just-closed chunk.
    ASSERT_EQ(log.back(), want.back()) << "unit " << i;
    ASSERT_EQ(log[i], want[i]) << "unit " << i;
    ASSERT_EQ(log.front(), want.front());
  }
  expect_reads_back(log, want);
  std::size_t i = 0;
  for (const auto& e : log) EXPECT_EQ(e, want[i++]) << "unit " << i - 1;
  EXPECT_EQ(i, want.size());
}

TEST(RenderLog, SeekBackwardsAndLongPauseRoundTrip) {
  net::Rng rng(23);
  RenderLog log;
  std::vector<RenderEvent> want;
  std::int64_t t = play(log, want, rng, 0, 10'000'000, 1'000);
  // Seek back to 2 s: pts jumps backwards, the wall clock goes on.
  t = play(log, want, rng, 2'000'000, 4'000'000, t + 150'000);
  // Pause for ~2.3 hours (more than 2^32 µs), then resume.
  const std::int64_t gap = (std::int64_t{1} << 32) + 12'345;
  t = play(log, want, rng, 4'000'000, 6'000'000, t + gap);
  // Seek forward past the end of the first pass, and far back to 0.
  t = play(log, want, rng, 50'000'000, 51'000'000, t + 80'000);
  play(log, want, rng, 0, 1'000'000, t + 80'000);
  expect_reads_back(log, want);
}

TEST(RenderLog, InterleavedStreamsOfEveryMediaTypeRoundTrip) {
  RenderLog log;
  std::vector<RenderEvent> want;
  // 4 streams x 6 types: more (stream, type) pairs than a chunk has slots.
  const std::uint16_t streams[] = {0, 1, 2, 65535};
  std::int64_t pts[4][6] = {};
  for (int round = 0; round < 20; ++round) {
    for (int s = 0; s < 4; ++s) {
      for (int k = 0; k < 6; ++k) {
        if ((round + s + k) % 3 == 0) continue;  // uneven interleaving
        pts[s][k] += 20'000 + 1'000 * s + k;
        append(log, want,
               event(kAllTypes[k], streams[s], pts[s][k],
                     pts[s][k] + 3'000'000 - s));
      }
    }
  }
  expect_reads_back(log, want);
}

TEST(RenderLog, OutOfRangeThrowMidChunkLeavesLogIntact) {
  net::Rng rng(29);
  RenderLog log;
  std::vector<RenderEvent> want;
  play(log, want, rng, 0, 1'100'000, 0);
  ASSERT_NE(want.size() % RenderLog::kChunkRecords, 0u);
  const RenderEvent last = log.back();
  EXPECT_THROW(log.push_back(event(media::MediaType::kVideo, 1,
                                   RenderLog::kMaxUs + 1, 0)),
               std::out_of_range);
  EXPECT_THROW(log.push_back(event(media::MediaType::kAudio, 2, 0,
                                   RenderLog::kMinUs - 1)),
               std::out_of_range);
  EXPECT_EQ(log.size(), want.size());
  EXPECT_EQ(log.back(), last);
  // Appending goes on from the same encoder state.
  play(log, want, rng, 1'100'000, 3'000'000, 1'100'000);
  expect_reads_back(log, want);
}

TEST(RenderLog, IndexAtRandomPositionsEqualsIteration) {
  net::Rng rng(31);
  RenderLog log;
  std::vector<RenderEvent> want;
  std::int64_t t = play(log, want, rng, 0, 20'000'000, 0);
  play(log, want, rng, 5'000'000, 9'000'000, t + 40'000);
  std::vector<RenderEvent> walked;
  for (auto it = log.begin(); it != log.end(); ++it) walked.push_back(*it);
  ASSERT_EQ(walked, want);
  for (int k = 0; k < 2000; ++k) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(log.size()) - 1));
    EXPECT_EQ(log[i], walked[i]) << "unit " << i;
  }
}

TEST(RenderLog, InOrderIndexReadsOfSeveralLogsDoNotMix) {
  net::Rng rng(43);
  RenderLog a;
  RenderLog b;
  std::vector<RenderEvent> want_a;
  std::vector<RenderEvent> want_b;
  play(a, want_a, rng, 0, 4'000'000, 0);
  play(b, want_b, rng, 1'000'000, 5'000'000, 7'000);
  // Alternate in-order reads of two logs, appending to one between reads.
  for (std::size_t i = 0; i < want_a.size(); ++i) {
    ASSERT_EQ(a[i], want_a[i]) << "unit " << i;
    ASSERT_EQ(b[i], want_b[i]) << "unit " << i;
    if (i % 50 == 0) {
      append(b, want_b,
             event(media::MediaType::kScript, 3,
                   static_cast<std::int64_t>(i), 9'000'000));
    }
  }
  // A moved log reads the same; a log built at the same address reads its
  // own units.
  RenderLog moved(std::move(a));
  EXPECT_EQ(moved[5], want_a[5]);
  a = RenderLog{};
  std::vector<RenderEvent> want_new;
  append(a, want_new, event(media::MediaType::kImage, 4, 123, 456));
  EXPECT_EQ(a[0], want_new[0]);
  EXPECT_EQ(moved[6], want_a[6]);
  expect_reads_back(b, want_b);
}

TEST(RenderLog, CopyAndMoveKeepEveryUnit) {
  net::Rng rng(37);
  RenderLog log;
  std::vector<RenderEvent> want;
  play(log, want, rng, 0, 3'000'000, 0);
  RenderLog copy(log);
  expect_reads_back(copy, want);
  RenderLog moved(std::move(log));
  expect_reads_back(moved, want);
  EXPECT_TRUE(log.empty());  // NOLINT(bugprone-use-after-move): documented
  copy.push_back(event(media::MediaType::kText, 9, 1, 2));
  EXPECT_EQ(moved.size(), want.size());
  log = copy;
  want.push_back(copy.back());
  expect_reads_back(log, want);
}

/// A 90-second lecture with two seeks and a pause, measured as live heap
/// bytes (blocks, chunk index and block table, malloc's rounding included).
TEST(RenderLog, NinetySecondLectureCostsAtMostThreeAndAHalfBytesPerUnit) {
  net::Rng rng(41);
  std::vector<RenderEvent> want;
  want.reserve(8'000);
  RenderLog scratch;
  std::int64_t t = play(scratch, want, rng, 0, 30'000'000, 0);
  t = play(scratch, want, rng, 10'000'000, 40'000'000, t + 120'000);
  t = play(scratch, want, rng, 40'000'000, 55'000'000, t + 60'000'000);
  play(scratch, want, rng, 70'000'000, 85'000'000, t + 90'000);

  const std::int64_t before = live_bytes();
  RenderLog log;
  for (const auto& ev : want) log.push_back(ev);
  const std::int64_t bytes = live_bytes() - before;
  const double per_unit =
      static_cast<double>(bytes) / static_cast<double>(log.size());
  EXPECT_LE(per_unit, 3.5) << bytes << " bytes for " << log.size() << " units";
  EXPECT_GT(log.size(), 6'000u);
  expect_reads_back(log, want);
}

TEST(RenderLog, DefaultConstructedLogAllocatesNothing) {
  const std::uint64_t before = allocs();
  {
    RenderLog log;
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(log.begin() == log.end());
    RenderLog moved(std::move(log));
    EXPECT_TRUE(moved.empty());
  }
  EXPECT_EQ(allocs() - before, 0u);
}

}  // namespace
}  // namespace lod::streaming
