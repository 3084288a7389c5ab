#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lod/media/asf.hpp"
#include "lod/streaming/player.hpp"

/// \file sessions.hpp
/// Session inputs generated from the workload seed, and what the benchmark
/// reads back out of each finished session.

namespace perfbench {

enum class Kind : std::uint8_t { kStraight, kInteractive, kFailover, kFloor };

enum class Action : std::uint8_t { kPause, kResume, kSeek };

/// A scripted interaction, at an offset from the session's arrival.
struct Interaction {
  std::int64_t after_us{0};
  Action action{Action::kPause};
  std::int64_t target_us{0};  ///< kSeek only
};

/// Everything one session does, fixed before the run starts.
struct SessionPlan {
  std::uint32_t index{0};
  Kind kind{Kind::kStraight};
  std::int64_t arrival_us{0};  ///< offset from run start (open loop)
  std::uint32_t lecture{0};
  bool direct_to_origin{false};  ///< straight sessions only
  std::vector<Interaction> script;
};

/// How plans are drawn.
struct PlanSpec {
  std::size_t sessions{100};
  double mix[4]{0.55, 0.20, 0.15, 0.10};  ///< straight/interactive/failover/floor
  std::int64_t arrival_window_us{10'000'000};
  std::size_t lectures{1};
  double zipf_s{0.0};  ///< lecture popularity exponent (0 = uniform)
  std::int64_t lecture_len_us{8'000'000};
  std::uint32_t interactions{3};
  /// The rest are pause/resume pairs. Kept away from 0.5: resumes and
  /// seeks resync at very different speeds, and an even split would put
  /// the interaction median on the boundary between the two.
  double seek_share{0.7};
  std::int64_t first_interaction_us{3'000'000};
  std::int64_t first_jitter_us{1'000'000};
  std::int64_t gap_us{800'000};
  std::int64_t gap_jitter_us{700'000};
  std::int64_t pause_len_us{400'000};
};

/// Seeded, deterministic plan list (index order).
std::vector<SessionPlan> make_plans(const PlanSpec& spec, std::uint64_t seed);

/// The presentation times of every media unit of a lecture (sorted): a
/// session whose script plays the span [from, to) must render the units
/// with pts in it.
struct LectureUnits {
  std::vector<std::int64_t> pts;
  std::size_t in_span(std::int64_t from_us, std::int64_t to_us) const;
};
LectureUnits lecture_units(const lod::media::asf::File& f);

/// What one session did, as the benchmark judges it.
struct Outcome {
  bool failed{false};  ///< never started, not finished, or < 90% rendered
  /// Startup delay; a session that never started waited until the run's
  /// end, which counts as its (censored) startup delay.
  std::int64_t startup_us{0};
  /// Render-log lag beyond media time (underruns and failover freezes).
  std::int64_t stall_us{0};
  std::int64_t watch_us{0};  ///< first to last render, pauses excluded
  /// Resume/seek resync latencies; unsatisfied ones censored at run end.
  std::vector<std::int64_t> interaction_us;
  std::uint64_t failovers{0};
  /// Units whose pts did not increase within an interaction-free segment
  /// of the render log (went backwards or rendered twice).
  std::uint64_t order_violations{0};
};

/// An interaction as the benchmark issued it, with the render-log size and
/// the playhead at that instant (a seek ends one played span of the
/// lecture and starts the next at its target).
struct Mark {
  std::size_t rendered{0};
  std::int64_t position_us{0};
  Action action{Action::kPause};
  std::int64_t target_us{0};
};

/// \p marks are the benchmark's interactions in issue order; \p open_us and
/// \p end_us bound the session in transport time.
Outcome judge(const lod::streaming::Player& p, const LectureUnits& lecture,
              const std::vector<Mark>& marks, std::int64_t open_us,
              std::int64_t end_us);

/// Session-level (end-to-end) figures over a set of outcomes.
struct SessionStats {
  std::size_t sessions{0};
  std::size_t failed{0};
  std::uint64_t order_violations{0};
  std::size_t misordered{0};  ///< sessions with any order violation
  double ok_frac{0.0};
  double startup_p50_ms{0.0};
  double startup_tail_ms{0.0};
  double startup_tail_pct{0.0};
  double interaction_p50_ms{0.0};
  double interaction_tail_ms{0.0};
  double interaction_tail_pct{0.0};
  std::size_t interactions{0};
  double rebuffer_ratio{0.0};
  double failovers_per_session{0.0};
};
SessionStats summarize(const std::vector<Outcome>& outcomes);

/// Median of \p v (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// The highest percentile with at least ten samples above it, and its
/// value: the 11th-largest sample (the largest if fewer than 11).
struct Tail {
  double value{0.0};
  double percentile{0.0};
};
Tail tail_of(std::vector<std::int64_t> v);

/// Peak resident set of this process, MB.
double peak_rss_mb();
/// CPU time of the calling thread / of the whole process, ns.
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

}  // namespace perfbench
