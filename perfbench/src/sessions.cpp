#include "sessions.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <limits>
#include <optional>

#include "lod/net/rng.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kPlanSalt = 0x706c616e73ULL;

// A session that renders less than this share of what its script plays
// counts as failed.
constexpr double kRenderedFloor = 0.9;

// Share of straight sessions opened at the origin rather than the edge.
constexpr double kOriginShare = 0.15;

// Seeks land at least this far (or a quarter of the lecture) before the end.
constexpr std::int64_t kSeekEndMarginUs = 5'000'000;

// Render lateness below this is timer jitter, not a stall.
constexpr std::int64_t kStallFloorUs = 20'000;

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

template <typename T>
void shuffle(std::vector<T>& v, lod::net::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace

std::vector<SessionPlan> make_plans(const PlanSpec& spec, std::uint64_t seed) {
  lod::net::Rng rng(seed ^ kPlanSalt);
  double total = 0.0;
  for (double w : spec.mix) total += w;
  std::vector<double> popularity(std::max<std::size_t>(spec.lectures, 1));
  double pop_total = 0.0;
  for (std::size_t k = 0; k < popularity.size(); ++k) {
    popularity[k] = 1.0 / std::pow(static_cast<double>(k + 1), spec.zipf_s);
    pop_total += popularity[k];
  }
  // Seek targets stop short of the end: a seek to the last frames would
  // finish the session before anything renders, and the handful of such
  // seeks per run would decide the interaction tail.
  const std::int64_t seek_span = std::max<std::int64_t>(
      spec.lecture_len_us -
          std::min<std::int64_t>(kSeekEndMarginUs, spec.lecture_len_us / 4),
      1);

  // The mix is exact, only its order is drawn: a run's kind counts do not
  // vary with the seed.
  std::vector<Kind> kinds;
  kinds.reserve(spec.sessions);
  double assigned = 0.0;
  for (int k = 0; k < 4; ++k) {
    assigned += spec.mix[k] / total;
    const auto upto = static_cast<std::size_t>(
        std::llround(assigned * static_cast<double>(spec.sessions)));
    while (kinds.size() < std::min(upto, spec.sessions)) {
      kinds.push_back(static_cast<Kind>(k));
    }
  }
  while (kinds.size() < spec.sessions) kinds.push_back(Kind::kStraight);
  shuffle(kinds, rng);
  // Likewise the seek share over all scripted interactions.
  const auto slots = static_cast<std::size_t>(
      std::count(kinds.begin(), kinds.end(), Kind::kInteractive) *
      spec.interactions);
  const auto seeks = static_cast<std::size_t>(
      std::llround(spec.seek_share * static_cast<double>(slots)));
  std::vector<std::uint8_t> is_seek(slots, 0);
  std::fill_n(is_seek.begin(), std::min(seeks, slots), 1);
  shuffle(is_seek, rng);
  std::size_t slot = 0;
  // Seek targets are stratified, one in each equal slice of the seekable
  // span, and dealt in a drawn order: the interaction median sits where
  // the latencies are sparse, and plain uniform draws moved it by ~10%
  // from seed to seed.
  std::vector<std::int64_t> targets(std::min(seeks, slots));
  const auto strata = static_cast<std::int64_t>(targets.size());
  for (std::int64_t k = 0; k < strata; ++k) {
    const std::int64_t lo = seek_span * k / strata;
    const std::int64_t hi = seek_span * (k + 1) / strata;
    targets[static_cast<std::size_t>(k)] =
        rng.uniform_int(lo, std::max(lo, hi - 1));
  }
  shuffle(targets, rng);
  std::size_t next_target = 0;

  std::vector<SessionPlan> plans(spec.sessions);
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    SessionPlan& p = plans[i];
    p.index = static_cast<std::uint32_t>(i);
    p.kind = kinds[i];
    p.arrival_us = rng.uniform_int(0, std::max<std::int64_t>(
                                          spec.arrival_window_us - 1, 0));
    double v = rng.uniform01() * pop_total;
    p.lecture = static_cast<std::uint32_t>(popularity.size() - 1);
    for (std::size_t k = 0; k < popularity.size(); ++k) {
      if (v < popularity[k]) {
        p.lecture = static_cast<std::uint32_t>(k);
        break;
      }
      v -= popularity[k];
    }
    p.direct_to_origin = rng.bernoulli(kOriginShare);
    if (p.kind != Kind::kInteractive) continue;
    std::int64_t at =
        spec.first_interaction_us + rng.uniform_int(0, spec.first_jitter_us);
    for (std::uint32_t k = 0; k < spec.interactions; ++k) {
      if (is_seek[slot++]) {
        p.script.push_back({at, Action::kSeek, targets[next_target++]});
      } else {
        p.script.push_back({at, Action::kPause, 0});
        p.script.push_back({at + spec.pause_len_us, Action::kResume, 0});
      }
      at += spec.gap_us + rng.uniform_int(0, spec.gap_jitter_us);
    }
  }
  return plans;
}

std::size_t LectureUnits::in_span(std::int64_t from_us,
                                  std::int64_t to_us) const {
  if (to_us <= from_us) return 0;
  return static_cast<std::size_t>(
      std::lower_bound(pts.begin(), pts.end(), to_us) -
      std::lower_bound(pts.begin(), pts.end(), from_us));
}

LectureUnits lecture_units(const lod::media::asf::File& f) {
  LectureUnits u;
  for (const auto& pkt : f.packets) {
    for (const auto& pl : pkt.payloads) {
      if (pl.offset == 0 && pl.type != lod::media::MediaType::kScript) {
        u.pts.push_back(pl.pts.us);
      }
    }
  }
  std::sort(u.pts.begin(), u.pts.end());
  return u;
}

Outcome judge(const lod::streaming::Player& p, const LectureUnits& lecture,
              const std::vector<Mark>& marks, std::int64_t open_us,
              std::int64_t end_us) {
  using lod::streaming::InteractionRecord;
  Outcome o;
  const bool started = p.startup_delay().us >= 0;
  o.startup_us = started ? p.startup_delay().us : end_us - open_us;
  o.failovers = p.failovers();

  const auto& log = p.rendered();
  // Render-log order: within each interaction-free segment every stream's
  // pts must strictly increase.
  std::size_t next_mark = 0;
  std::vector<std::pair<std::uint16_t, std::int64_t>> last;  // stream -> pts
  for (std::size_t i = 0; i < log.size(); ++i) {
    while (next_mark < marks.size() && marks[next_mark].rendered <= i) {
      last.clear();
      ++next_mark;
    }
    const auto& ev = log[i];
    auto it = std::find_if(last.begin(), last.end(),
                           [&](const auto& e) { return e.first == ev.stream_id; });
    if (it == last.end()) {
      last.emplace_back(ev.stream_id, ev.pts.us);
    } else {
      if (ev.pts.us <= it->second) o.order_violations++;
      it->second = std::max(it->second, ev.pts.us);
    }
  }

  // What the script plays: from the start to the first seek, from each
  // seek's target to the playhead at the next seek, and from the last
  // target to the end. Count the renders inside each span.
  std::size_t required = 0;
  std::size_t rendered_in_spans = 0;
  auto close_span = [&](std::int64_t from, std::int64_t to, std::size_t first,
                        std::size_t last) {
    required += lecture.in_span(from, to);
    for (std::size_t i = first; i < std::min(last, log.size()); ++i) {
      if (log[i].pts.us >= from && log[i].pts.us < to) rendered_in_spans++;
    }
  };
  std::int64_t span_from = 0;
  std::size_t span_first = 0;
  for (const Mark& m : marks) {
    if (m.action != Action::kSeek) continue;
    close_span(span_from, m.position_us, span_first, m.rendered);
    span_from = m.target_us;
    span_first = m.rendered;
  }
  close_span(span_from, std::numeric_limits<std::int64_t>::max(), span_first,
             log.size());
  std::int64_t paused_us = 0;
  std::optional<std::int64_t> paused_at;
  for (const InteractionRecord& r : p.interactions()) {
    if (r.kind == InteractionRecord::Kind::kPause) paused_at = r.at.us;
    if (r.kind == InteractionRecord::Kind::kResume && paused_at) {
      paused_us += r.at.us - *paused_at;
      paused_at.reset();
    }
    if (r.kind == InteractionRecord::Kind::kResume ||
        r.kind == InteractionRecord::Kind::kSeek) {
      o.interaction_us.push_back(r.satisfied ? r.resync_latency().us
                                             : end_us - r.at.us);

    }
  }
  const double rendered_frac =
      required == 0 ? 1.0
                    : static_cast<double>(rendered_in_spans) /
                          static_cast<double>(required);
  o.failed = !started || !p.finished() || rendered_frac < kRenderedFloor;

  // Stall time from the render log: within a segment, wall time that
  // passed beyond the media time between two consecutive renders. Unlike
  // the player's own stall records this also counts the freeze while a
  // session fails over to another site.
  std::size_t mark = 0;
  for (std::size_t i = 1; i < log.size(); ++i) {
    while (mark < marks.size() && marks[mark].rendered < i) ++mark;
    if (mark < marks.size() && marks[mark].rendered == i) continue;
    const std::int64_t lag = (log[i].true_time.us - log[i - 1].true_time.us) -
                             (log[i].pts.us - log[i - 1].pts.us);
    if (lag > kStallFloorUs) o.stall_us += lag;
  }
  if (!log.empty()) {
    o.watch_us = std::max<std::int64_t>(
        log.back().true_time.us - log.front().true_time.us - paused_us, 0);
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<std::int64_t> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t beyond = std::min<std::size_t>(10, n - 1);
  t.value = static_cast<double>(v[n - 1 - beyond]);
  t.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return t;
}

SessionStats summarize(const std::vector<Outcome>& outcomes) {
  SessionStats s;
  s.sessions = outcomes.size();
  std::vector<std::int64_t> startup;
  std::vector<std::int64_t> interaction;
  std::int64_t stall = 0;
  std::int64_t watch = 0;
  std::uint64_t failovers = 0;
  for (const Outcome& o : outcomes) {
    if (o.failed) s.failed++;
    s.order_violations += o.order_violations;
    if (o.order_violations > 0) s.misordered++;
    startup.push_back(o.startup_us);
    interaction.insert(interaction.end(), o.interaction_us.begin(),
                       o.interaction_us.end());
    stall += o.stall_us;
    watch += o.watch_us;
    failovers += o.failovers;
  }
  if (s.sessions == 0) return s;
  const double n = static_cast<double>(s.sessions);
  s.ok_frac = 1.0 - static_cast<double>(s.failed) / n;
  auto ms = [](std::int64_t us) { return static_cast<double>(us) / 1000.0; };
  auto p50 = [](std::vector<std::int64_t> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? std::int64_t{0} : v[(v.size() - 1) / 2];
  };
  s.startup_p50_ms = ms(p50(startup));
  const Tail st = tail_of(startup);
  s.startup_tail_ms = st.value / 1000.0;
  s.startup_tail_pct = st.percentile;
  s.interactions = interaction.size();
  s.interaction_p50_ms = ms(p50(interaction));
  const Tail it = tail_of(interaction);
  s.interaction_tail_ms = it.value / 1000.0;
  s.interaction_tail_pct = it.percentile;
  s.rebuffer_ratio =
      watch > 0 ? static_cast<double>(stall) / static_cast<double>(watch) : 0.0;
  s.failovers_per_session = static_cast<double>(failovers) / n;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace perfbench
