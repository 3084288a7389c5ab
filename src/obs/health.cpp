#include "lod/obs/health.hpp"

#include <charconv>
#include <cmath>
#include <utility>

namespace lod::obs {

namespace {
std::uint64_t actor_of(const std::string& site) {
  std::uint64_t v = 0;
  const auto [p, ec] =
      std::from_chars(site.data(), site.data() + site.size(), v);
  return ec == std::errc{} && p == site.data() + site.size() ? v : 0;
}
}  // namespace

HealthMonitor::HealthMonitor(Hub& hub)
    : hub_(hub), alive_(std::make_shared<bool>(true)) {}

HealthMonitor::~HealthMonitor() { *alive_ = false; }

void HealthMonitor::add_rule(SloRule rule) {
  SloStatus st;
  st.rule = rule.name;
  st.site = rule.site;
  st.threshold = rule.threshold;
  statuses_.push_back(std::move(st));
  // Resolve the rule's violation counter once here, not per crossing.
  violation_counters_.push_back(
      hub_.metrics().counter("lod.health.violations", {{"rule", rule.name}}));
  rules_.push_back(std::move(rule));
}

std::size_t HealthMonitor::evaluate() {
  const Snapshot snap = hub_.metrics().snapshot();
  const TimeUs now = hub_.now_us();
  std::size_t violated = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    SloStatus& st = statuses_[i];
    st.last_eval = now;
    const std::optional<double> v = rule.value ? rule.value(snap, now)
                                               : std::nullopt;
    if (!v) {
      // No signal: the rule holds its previous verdict (a site that went
      // quiet stays demoted until evidence says otherwise).
      if (!st.healthy) ++violated;
      continue;
    }
    st.evaluated = true;
    st.value = *v;
    const bool bad = rule.direction == SloDirection::kAboveIsBad
                         ? *v > rule.threshold
                         : *v < rule.threshold;
    if (bad) ++violated;
    if (bad && st.healthy) {
      // Transition into violation: one journaled crossing (detail = the
      // rule) + one counted violation per crossing, not per evaluation, so
      // a persistent breach does not flood the journal. Then ship the last
      // N seconds of history with it: trigger a flight dump (a no-op beyond
      // the marker when no dump sink is installed).
      violation_counters_[i].inc();
      hub_.flight().record_at(
          now, FlightType::kSloViolation,
          static_cast<std::uint32_t>(actor_of(rule.site)),
          std::llround(*v * 1000.0), std::llround(rule.threshold * 1000.0),
          FlightRecorder::kLaneControl, rule.name);
      hub_.flight().trigger_dump("slo." + rule.name);
    }
    st.healthy = !bad;
  }
  return violated;
}

void HealthMonitor::start_periodic(Scheduler sched, TimeUs period_us) {
  sched_ = std::move(sched);
  period_us_ = period_us > 0 ? period_us : 1;
  tick();
}

void HealthMonitor::stop_periodic() { sched_ = nullptr; }

void HealthMonitor::tick() {
  if (!sched_) return;
  sched_(period_us_, [this, alive = alive_] {
    if (!*alive) return;
    evaluate();
    tick();
  });
}

HealthSummary HealthMonitor::health() const {
  HealthSummary out;
  out.rules = rules_.size();
  out.statuses = statuses_;
  for (const SloStatus& st : statuses_) {
    if (!st.healthy) ++out.violated;
  }
  out.healthy = out.violated == 0;
  return out;
}

bool HealthMonitor::healthy() const {
  for (const SloStatus& st : statuses_) {
    if (!st.healthy) return false;
  }
  return true;
}

bool HealthMonitor::site_healthy(std::string_view site) const {
  for (const SloStatus& st : statuses_) {
    if (!st.healthy && !st.site.empty() && st.site == site) return false;
  }
  return true;
}

// --- canned rules -----------------------------------------------------------

SloRule slo_startup_p95(TimeUs max_us, std::uint64_t min_samples) {
  SloRule r;
  r.name = "startup_p95_us";
  r.threshold = static_cast<double>(max_us);
  r.direction = SloDirection::kAboveIsBad;
  r.value = [min_samples](const Snapshot& snap,
                          TimeUs) -> std::optional<double> {
    const HistogramData h = snap.merged_histogram("lod.player.startup_us");
    if (h.count < min_samples) return std::nullopt;
    return static_cast<double>(h.quantile_bound(0.95));
  };
  return r;
}

SloRule slo_stall_ratio(double max_ratio, std::uint64_t min_rendered) {
  SloRule r;
  r.name = "stall_ratio";
  r.threshold = max_ratio;
  r.direction = SloDirection::kAboveIsBad;
  r.value = [min_rendered](const Snapshot& snap,
                           TimeUs) -> std::optional<double> {
    const std::uint64_t rendered = snap.total("lod.player.units_rendered");
    if (rendered < min_rendered) return std::nullopt;
    return static_cast<double>(snap.total("lod.player.stalls")) /
           static_cast<double>(rendered);
  };
  return r;
}

SloRule slo_edge_cache_hit_rate(std::string site, double min_rate,
                                std::uint64_t min_lookups) {
  SloRule r;
  r.name = "edge_cache_hit_rate";
  r.site = site;
  r.threshold = min_rate;
  r.direction = SloDirection::kBelowIsBad;
  r.value = [site = std::move(site), min_lookups](
                const Snapshot& snap, TimeUs) -> std::optional<double> {
    const Labels at{{"host", site}};
    const std::uint64_t hits = snap.counter("lod.edge.cache.hits", at);
    const std::uint64_t misses = snap.counter("lod.edge.cache.misses", at);
    if (hits + misses < min_lookups) return std::nullopt;
    return static_cast<double>(hits) / static_cast<double>(hits + misses);
  };
  return r;
}

SloRule slo_failover_count(std::uint64_t max_failovers) {
  SloRule r;
  r.name = "failover_count";
  r.threshold = static_cast<double>(max_failovers);
  r.direction = SloDirection::kAboveIsBad;
  r.value = [](const Snapshot& snap, TimeUs) -> std::optional<double> {
    return static_cast<double>(snap.total("lod.player.failovers"));
  };
  return r;
}

SloRule slo_replica_staleness(std::string site, TimeUs max_age_us) {
  SloRule r;
  r.name = "replica_estimate_staleness_us";
  r.site = site;
  r.threshold = static_cast<double>(max_age_us);
  r.direction = SloDirection::kAboveIsBad;
  r.value = [site = std::move(site)](const Snapshot& snap,
                                     TimeUs now) -> std::optional<double> {
    // Any client's selector refreshing the site counts; take the freshest.
    std::optional<TimeUs> latest;
    for (const auto& [key, e] : snap.entries()) {
      if (e.name != "lod.edge.selector.last_observation_us") continue;
      bool match = false;
      for (const Label& l : e.labels) {
        if (l.first == "site" && l.second == site) match = true;
      }
      if (!match) continue;
      if (!latest || e.gauge > *latest) latest = e.gauge;
    }
    if (!latest) return std::nullopt;
    return static_cast<double>(now - *latest);
  };
  return r;
}

}  // namespace lod::obs
