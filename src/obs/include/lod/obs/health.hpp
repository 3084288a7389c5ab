#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lod/obs/hub.hpp"

/// \file health.hpp
/// The SLO health monitor: registered rules evaluated against periodic
/// registry snapshots on the simulated clock. A rule maps a snapshot to a
/// scalar (startup p95, stall ratio, cache hit rate, ...) and a threshold;
/// crossing it flips the rule unhealthy, journals one `kSloViolation`
/// naming the rule, triggers a flight dump, and bumps
/// `lod.health.violations{rule}`. `site_healthy()`
/// is the control-signal side: the edge `ReplicaSelector` consults it to
/// demote sites whose SLOs are violated, so telemetry feeds back into
/// placement.
///
/// `lod_obs` sits below `lod_net`, so the monitor does not know the
/// simulator: periodic evaluation is driven through an injected scheduler
/// callback (`Simulator::schedule_after` fits the shape).

namespace lod::obs {

/// Which side of the threshold violates the SLO.
enum class SloDirection : std::uint8_t {
  kAboveIsBad,  ///< violation when value > threshold (stalls, failovers)
  kBelowIsBad,  ///< violation when value < threshold (hit rate)
};

/// One SLO. `value` returns std::nullopt when the rule has no signal yet
/// (e.g. too few samples) — an unevaluable rule is healthy.
struct SloRule {
  std::string name;
  std::string site;  ///< site/host label this rule guards; "" = global
  double threshold{0};
  SloDirection direction{SloDirection::kAboveIsBad};
  std::function<std::optional<double>(const Snapshot&, TimeUs now)> value;
};

/// Last evaluation result for one rule.
struct SloStatus {
  std::string rule;
  std::string site;
  bool healthy{true};
  bool evaluated{false};  ///< value() produced a signal at least once
  double value{0};
  double threshold{0};
  TimeUs last_eval{0};
};

/// Aggregate summary returned by health().
struct HealthSummary {
  bool healthy{true};
  std::size_t rules{0};
  std::size_t violated{0};
  std::vector<SloStatus> statuses;
};

class HealthMonitor {
 public:
  /// (delay_us, fn): run fn after delay_us of simulated time.
  using Scheduler = std::function<void(TimeUs, std::function<void()>)>;

  explicit HealthMonitor(Hub& hub);
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void add_rule(SloRule rule);
  std::size_t rule_count() const { return rules_.size(); }

  /// Evaluate every rule against a fresh snapshot now. Transitions into
  /// violation emit kSloViolation (actor = numeric site when the site label
  /// parses, a = value*1000, b = threshold*1000, detail = rule name) and
  /// increment lod.health.violations{rule}. Returns the number of rules
  /// currently in violation.
  std::size_t evaluate();

  /// Start periodic evaluation every \p period_us via \p sched. Safe to
  /// destroy the monitor with evaluations still queued.
  void start_periodic(Scheduler sched, TimeUs period_us);
  void stop_periodic();

  HealthSummary health() const;
  bool healthy() const;
  /// False when any rule guarding \p site is currently violated. Rules with
  /// an empty site never demote a specific site.
  bool site_healthy(std::string_view site) const;

  const std::vector<SloStatus>& statuses() const { return statuses_; }

 private:
  void tick();

  Hub& hub_;
  std::vector<SloRule> rules_;
  std::vector<SloStatus> statuses_;
  /// Pre-resolved lod.health.violations{rule} handles, parallel to rules_.
  std::vector<Counter> violation_counters_;
  Scheduler sched_;
  TimeUs period_us_{0};
  /// Guards queued scheduler callbacks against outliving the monitor.
  std::shared_ptr<bool> alive_;
};

/// Canned rule factories for the stack's core SLOs ----------------------------

/// Startup p95 (lod.player.startup_us merged across hosts) above \p max_us.
/// Needs >= min_samples observations to fire.
SloRule slo_startup_p95(TimeUs max_us, std::uint64_t min_samples = 1);

/// Stall events per rendered unit (lod.player.stalls /
/// lod.player.units_rendered, summed across hosts) above \p max_ratio.
SloRule slo_stall_ratio(double max_ratio, std::uint64_t min_rendered = 1);

/// Edge cache hit rate hits/(hits+misses) for host \p site below
/// \p min_rate. Guards that site.
SloRule slo_edge_cache_hit_rate(std::string site, double min_rate,
                                std::uint64_t min_lookups = 1);

/// Total player failovers above \p max_failovers.
SloRule slo_failover_count(std::uint64_t max_failovers);

/// Replica delay-estimate staleness: now minus the site's
/// lod.edge.selector.last_observation_us gauge above \p max_age_us. Guards
/// that site; silent until the selector has observed the site once.
SloRule slo_replica_staleness(std::string site, TimeUs max_age_us);

}  // namespace lod::obs
