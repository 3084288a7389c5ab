#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file metrics.hpp
/// The metrics half of the observability layer: a registry of named,
/// optionally-labeled series (counters, gauges, fixed-bucket histograms)
/// that every layer of the stack publishes into, plus a `Snapshot` value
/// type so benches and tests assert on *deltas* instead of absolute counts.
///
/// Design constraints, in order:
///  - Instrument handles are trivially copyable pointer wrappers; a null
///    handle makes every operation a predictable-branch no-op, which is what
///    keeps the disabled path off the profile (see bench_obs_overhead).
///  - Series cells have stable addresses for the registry's lifetime, so a
///    handle taken at construction stays valid across later registrations.
///  - No dependency on the simulation substrate: time is plain int64
///    microseconds, so `lod_obs` sits below `lod_net` in the link order.
///
/// Naming scheme (see docs/OBSERVABILITY.md): `lod.<layer>.<name>`, labels
/// for bounded identity dimensions (host, site, rule), e.g.
/// `lod.server.packets_sent{host=0}`.

namespace lod::obs {

/// Microseconds — simulation time in the metrics layer's own terms.
using TimeUs = std::int64_t;

/// One identity dimension of a series, e.g. {"session", "3"}.
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/// Canonical series key: `name{k1=v1,k2=v2}` with labels sorted by key
/// (label order at the call site does not create distinct series).
std::string series_key(std::string_view name, Labels labels);

/// Append the canonical key for ALREADY-SORTED labels into \p out (cleared
/// first, capacity reserved up front). The allocation-free building block
/// behind `series_key` and the registry's cold-path lookups: callers that
/// sorted once must not pay a second sort, and a reused \p out buffer stops
/// paying the key allocation after warm-up.
void series_key_sorted(std::string& out, std::string_view name,
                       const Labels& labels);

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Fixed-bucket histogram state. `counts[i]` tallies observations with
/// value <= bounds[i]; the final slot is the +inf overflow bucket.
struct HistogramData {
  std::vector<std::int64_t> bounds;   ///< ascending upper bounds
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 slots
  std::uint64_t count{0};
  std::int64_t sum{0};
  std::int64_t min{std::numeric_limits<std::int64_t>::max()};
  std::int64_t max{std::numeric_limits<std::int64_t>::min()};

  void observe(std::int64_t v);
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound of the bucket containing quantile \p q in (0, 1]; the
  /// overflow bucket reports the observed max. 0 when empty.
  std::int64_t quantile_bound(double q) const;
};

namespace detail {
/// One registered series. Handles point at these; the registry keeps them
/// at stable addresses.
struct Series {
  MetricKind kind{};
  std::string name;
  Labels labels;
  std::uint64_t counter{0};
  std::int64_t gauge{0};
  HistogramData hist;
};
}  // namespace detail

/// Monotonic event count. A default-constructed (null) handle ignores
/// everything — instrumented code never tests "is observability on".
class Counter {
 public:
  Counter() = default;
  /// const: a handle is a reference to the series cell, not the cell itself
  /// (instrumented code often holds handles through const objects).
  void inc(std::uint64_t n = 1) const {
    if (s_) s_->counter += n;
  }
  std::uint64_t value() const { return s_ ? s_->counter : 0; }
  explicit operator bool() const { return s_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::Series* s) : s_(s) {}
  detail::Series* s_{nullptr};
};

/// A value that goes up and down (active sessions, queue depth).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const {
    if (s_) s_->gauge = v;
  }
  void add(std::int64_t d) const {
    if (s_) s_->gauge += d;
  }
  std::int64_t value() const { return s_ ? s_->gauge : 0; }
  explicit operator bool() const { return s_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::Series* s) : s_(s) {}
  detail::Series* s_{nullptr};
};

/// Fixed-bucket distribution (latencies, sizes).
class Histogram {
 public:
  Histogram() = default;
  void observe(std::int64_t v) const {
    if (s_) s_->hist.observe(v);
  }
  const HistogramData* data() const { return s_ ? &s_->hist : nullptr; }
  explicit operator bool() const { return s_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::Series* s) : s_(s) {}
  detail::Series* s_{nullptr};
};

/// An immutable copy of every series at one instant. Two snapshots diff into
/// a delta (`since`), which is how benches isolate the cost of one phase.
class Snapshot {
 public:
  struct Entry {
    MetricKind kind{};
    std::string name;
    Labels labels;
    std::uint64_t counter{0};
    std::int64_t gauge{0};
    HistogramData hist;
  };

  /// Series key -> entry, iterable for custom aggregation.
  const std::map<std::string, Entry>& entries() const { return entries_; }

  /// Exact-series reads; 0 / nullptr when the series does not exist.
  std::uint64_t counter(std::string_view name, Labels labels = {}) const;
  std::int64_t gauge(std::string_view name, Labels labels = {}) const;
  const HistogramData* histogram(std::string_view name,
                                 Labels labels = {}) const;

  /// Sum of a counter across every label combination.
  std::uint64_t total(std::string_view name) const;
  /// Merge of a histogram across every label combination (bucket-wise when
  /// bounds agree; count/sum/min/max always).
  HistogramData merged_histogram(std::string_view name) const;

  /// The delta from \p earlier to this snapshot: counters and histogram
  /// tallies subtract (series absent earlier count from zero); gauges keep
  /// this snapshot's value (a gauge delta is rarely what a bench means).
  Snapshot since(const Snapshot& earlier) const;

  /// Merge per-shard snapshots (label, snapshot) into one, in shard order:
  /// counters sum; histograms add bucket-wise when bounds agree (moments
  /// only otherwise, as in merged_histogram); gauges are last-writer in the
  /// aggregate series AND preserved per shard under an appended
  /// {shard=<label>} label, so nothing a shard reported is lost. A series
  /// key appearing with different kinds across shards throws
  /// std::logic_error (the registry's re-registration contract). The result
  /// is deterministic for a given input order.
  static Snapshot merged(
      const std::vector<std::pair<std::string, Snapshot>>& shards);

  std::size_t size() const { return entries_.size(); }

 private:
  friend class MetricsRegistry;
  std::map<std::string, Entry> entries_;
};

/// The registry. Layers request instruments by (name, labels); requesting
/// the same identity twice returns a handle to the same cell, so publishers
/// and readers meet without sharing state explicitly.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Throws std::logic_error if the identity exists with a different kind.
  Counter counter(std::string_view name, Labels labels = {});
  Gauge gauge(std::string_view name, Labels labels = {});
  /// \p bounds empty => the canonical latency buckets.
  Histogram histogram(std::string_view name, std::vector<std::int64_t> bounds,
                      Labels labels = {});
  Histogram histogram(std::string_view name, Labels labels = {}) {
    return histogram(name, {}, std::move(labels));
  }

  /// Canonical latency buckets, microseconds: 1ms..60s, roughly 1-2-5.
  static const std::vector<std::int64_t>& latency_buckets_us();

  /// Number of registered series (the label-cardinality guard in tests).
  std::size_t series_count() const { return series_.size(); }

  Snapshot snapshot() const;

 private:
  /// Transparent heterogeneous hash/eq so lookups by string_view (the
  /// reusable key buffer) never allocate a temporary std::string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  detail::Series* resolve(MetricKind kind, std::string_view name,
                          Labels labels);

  /// Key -> series. Unordered on purpose: resolve() is the cold path of the
  /// handle API but still sits on session-open paths; snapshot() re-sorts
  /// into its std::map, so snapshots stay deterministically ordered.
  std::unordered_map<std::string, std::unique_ptr<detail::Series>, KeyHash,
                     std::equal_to<>>
      series_;
  /// Reused key-building buffer: cold lookups stop allocating after warm-up.
  std::string key_buf_;
};

}  // namespace lod::obs
