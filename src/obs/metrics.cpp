#include "lod/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace lod::obs {

void series_key_sorted(std::string& out, std::string_view name,
                       const Labels& labels) {
  out.clear();
  std::size_t need = name.size();
  if (!labels.empty()) {
    need += 2;  // '{' '}'
    for (const Label& l : labels) {
      need += l.first.size() + l.second.size() + 2;  // '=' ','
    }
  }
  out.reserve(need);
  out.append(name);
  if (!labels.empty()) {
    out += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i) out += ',';
      out += labels[i].first;
      out += '=';
      out += labels[i].second;
    }
    out += '}';
  }
}

std::string series_key(std::string_view name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string key;
  series_key_sorted(key, name, labels);
  return key;
}

void HistogramData::observe(std::int64_t v) {
  // Lower-bound over the sorted bounds picks the first bucket whose upper
  // bound admits v; past-the-end is the +inf overflow slot.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds.begin());
  if (counts.size() != bounds.size() + 1) counts.assign(bounds.size() + 1, 0);
  ++counts[idx];
  ++count;
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
}

std::int64_t HistogramData::quantile_bound(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // The target is an ORDER STATISTIC (1-based rank), so it must stay inside
  // [1, count]: a raw `q*count + 0.5` rounds to 0 for q -> 0 (or tiny
  // counts), and `seen >= 0` holds at the very first bucket, reporting
  // bounds[0] even when every sample sits in the overflow slot.
  auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5);
  target = std::clamp<std::uint64_t>(target, 1, count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= target) {
      return i < bounds.size() ? bounds[i] : max;
    }
  }
  return max;
}

const std::vector<std::int64_t>& MetricsRegistry::latency_buckets_us() {
  static const std::vector<std::int64_t> kBuckets = {
      1'000,      2'000,      5'000,      10'000,     20'000,
      50'000,     100'000,    200'000,    500'000,    1'000'000,
      2'000'000,  5'000'000,  10'000'000, 30'000'000, 60'000'000};
  return kBuckets;
}

detail::Series* MetricsRegistry::resolve(MetricKind kind,
                                         std::string_view name,
                                         Labels labels) {
  // One sort, one key build into the reused buffer, one hash probe. The
  // heterogeneous find means a repeat lookup allocates nothing at all.
  std::sort(labels.begin(), labels.end());
  series_key_sorted(key_buf_, name, labels);
  auto it = series_.find(std::string_view(key_buf_));
  if (it != series_.end()) {
    if (it->second->kind != kind) {
      throw std::logic_error("metric '" + key_buf_ +
                             "' re-registered with a different kind");
    }
    return it->second.get();
  }
  auto s = std::make_unique<detail::Series>();
  s->kind = kind;
  s->name = std::string(name);
  s->labels = std::move(labels);
  detail::Series* raw = s.get();
  series_.emplace(key_buf_, std::move(s));
  return raw;
}

Counter MetricsRegistry::counter(std::string_view name, Labels labels) {
  return Counter(resolve(MetricKind::kCounter, name, std::move(labels)));
}

Gauge MetricsRegistry::gauge(std::string_view name, Labels labels) {
  return Gauge(resolve(MetricKind::kGauge, name, std::move(labels)));
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<std::int64_t> bounds,
                                     Labels labels) {
  detail::Series* s =
      resolve(MetricKind::kHistogram, name, std::move(labels));
  if (s->hist.bounds.empty()) {
    s->hist.bounds = bounds.empty() ? latency_buckets_us() : std::move(bounds);
    s->hist.counts.assign(s->hist.bounds.size() + 1, 0);
  }
  return Histogram(s);
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const auto& [key, s] : series_) {
    Snapshot::Entry e;
    e.kind = s->kind;
    e.name = s->name;
    e.labels = s->labels;
    e.counter = s->counter;
    e.gauge = s->gauge;
    e.hist = s->hist;
    snap.entries_.emplace(key, std::move(e));
  }
  return snap;
}

std::uint64_t Snapshot::counter(std::string_view name, Labels labels) const {
  const auto it = entries_.find(series_key(name, std::move(labels)));
  return it == entries_.end() ? 0 : it->second.counter;
}

std::int64_t Snapshot::gauge(std::string_view name, Labels labels) const {
  const auto it = entries_.find(series_key(name, std::move(labels)));
  return it == entries_.end() ? 0 : it->second.gauge;
}

const HistogramData* Snapshot::histogram(std::string_view name,
                                         Labels labels) const {
  const auto it = entries_.find(series_key(name, std::move(labels)));
  if (it == entries_.end() || it->second.kind != MetricKind::kHistogram) {
    return nullptr;
  }
  return &it->second.hist;
}

std::uint64_t Snapshot::total(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& [key, e] : entries_) {
    if (e.name == name && e.kind == MetricKind::kCounter) sum += e.counter;
  }
  return sum;
}

HistogramData Snapshot::merged_histogram(std::string_view name) const {
  HistogramData out;
  for (const auto& [key, e] : entries_) {
    if (e.name != name || e.kind != MetricKind::kHistogram) continue;
    const HistogramData& h = e.hist;
    if (h.count == 0) continue;
    if (out.count == 0) {
      out = h;
      continue;
    }
    if (out.bounds == h.bounds) {
      for (std::size_t i = 0; i < out.counts.size(); ++i) {
        out.counts[i] += h.counts[i];
      }
    } else {
      // Incompatible bucket layouts: aggregate moments only.
      out.counts.clear();
      out.bounds.clear();
    }
    out.count += h.count;
    out.sum += h.sum;
    out.min = std::min(out.min, h.min);
    out.max = std::max(out.max, h.max);
  }
  return out;
}

Snapshot Snapshot::merged(
    const std::vector<std::pair<std::string, Snapshot>>& shards) {
  Snapshot out;
  for (const auto& [shard_label, snap] : shards) {
    for (const auto& [key, e] : snap.entries_) {
      auto [it, inserted] = out.entries_.emplace(key, e);
      if (!inserted) {
        Entry& agg = it->second;
        if (agg.kind != e.kind) {
          throw std::logic_error("Snapshot::merged: series '" + key +
                                 "' has conflicting kinds across shards");
        }
        switch (e.kind) {
          case MetricKind::kCounter:
            agg.counter += e.counter;
            break;
          case MetricKind::kGauge:
            agg.gauge = e.gauge;  // last writer wins (shard order)
            break;
          case MetricKind::kHistogram: {
            if (e.hist.count == 0) break;
            if (agg.hist.count == 0) {
              agg.hist = e.hist;
              break;
            }
            if (agg.hist.bounds == e.hist.bounds) {
              for (std::size_t i = 0; i < agg.hist.counts.size(); ++i) {
                agg.hist.counts[i] += e.hist.counts[i];
              }
            } else {
              // Incompatible layouts: aggregate moments only.
              agg.hist.bounds.clear();
              agg.hist.counts.clear();
            }
            agg.hist.count += e.hist.count;
            agg.hist.sum += e.hist.sum;
            agg.hist.min = std::min(agg.hist.min, e.hist.min);
            agg.hist.max = std::max(agg.hist.max, e.hist.max);
            break;
          }
        }
      }
      // Gauges cannot meaningfully aggregate, so each shard's value is also
      // kept verbatim under an appended shard label.
      if (e.kind == MetricKind::kGauge) {
        Entry per_shard = e;
        per_shard.labels.emplace_back("shard", shard_label);
        out.entries_.insert_or_assign(
            series_key(per_shard.name, per_shard.labels),
            std::move(per_shard));
      }
    }
  }
  return out;
}

Snapshot Snapshot::since(const Snapshot& earlier) const {
  Snapshot delta;
  for (const auto& [key, e] : entries_) {
    Entry d = e;
    const auto it = earlier.entries_.find(key);
    if (it != earlier.entries_.end()) {
      const Entry& prev = it->second;
      if (d.kind == MetricKind::kCounter) {
        // A total below the baseline (the snapshots come from different
        // registries, e.g. across a restart) is a counter reset: keep the
        // current total whole instead of underflowing.
        d.counter =
            d.counter >= prev.counter ? d.counter - prev.counter : d.counter;
      } else if (d.kind == MetricKind::kHistogram &&
                 d.hist.bounds == prev.hist.bounds &&
                 d.hist.count >= prev.hist.count) {
        // Same reset rule as the counter branch: on a reset the current
        // tallies are kept whole (the bounds/count guard above routes the
        // reset case here, skipping subtraction entirely).
        for (std::size_t i = 0;
             i < d.hist.counts.size() && i < prev.hist.counts.size(); ++i) {
          const std::uint64_t p = prev.hist.counts[i];
          d.hist.counts[i] = d.hist.counts[i] >= p ? d.hist.counts[i] - p : 0;
        }
        d.hist.count -= prev.hist.count;
        d.hist.sum -= prev.hist.sum;
        // min/max are not recoverable for a window; leave the cumulative
        // values (documented in OBSERVABILITY.md).
      }
    }
    delta.entries_.emplace(key, std::move(d));
  }
  return delta;
}

}  // namespace lod::obs
