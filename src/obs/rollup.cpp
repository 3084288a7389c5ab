#include "lod/obs/rollup.hpp"

#include <algorithm>

namespace lod::obs {

RollupStore::RollupStore() : RollupStore(Config()) {}

void RollupStore::roll(const Snapshot& snap, TimeUs now) {
  if (!primed_) {
    primed_ = true;
    last_ = snap;
    last_t_ = now;
    return;
  }
  if (now <= last_t_) {
    // Time did not advance: keep the newest snapshot as the baseline so the
    // next real window still diffs against current totals, but retain no
    // zero-width window.
    last_ = snap;
    return;
  }
  Window w;
  w.start = last_t_;
  w.end = now;
  w.delta = snap.since(last_);
  windows_.push_back(std::move(w));
  last_ = snap;
  last_t_ = now;
  const std::size_t cap = cfg_.windows == 0 ? 1 : cfg_.windows;
  while (windows_.size() > cap) windows_.pop_front();
}

RollupStore::Rate RollupStore::rate(std::string_view name,
                                    std::size_t span) const {
  Rate out;
  const std::size_t n = windows_.size();
  const std::size_t take = (span == 0 || span > n) ? n : span;
  for (std::size_t i = n - take; i < n; ++i) {
    const Window& w = windows_[i];
    out.delta += w.delta.total(name);
    out.over_us += w.end - w.start;
  }
  return out;
}

HistogramData RollupStore::merged_histogram(std::string_view name,
                                            std::size_t span) const {
  HistogramData out;
  const std::size_t n = windows_.size();
  const std::size_t take = (span == 0 || span > n) ? n : span;
  for (std::size_t i = n - take; i < n; ++i) {
    const HistogramData h = windows_[i].delta.merged_histogram(name);
    if (h.count == 0) continue;
    if (out.count == 0) {
      out = h;
      continue;
    }
    if (out.bounds == h.bounds) {
      for (std::size_t k = 0; k < out.counts.size(); ++k) {
        out.counts[k] += h.counts[k];
      }
    } else {
      // Incompatible layouts across windows: keep moments only, same as
      // Snapshot::merged_histogram.
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

}  // namespace lod::obs
