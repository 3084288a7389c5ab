#include "lod/obs/debug.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <tuple>

#include "lod/obs/export.hpp"
#include "lod/obs/json.hpp"

namespace lod::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

void append_labels(std::string& out, const Labels& labels) {
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_json_escaped(out, labels[i].first);
    out += "\":\"";
    append_json_escaped(out, labels[i].second);
    out += '"';
  }
  out += '}';
}

/// The value part of one series entry (no name/labels), shared by the
/// filtered views so they render like to_json does.
void append_entry_value(std::string& out, const Snapshot::Entry& e) {
  switch (e.kind) {
    case MetricKind::kCounter:
      out += std::to_string(e.counter);
      return;
    case MetricKind::kGauge:
      out += std::to_string(e.gauge);
      return;
    case MetricKind::kHistogram: {
      const HistogramData& h = e.hist;
      out += "{\"count\":";
      out += std::to_string(h.count);
      out += ",\"sum\":";
      out += std::to_string(h.sum);
      if (h.count > 0) {
        out += ",\"min\":";
        out += std::to_string(h.min);
        out += ",\"max\":";
        out += std::to_string(h.max);
        out += ",\"p50\":";
        out += std::to_string(h.quantile_bound(0.50));
        out += ",\"p95\":";
        out += std::to_string(h.quantile_bound(0.95));
        out += ",\"p99\":";
        out += std::to_string(h.quantile_bound(0.99));
      }
      out += '}';
      return;
    }
  }
  out += "null";
}

/// `[{"name":..,"labels":{..},"value":..},..]`: the series \p keep selects.
template <class Keep>
void append_series_list(std::string& out, const Snapshot& snap, Keep keep) {
  out += '[';
  bool first = true;
  for (const auto& [key, e] : snap.entries()) {
    if (!keep(e)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, e.name);
    out += "\",\"labels\":";
    append_labels(out, e.labels);
    out += ",\"value\":";
    append_entry_value(out, e);
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string debug_vars_json(const Snapshot& snap, const RollupStore* rollup,
                            TimeUs now) {
  std::string out = "{\"t\":";
  out += std::to_string(now);
  if (rollup != nullptr) {
    out += ",\"rollup\":{\"windows\":";
    out += std::to_string(rollup->size());
    out += ",\"window_us\":";
    out += std::to_string(rollup->config().window_us);
    out += ",\"oldest\":";
    out += std::to_string(rollup->oldest_start());
    out += ",\"newest\":";
    out += std::to_string(rollup->newest_end());
    out += '}';

    // Rates for every counter name the snapshot knows, over the retained
    // rollup history; zero-delta names are elided to keep the page small.
    std::set<std::string_view> names;
    for (const auto& [key, e] : snap.entries()) {
      if (e.kind == MetricKind::kCounter) names.insert(e.name);
    }
    out += ",\"rates\":{";
    bool first = true;
    for (const std::string_view name : names) {
      const RollupStore::Rate r = rollup->rate(name);
      if (r.delta == 0) continue;
      out += first ? "\n" : ",\n";
      first = false;
      out += '"';
      append_json_escaped(out, name);
      out += "\":{\"delta\":";
      out += std::to_string(r.delta);
      out += ",\"over_us\":";
      out += std::to_string(r.over_us);
      out += ",\"per_second\":";
      append_double(out, r.per_second());
      out += '}';
    }
    out += '}';
  }
  out += ",\"series\":";
  const std::string full = to_json(snap);
  // to_json returns {"series":[...]} — splice its array out so /debug/vars
  // stays one object. The exporter's shape is covered by goldens; index
  // math on it is safe.
  const auto at = full.find('[');
  out += at == std::string::npos ? "[]" : full.substr(at, full.rfind(']') - at + 1);
  out += "}\n";
  return out;
}

std::string debug_sessions_json(const Snapshot& snap,
                                std::vector<SessionRow> rows) {
  std::string out = "{\"hosts\":";
  append_series_list(out, snap, [](const Snapshot::Entry& e) {
    return e.name.ends_with(".active_sessions") ||
           e.name.ends_with(".sessions_opened");
  });
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::tie(a.role, a.host, a.id) < std::tie(b.role, b.host, b.id);
  });
  out += ",\"sessions\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SessionRow& s = rows[i];
    out += i ? ",\n{\"role\":\"" : "\n{\"role\":\"";
    append_json_escaped(out, s.role);
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "\",\"host\":%" PRIu64 ",\"id\":%" PRIu64
                  ",\"client\":%" PRIu64 ",\"paused\":%s,\"parked\":%s"
                  ",\"packets_sent\":%" PRIu64 ",\"bytes_sent\":%" PRIu64
                  ",\"seeks\":%" PRIu64 ",\"pauses\":%" PRIu64
                  ",\"repairs\":%" PRIu64 "}",
                  s.host, s.id, s.client, s.paused ? "true" : "false",
                  s.parked ? "true" : "false", s.stats.packets_sent,
                  s.stats.bytes_sent, s.stats.seeks, s.stats.pauses,
                  s.stats.repairs);
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::string debug_sync_json(const Snapshot& snap) {
  std::string out = "{\"series\":";
  append_series_list(out, snap, [](const Snapshot::Entry& e) {
    return e.name.rfind("lod.sync.", 0) == 0;
  });
  out += "}\n";
  return out;
}

std::string span_tree_to_json(const SpanTree& tree) {
  // Self-time attribution, mapped back to node indices (0 without a root).
  std::vector<TimeUs> self(tree.nodes.size(), 0);
  if (tree.root() != nullptr) {
    for (const SpanContribution& c : tree.decompose()) {
      self[c.node] = c.self_us;
    }
  }

  std::string out = "{\"trace_id\":";
  out += std::to_string(tree.trace_id);
  out += ",\"duration_us\":";
  out += std::to_string(tree.duration());
  out += ",\"orphans\":";
  out += std::to_string(tree.orphans.size());
  out += ",\"nodes\":[";
  for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
    const SpanNode& n = tree.nodes[i];
    out += i ? ",\n" : "\n";
    out += "{\"id\":";
    out += std::to_string(n.id);
    out += ",\"parent\":";
    out += std::to_string(n.parent);
    out += ",\"actor\":";
    out += std::to_string(n.actor);
    out += ",\"name\":\"";
    append_json_escaped(out, n.name);
    out += "\",\"begin\":";
    out += std::to_string(n.begin);
    out += ",\"end\":";
    out += std::to_string(n.end);
    out += ",\"closed\":";
    out += n.closed ? "true" : "false";
    out += ",\"self_us\":";
    out += std::to_string(self[i]);
    out += ",\"children\":[";
    for (std::size_t k = 0; k < n.children.size(); ++k) {
      if (k) out += ',';
      out += std::to_string(n.children[k]);
    }
    out += "]}";
  }
  out += "],\"roots\":[";
  for (std::size_t i = 0; i < tree.roots.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(tree.roots[i]);
  }
  out += "],\"critical_path\":[";
  const auto path = tree.root() != nullptr ? tree.critical_path()
                                           : std::vector<std::size_t>{};
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(path[i]);
  }
  out += "]}\n";
  return out;
}

std::string debug_trace_json(const std::vector<FlightEvent>& events,
                             std::uint64_t trace_id) {
  const std::vector<SpanTree> trees = build_span_trees(events);
  if (trace_id == 0) {
    std::string out = "{\"traces\":[";
    for (std::size_t i = 0; i < trees.size(); ++i) {
      const SpanTree& t = trees[i];
      out += i ? ",\n" : "\n";
      out += "{\"trace_id\":";
      out += std::to_string(t.trace_id);
      out += ",\"root\":\"";
      if (t.root() != nullptr) append_json_escaped(out, t.root()->name);
      out += "\",\"spans\":";
      out += std::to_string(t.nodes.size());
      out += ",\"duration_us\":";
      out += std::to_string(t.duration());
      out += '}';
    }
    out += "]}\n";
    return out;
  }
  for (const SpanTree& t : trees) {
    if (t.trace_id == trace_id) return span_tree_to_json(t);
  }
  std::string out = "{\"error\":\"trace not found\",\"trace_id\":";
  out += std::to_string(trace_id);
  out += "}\n";
  return out;
}

std::string debug_flight_jsonl(const FlightRecorder& rec, TimeUs now,
                               std::string_view reason) {
  FlightDump d;
  d.reason = std::string(reason);
  d.t = now;
  d.dropped = rec.dropped();
  std::string body = rec.to_jsonl();
  d.events = static_cast<std::size_t>(
      std::count(body.begin(), body.end(), '\n'));
  return flight_dump_meta(d) + body;
}

}  // namespace lod::obs
