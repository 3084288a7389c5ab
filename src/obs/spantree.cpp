#include "lod/obs/spantree.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace lod::obs {

const SpanNode* SpanTree::root() const {
  return roots.empty() ? nullptr : &nodes[roots.front()];
}

TimeUs SpanTree::duration() const {
  const SpanNode* r = root();
  return r ? r->end - r->begin : 0;
}

namespace {

/// Indices of nodes[from] and every span reachable from it through
/// `children`, paired with subtree depth (nodes[from] = 0).
std::vector<std::pair<std::size_t, int>> descendants(const SpanTree& tree,
                                                     std::size_t from) {
  std::vector<std::pair<std::size_t, int>> out;
  std::vector<std::pair<std::size_t, int>> stack{{from, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    out.emplace_back(idx, depth);
    for (const std::size_t c : tree.nodes[idx].children) {
      stack.emplace_back(c, depth + 1);
    }
  }
  return out;
}

}  // namespace

std::vector<SpanContribution> SpanTree::decompose() const {
  if (roots.empty()) return {};
  return decompose(roots.front());
}

std::vector<SpanContribution> SpanTree::decompose(std::size_t at) const {
  std::vector<SpanContribution> out;
  if (at >= nodes.size()) return out;
  const TimeUs rb = nodes[at].begin;
  const TimeUs re = nodes[at].end;

  const auto descs = descendants(*this, at);
  std::vector<TimeUs> cuts{rb, re};
  for (const auto& [idx, depth] : descs) {
    const SpanNode& n = nodes[idx];
    cuts.push_back(std::clamp(n.begin, rb, re));
    cuts.push_back(std::clamp(n.end, rb, re));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::unordered_map<std::size_t, TimeUs> self;
  for (const auto& [idx, depth] : descs) self.emplace(idx, 0);

  // Every elementary interval is either fully inside or fully outside each
  // span (its endpoints are cut points), so "deepest covering span" is well
  // defined per interval. The root covers the whole window, so every
  // interval is charged somewhere and the charges sum to the duration.
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const TimeUs x = cuts[i];
    const TimeUs y = cuts[i + 1];
    if (y <= x) continue;
    std::size_t best = at;
    int best_depth = -1;
    TimeUs best_begin = rb;
    for (const auto& [idx, depth] : descs) {
      const SpanNode& n = nodes[idx];
      if (n.begin <= x && n.end >= y) {
        // Deepest wins; among equals the later-starting span (the one the
        // instant is "most recently inside") wins.
        if (depth > best_depth ||
            (depth == best_depth && n.begin > best_begin)) {
          best = idx;
          best_depth = depth;
          best_begin = n.begin;
        }
      }
    }
    self[best] += y - x;
  }

  out.reserve(self.size());
  for (const auto& [idx, us] : self) out.push_back({idx, us});
  std::sort(out.begin(), out.end(), [&](const auto& l, const auto& r2) {
    if (l.self_us != r2.self_us) return l.self_us > r2.self_us;
    return l.node < r2.node;
  });
  return out;
}

std::vector<std::size_t> SpanTree::critical_path() const {
  std::vector<std::size_t> out;
  if (roots.empty()) return out;
  std::size_t at = roots.front();
  out.push_back(at);
  while (!nodes[at].children.empty()) {
    std::size_t next = nodes[at].children.front();
    for (const std::size_t c : nodes[at].children) {
      if (nodes[c].end > nodes[next].end) next = c;
    }
    out.push_back(next);
    at = next;
  }
  return out;
}

std::vector<SpanTree> build_span_trees(const std::vector<FlightEvent>& events) {
  struct Working {
    SpanTree tree;
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    TimeUs last_t{0};
  };
  std::map<std::uint64_t, Working> traces;

  for (const FlightEvent& e : events) {
    if (e.trace == 0) continue;
    Working& w = traces[e.trace];
    w.tree.trace_id = e.trace;
    w.last_t = std::max(w.last_t, e.t);
    if (e.type == FlightType::kSpanBegin && e.span != 0) {
      if (w.by_id.count(e.span)) continue;  // duplicate id: keep the first
      SpanNode n;
      n.id = e.span;
      n.parent = e.parent;
      n.actor = e.actor;
      n.name = e.detail;
      n.begin = e.t;
      n.end = e.t;
      n.a = e.a;
      n.b = e.b;
      w.by_id.emplace(e.span, w.tree.nodes.size());
      w.tree.nodes.push_back(std::move(n));
    } else if (e.type == FlightType::kSpanEnd && e.span != 0) {
      const auto it = w.by_id.find(e.span);
      if (it == w.by_id.end()) continue;  // end without begin: drop
      SpanNode& n = w.tree.nodes[it->second];
      n.end = std::max(n.begin, e.t);
      n.closed = true;
    } else {
      w.tree.points.push_back(e);
    }
  }

  std::vector<SpanTree> out;
  out.reserve(traces.size());
  for (auto& [id, w] : traces) {
    for (SpanNode& n : w.tree.nodes) {
      if (!n.closed) n.end = std::max(n.begin, w.last_t);
    }
    // Stable begin-time order (emit order breaks ties) before indexing, so
    // `children` reads chronologically.
    std::vector<std::size_t> order(w.tree.nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t l, std::size_t r) {
                       return w.tree.nodes[l].begin < w.tree.nodes[r].begin;
                     });
    std::vector<SpanNode> sorted;
    sorted.reserve(order.size());
    for (const std::size_t i : order) {
      sorted.push_back(std::move(w.tree.nodes[i]));
    }
    w.tree.nodes = std::move(sorted);
    w.by_id.clear();
    for (std::size_t i = 0; i < w.tree.nodes.size(); ++i) {
      w.by_id.emplace(w.tree.nodes[i].id, i);
    }
    for (std::size_t i = 0; i < w.tree.nodes.size(); ++i) {
      SpanNode& n = w.tree.nodes[i];
      if (n.parent == 0) {
        w.tree.roots.push_back(i);
      } else if (const auto it = w.by_id.find(n.parent); it != w.by_id.end()) {
        w.tree.nodes[it->second].children.push_back(i);
      } else {
        w.tree.orphans.push_back(i);
      }
    }
    std::sort(w.tree.points.begin(), w.tree.points.end(),
              [](const FlightEvent& l, const FlightEvent& r) {
                return l.t < r.t;
              });
    out.push_back(std::move(w.tree));
  }
  return out;
}

namespace {

std::string fmt_ms(TimeUs us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(us) / 1000.0);
  return buf;
}

void render_node(const SpanTree& tree, std::size_t idx, int depth,
                 TimeUs origin,
                 const std::unordered_map<std::size_t, TimeUs>& self,
                 std::string& out) {
  const SpanNode& n = tree.nodes[idx];
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += n.name.empty() ? "(unnamed)" : n.name;
  out += " [actor ";
  out += std::to_string(n.actor);
  out += "] +";
  out += fmt_ms(n.begin - origin);
  out += " dur ";
  out += fmt_ms(n.end - n.begin);
  if (const auto it = self.find(idx); it != self.end()) {
    out += " self ";
    out += fmt_ms(it->second);
  }
  if (!n.closed) out += " (unclosed)";
  out += '\n';
  for (const std::size_t c : n.children) {
    render_node(tree, c, depth + 1, origin, self, out);
  }
}

}  // namespace

std::string format_span_tree(const SpanTree& tree) {
  std::string out = "trace " + std::to_string(tree.trace_id);
  const SpanNode* r = tree.root();
  const TimeUs origin = r ? r->begin : 0;
  out += "  duration ";
  out += fmt_ms(tree.duration());
  out += '\n';
  std::unordered_map<std::size_t, TimeUs> self;
  for (const SpanContribution& c : tree.decompose()) {
    self.emplace(c.node, c.self_us);
  }
  for (const std::size_t root_idx : tree.roots) {
    render_node(tree, root_idx, 1, origin, self, out);
  }
  if (!tree.orphans.empty()) {
    out += "  orphans:\n";
    for (const std::size_t o : tree.orphans) {
      render_node(tree, o, 2, origin, self, out);
    }
  }
  for (const FlightEvent& p : tree.points) {
    out += "  @+";
    out += fmt_ms(p.t - origin);
    out += ' ';
    out += std::string(to_string(p.type));
    out += " [actor ";
    out += std::to_string(p.actor);
    out += ']';
    if (!p.detail.empty()) {
      out += ' ';
      out += p.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace lod::obs
