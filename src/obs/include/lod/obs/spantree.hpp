#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lod/obs/flight.hpp"

/// \file spantree.hpp
/// Reconstruction of per-trace span trees from journal events — the reader
/// side of causal tracing. `build_span_trees` pairs kSpanBegin/kSpanEnd by
/// span id, links children to parents, and groups everything by trace id;
/// the events may come from one journal, a parsed dump, or several
/// journals' parsed JSONL concatenated (give each journal a distinct id
/// seed so ids cannot collide).
///
/// `SpanTree::decompose` answers the question the flat event list cannot:
/// *where did the time go*. It charges every instant of the root span's
/// window to the deepest span covering it, so the per-span self-times sum
/// exactly to the root's duration ("startup 480 ms = 310 ms origin fill +
/// 120 ms edge relay + 50 ms render").

namespace lod::obs {

/// One reconstructed span. `children` index into SpanTree::nodes.
struct SpanNode {
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< parent span id, 0 at a root
  std::uint64_t actor{0};
  std::string name;
  TimeUs begin{0};
  TimeUs end{0};       ///< for unclosed spans, the trace's last event time
  bool closed{false};  ///< saw a matching kSpanEnd
  std::int64_t a{0};   ///< payload slots from the kSpanBegin event
  std::int64_t b{0};
  std::vector<std::size_t> children;
};

/// Self-time attribution for one span (see SpanTree::decompose).
struct SpanContribution {
  std::size_t node{0};  ///< index into SpanTree::nodes
  TimeUs self_us{0};
};

/// All spans and context-tagged point events of one trace id.
struct SpanTree {
  std::uint64_t trace_id{0};
  std::vector<SpanNode> nodes;        ///< begin-time order
  std::vector<std::size_t> roots;     ///< nodes with parent == 0
  std::vector<std::size_t> orphans;   ///< parent id named but never seen
  std::vector<FlightEvent> points;     ///< non-span events tagged with ctx

  /// The first root, or nullptr for a degenerate (span-free) trace.
  const SpanNode* root() const;
  /// root()->end - root()->begin, 0 without a root.
  TimeUs duration() const;

  /// Charge each instant of [root.begin, root.end] to the deepest covering
  /// span. Contributions are returned largest first and sum exactly to
  /// duration(). Unclosed spans participate with their clamped window.
  std::vector<SpanContribution> decompose() const;

  /// Same attribution over the subtree rooted at nodes[\p at]: charges sum
  /// exactly to that span's own duration (e.g. decompose the
  /// "player.startup" span to split measured startup latency by hop).
  std::vector<SpanContribution> decompose(std::size_t at) const;

  /// The chain of spans from the root to the deepest-ending descendant —
  /// the path a latency budget walks. Indices into nodes, root first.
  std::vector<std::size_t> critical_path() const;
};

/// Group \p events by trace id and reconstruct one tree per trace, ordered
/// by trace id. Events with trace == 0 are ignored.
std::vector<SpanTree> build_span_trees(const std::vector<FlightEvent>& events);

/// Human-readable indented timeline of one tree (used by obs_report):
/// offsets relative to the root's begin, self-times from decompose().
std::string format_span_tree(const SpanTree& tree);

}  // namespace lod::obs
