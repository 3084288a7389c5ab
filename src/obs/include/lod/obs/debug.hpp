#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lod/obs/flight.hpp"
#include "lod/obs/hub.hpp"
#include "lod/obs/metrics.hpp"
#include "lod/obs/rollup.hpp"
#include "lod/obs/spantree.hpp"
#include "lod/obs/flight.hpp"

/// \file debug.hpp
/// Renderers behind the live `/debug/*` introspection plane. Each function
/// is a pure transformation (snapshot / events / recorder -> JSON string),
/// so the HTTP layer in `net::RealTransport` only routes, and the payloads
/// are unit-testable without sockets. Catalog (see docs/OBSERVABILITY.md):
///
///   /debug/vars      debug_vars_json      snapshot + rollup-window rates
///   /debug/sessions  debug_sessions_json  open sessions of every engine
///   /debug/sync      debug_sync_json      the lod.sync.* slice
///   /debug/trace     debug_trace_json     trace index or one SpanTree
///   /debug/flight    debug_flight_jsonl   live flight-recorder journal

namespace lod::obs {

/// `{"t":..,"rollup":{..},"rates":{name:{delta,over_us,per_second}},
///   "series":[...]}` — the full to_json series list plus, for every
/// counter name with a nonzero delta in the rollup history, its rate over
/// the retained windows. `rollup` may be null (rates/rollup omitted).
std::string debug_vars_json(const Snapshot& snap, const RollupStore* rollup,
                            TimeUs now);

/// The session engines' per-host `active_sessions` gauges and
/// `sessions_opened` counters (`lod.server.*` at the origin, `lod.edge.*` at
/// an edge), plus one row per open session (`Hub::sessions()`), ordered by
/// role, host and id.
std::string debug_sessions_json(const Snapshot& snap,
                                std::vector<SessionRow> rows);

/// The `lod.sync.*` slice of the snapshot (epochs, gossip, verdicts,
/// resync traffic) as one JSON object per series name group.
std::string debug_sync_json(const Snapshot& snap);

/// One reconstructed trace as JSON: nodes with self-time attribution from
/// `SpanTree::decompose`, root/orphan indices, and the critical path.
std::string span_tree_to_json(const SpanTree& tree);

/// `trace_id == 0`: an index of every trace in `events` (id, root name,
/// span count, duration). Otherwise the matching tree via
/// `span_tree_to_json`, or `{"error":"trace not found",...}`.
std::string debug_trace_json(const std::vector<FlightEvent>& events,
                             std::uint64_t trace_id);

/// The live journal in dump format: a `flight_dump` meta line (reason,
/// stamped `now`) followed by one event per line — the same bytes a
/// triggered dump writes, so tooling reads both.
std::string debug_flight_jsonl(const FlightRecorder& rec, TimeUs now,
                               std::string_view reason = "live");

}  // namespace lod::obs
