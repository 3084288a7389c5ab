#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lod/obs/metrics.hpp"  // TimeUs

/// \file flight.hpp
/// The event journal: an always-on, bounded, lock-free journal of compact
/// binary events — the "last N seconds of history" that ships with every
/// failure — plus, when tracing is switched on, the causal trace (spans and
/// context-tagged events) in a lane of its own. Recording is cheap enough
/// to leave on in production (a handful of relaxed atomic stores per event,
/// no allocation, no locks), and when a trigger fires (an SLO violation, a
/// persistent desync) the journal is rendered to JSONL and handed to the
/// installed dump sink, so the evidence survives the failure it describes.
///
/// Structure: LANES of power-of-two rings. Each lane is SINGLE-WRITER —
/// per-shard/per-loop-thread, matching the stack's shard-per-thread model —
/// while readers (dumps, the /debug/flight endpoint) may run concurrently
/// with writers on any thread. Slots are published with a release store of
/// the lane head; a reader validates each event against the head re-read
/// after the scan, discarding anything the writer may have been overwriting
/// mid-read. Event words are relaxed atomics, so a discarded torn read is
/// harmless (and clean under TSan).
///
/// Lane 0 (`kLaneControl`) carries rare, high-value events (sync verdicts,
/// frame drops, SLO violations); lane 1 (`kLaneDispatch`) carries the
/// firehose (per-event sim/transport dispatch), so the firehose can never
/// evict the history that explains a failure. The trace lane, written only
/// while tracing is on, carries span markers and traced events with their
/// trace, span and parent ids; it is allocated the first time tracing is
/// switched on.
///
/// Text (span names, SLO rule names, content names, floor users) is
/// interned in the journal's bounded string table, so a slot carries a
/// 16-bit detail id instead of a string.
///
/// The binary format (t, type, detail, actor, a, b — 32 bytes; 64 on the
/// trace lane) is deliberately the seed of record-replay: a dispatch
/// journal plus the sync layer's state images is exactly a replay log.

namespace lod::obs {

/// Every event the journal can carry. Values are stable — they appear in
/// dumped JSONL — so append only. The schema of each event's actor, a, b
/// and detail is in docs/OBSERVABILITY.md.
enum class FlightType : std::uint8_t {
  kSpanBegin,     ///< trace span opened    (detail = span name)
  kSpanEnd,       ///< trace span closed    (detail = span name)
  kSimEvent,      ///< simulator dispatched (a = event id, b = seq)
  kNetEvent,      ///< transport datagram   (actor = host, a = id, b = bytes)
  kSyncVerdict,   ///< sync epoch compared  (actor = host, a = epoch, b = verdict)
  kFrameDrop,     ///< media/frame dropped  (actor = host, a = id, b = cause)
  kSloViolation,  ///< SLO crossed          (actor = site, a = value*1000,
                  ///< b = threshold*1000, detail = rule name)
  kCacheMiss,     ///< edge demand miss     (actor = host, a = segment)
  kFailover,      ///< player left a site   (actor = host, a = the site)
  kResync,        ///< sync delta applied   (actor = host, a = epoch, b = blocks)
  kDump,          ///< a dump was triggered (a = dump ordinal)
  kInput,         ///< scripted session input (actor = session, a = kind,
                  ///< b = argument) — the record-replay journal entry
  // Traced events: recorded on the trace lane, and only while tracing is on.
  kPacketSend,
  kPacketRecv,
  kPacketDropLoss,
  kPacketDropQueue,
  kMsgRetransmit,
  kSessionOpen,
  kSessionPause,
  kSessionResume,
  kSessionSeek,
  kSessionRate,
  kSessionStop,
  kSessionEos,
  kPlayIssued,
  kRenderStart,
  kStall,
  kSlideFetch,
  kSlideShow,
  kAnnotation,
  kRepairRequest,
  kRepairResend,
  kClockSync,
  kFloorRequest,
  kFloorGrant,
  kFloorDeny,
  kFloorRelease,
  kTransitionFire,
  kPublish,
};

std::string_view to_string(FlightType t);
std::optional<FlightType> flight_type_from_string(std::string_view s);

/// `kFrameDrop` causes carried in `b`.
enum class DropCause : std::uint64_t {
  kLoss = 1,       ///< random link loss (sim network)
  kQueue = 2,      ///< drop-tail queue overflow (sim network)
  kBadFrame = 3,   ///< malformed wire frame (count-and-drop)
  kUnitLost = 4,   ///< player declared a sequence gap lost
  kUndeliverable = 5,  ///< send failed (oversize datagram, dead socket)
};

/// Causal context for one end-to-end request, minted at a user-facing entry
/// point (open_and_play, publish, floor request) and piggybacked across
/// every hop (control protocol, edge RPCs) so each layer's spans link into
/// one tree. A default-constructed context is invalid; every span call on
/// an invalid context is a no-op, which is what keeps context propagation
/// off the disabled-path profile.
struct TraceContext {
  std::uint64_t trace_id{0};
  std::uint64_t parent_span_id{0};

  bool valid() const { return trace_id != 0; }
  /// The context a span hands to its callees: same trace, this span as
  /// parent.
  TraceContext child(std::uint64_t span_id) const {
    return TraceContext{trace_id, span_id};
  }
};

/// One decoded journal entry. `trace`/`span`/`parent` are the causal
/// coordinates (0 = not part of a trace; only trace-lane events carry
/// them); `detail` is the entry's interned text, empty when it has none.
struct FlightEvent {
  TimeUs t{0};
  FlightType type{FlightType::kSimEvent};
  std::uint16_t lane{0};
  std::uint32_t actor{0};
  std::int64_t a{0};
  std::int64_t b{0};
  std::uint64_t trace{0};   ///< trace id, 0 when untraced
  std::uint64_t span{0};    ///< this event's span id (span markers)
  std::uint64_t parent{0};  ///< parent span id, 0 at the root
  std::string detail;
};

/// The journal's bounded intern table. Ids start at 1; 0 means "no text".
/// Names that reach the table from outside the program (floor users,
/// content names, URLs) cannot grow it without bound: once it holds
/// kMaxEntries strings or kMaxBytes of text, a new string is not stored,
/// its event carries no detail, and `overflow()` counts it. Thread-safe.
class StringTable {
 public:
  static constexpr std::size_t kMaxEntries = 4096;
  static constexpr std::size_t kMaxBytes = 256 * 1024;

  /// The id of \p s, interning it when new and there is room; 0 for an
  /// empty string or when the table is full.
  std::uint32_t intern(std::string_view s);
  /// The text of \p id; empty for 0 or an unknown id.
  std::string lookup(std::uint32_t id) const;

  std::size_t size() const;
  /// Intern requests refused because the table was full.
  std::uint64_t overflow() const;

 private:
  mutable std::mutex mu_;
  std::deque<std::string> strings_;  ///< id - 1 -> text; never moves
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::size_t bytes_{0};
  std::uint64_t overflow_{0};
};

/// What a dump sink receives: the trigger's reason plus the journal rendered
/// to JSONL (meta line first, then one event per line, oldest first).
struct FlightDump {
  std::string reason;
  TimeUs t{0};
  std::size_t events{0};
  std::uint64_t dropped{0};
  std::string jsonl;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kLaneControl = 0;
  static constexpr std::size_t kLaneDispatch = 1;
  /// Trace-lane slots: one traced session writes a packet pair per
  /// datagram, so the lane holds 4x a default writer lane.
  static constexpr std::size_t kTraceCapacity = 8192;

  struct Config {
    /// Writer lanes (rounded up to a power of two). Each lane is
    /// single-writer; out-of-range lane arguments wrap, never overflow.
    std::size_t lanes{2};
    /// Ring slots per lane (rounded up to a power of two). Once a lane
    /// wraps, readers retain capacity-1 events: the oldest slot is always
    /// treated as potentially mid-overwrite by an unpublished write.
    /// The default keeps a lane's ring at 64 KB (2048 x 32-byte slots) so
    /// the write cursor stays cache-resident on the hot dispatch path —
    /// an 8x larger ring measurably taxes the playout engine because every
    /// record streams through a cold line.
    std::size_t capacity{2048};
  };

  FlightRecorder();  ///< default Config
  explicit FlightRecorder(Config cfg);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Recording on the writer lanes on/off. On by default — the whole point
  /// is being already there when something goes wrong;
  /// `bench_obs_overhead` keeps it honest.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Timestamp source for `record`, the trace lane and dumps (hot paths
  /// that already know the time use `record_at` and skip the indirect
  /// call). Setup-time only.
  void set_clock(std::function<TimeUs()> clock) { clock_ = std::move(clock); }
  /// Current time per the installed clock; 0 without one.
  TimeUs now() const { return clock_ ? clock_() : 0; }

  /// Journal one event at an explicit timestamp. The hot-path form: one
  /// relaxed branch when disabled; a head load, four relaxed word stores
  /// and a release head store when enabled. Single writer per lane.
  /// \p detail is interned (see StringTable); most events carry none.
  void record_at(TimeUs t, FlightType type, std::uint32_t actor = 0,
                 std::int64_t a = 0, std::int64_t b = 0,
                 std::size_t lane = kLaneControl,
                 std::string_view detail = {}) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    const std::uint32_t text = detail.empty() ? 0 : strings_.intern(detail);
    Lane& ln = lanes_[lane & lane_mask_];
    const std::uint64_t h = ln.head.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t>* w = ln.words.get() + ((h & slot_mask_) << 2);
    w[0].store(static_cast<std::uint64_t>(t), std::memory_order_relaxed);
    w[1].store(header(type, actor, text), std::memory_order_relaxed);
    w[2].store(static_cast<std::uint64_t>(a), std::memory_order_relaxed);
    w[3].store(static_cast<std::uint64_t>(b), std::memory_order_relaxed);
    ln.head.store(h + 1, std::memory_order_release);
  }

  /// Journal one event stamped with the installed clock (0 without one).
  void record(FlightType type, std::uint32_t actor = 0, std::int64_t a = 0,
              std::int64_t b = 0, std::size_t lane = kLaneControl) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    record_at(now(), type, actor, a, b, lane);
  }

  /// --- causal tracing (the trace lane) --------------------------------------

  /// Tracing on/off; off by default. While off every call below is one
  /// inlined predictable branch; callers need no guard of their own unless
  /// building an argument costs more than that. Setup-time only: the first
  /// switch-on allocates the trace lane.
  void set_tracing(bool on);
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Trace and span ids come from one per-journal counter starting at 1.
  /// When several journals will be merged into one SpanTree, give each a
  /// distinct seed (e.g. host << 32) so ids cannot collide.
  void set_id_seed(std::uint64_t seed) { next_id_ = seed ? seed : 1; }

  /// Mint a fresh trace at a user-facing entry point. Returns an invalid
  /// context when tracing is off, so every downstream span call no-ops
  /// without its callers checking.
  TraceContext make_trace() {
    return tracing() ? TraceContext{next_id_++, 0} : TraceContext{};
  }

  /// Open a span inside \p ctx: records kSpanBegin carrying a fresh span id
  /// with ctx.parent_span_id as its parent and \p name as its detail.
  /// Returns the span id (0 when tracing is off or ctx invalid); hand
  /// `ctx.child(id)` to callees and pass the id back to end_span.
  std::uint64_t begin_span(const TraceContext& ctx, std::string_view name,
                           std::uint32_t actor = 0, std::int64_t a = 0,
                           std::int64_t b = 0) {
    if (!tracing() || !ctx.valid()) return 0;
    const std::uint64_t id = next_id_++;
    write_trace(FlightType::kSpanBegin, actor, a, b, ctx.trace_id, id,
                ctx.parent_span_id, name);
    return id;
  }

  /// Close a span opened by begin_span (kSpanEnd with the same coordinates).
  void end_span(const TraceContext& ctx, std::uint64_t span_id,
                std::string_view name, std::uint32_t actor = 0,
                std::int64_t a = 0, std::int64_t b = 0) {
    if (!tracing() || !ctx.valid() || span_id == 0) return;
    write_trace(FlightType::kSpanEnd, actor, a, b, ctx.trace_id, span_id,
                ctx.parent_span_id, name);
  }

  /// Record any event tagged with \p ctx (e.g. kPlayIssued, kRenderStart, so
  /// SpanTree can attach point events to the session's tree); an invalid
  /// context records it untraced.
  void emit_in(const TraceContext& ctx, FlightType type,
               std::uint32_t actor = 0, std::int64_t a = 0, std::int64_t b = 0,
               std::string_view detail = {}) {
    if (!tracing()) return;
    write_trace(type, actor, a, b, ctx.trace_id, 0, ctx.parent_span_id,
                detail);
  }

  /// An untraced event on the trace lane.
  void emit(FlightType type, std::uint32_t actor = 0, std::int64_t a = 0,
            std::int64_t b = 0, std::string_view detail = {}) {
    emit_in(TraceContext{}, type, actor, a, b, detail);
  }

  /// --- readers --------------------------------------------------------------

  std::size_t lanes() const { return lane_mask_ + 1; }
  std::size_t capacity() const { return slot_mask_ + 1; }  ///< per lane

  /// Events ever recorded / aged out of the readable window (capacity-1
  /// per wrapped lane), across lanes and the trace lane.
  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;

  /// Retained events of one writer lane, oldest first. Safe concurrently
  /// with the lane's writer; events the writer was overwriting mid-read
  /// are omitted.
  std::vector<FlightEvent> events(std::size_t lane) const;
  /// Retained events of the trace lane, oldest first; their `lane` reads
  /// `lanes()`, one past the last writer lane.
  std::vector<FlightEvent> trace_events() const;
  /// Retained events of every lane merged into one timeline (stable-sorted
  /// by timestamp; ties keep control-lane events first, trace-lane last).
  std::vector<FlightEvent> events() const;
  /// The merged timeline filtered to one type.
  std::vector<FlightEvent> events(FlightType type) const;

  /// The whole journal in the JSONL schema of `events_to_jsonl`.
  std::string to_jsonl() const;

  const StringTable& strings() const { return strings_; }

  /// --- dump-on-trigger ------------------------------------------------------

  /// Install the dump sink. Without one, `trigger_dump` only counts (and
  /// journals a kDump marker) — rendering ~capacity lines of JSONL on every
  /// trigger would make triggers expensive exactly when the system hurts.
  void on_dump(std::function<void(const FlightDump&)> sink);

  /// Fire a dump: journal a kDump marker, and when a sink is installed
  /// render the journal (meta line + events, oldest first) and deliver it.
  /// Returns the dump ordinal (1-based). Callable from any thread.
  std::uint64_t trigger_dump(std::string reason);

  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  /// The most recent dump delivered to a sink (reason empty when none yet).
  FlightDump last_dump() const;

 private:
  struct Lane {
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;  ///< slots * width
    std::atomic<std::uint64_t> head{0};
  };

  /// Slot word 1: type in bits 48-55, detail id in bits 32-47, actor below.
  static std::uint64_t header(FlightType type, std::uint32_t actor,
                              std::uint32_t detail) {
    return (static_cast<std::uint64_t>(type) << 48) |
           (static_cast<std::uint64_t>(detail) << 32) | actor;
  }
  void write_trace(FlightType type, std::uint32_t actor, std::int64_t a,
                   std::int64_t b, std::uint64_t trace, std::uint64_t span,
                   std::uint64_t parent, std::string_view detail);
  std::vector<FlightEvent> read(const Lane& ln, std::uint64_t cap,
                                unsigned width, std::uint16_t lane) const;

  std::size_t lane_mask_;
  std::size_t slot_mask_;
  std::unique_ptr<Lane[]> lanes_;
  std::unique_ptr<Lane> trace_lane_;  ///< kTraceCapacity 8-word slots
  std::atomic<bool> enabled_{true};
  std::atomic<bool> tracing_{false};
  std::uint64_t next_id_{1};  ///< shared trace/span id counter
  std::function<TimeUs()> clock_;
  StringTable strings_;

  std::atomic<std::uint64_t> dumps_{0};
  mutable std::mutex dump_mu_;  ///< guards sink_ and last_ (cold path)
  std::function<void(const FlightDump&)> sink_;
  FlightDump last_;
};

/// The journal's JSONL schema version, carried in a dump's meta line. 2:
/// one schema for every event (keyed "ft"), with optional trace/span/parent
/// ids and an optional "detail" string. 1 was the journal's first schema,
/// which a separate trace file complemented.
inline constexpr int kJsonlSchema = 2;

/// One JSON object per event: {"t":..,"ft":"span_begin","lane":..,
/// "actor":..,"a":..,"b":..[,"trace":..,"span":..,"parent":..]
/// [,"detail":".."]}. Feeding the output to parse_jsonl round-trips.
std::string events_to_jsonl(const std::vector<FlightEvent>& events);
/// Parse journal JSONL (a dump, a /debug/flight scrape, events_to_jsonl).
/// Lines without an "ft" key (meta lines, garbage) are skipped.
std::vector<FlightEvent> parse_jsonl(std::string_view text);

/// Render the meta header line of a dump:
/// {"flight_dump":{"reason":"..","t":N,"events":N,"dropped":N,"schema":2}}
std::string flight_dump_meta(const FlightDump& d);

/// Collate per-shard event streams (each time-ordered) into one timeline
/// ordered by (timestamp, shard index, intra-shard order). Deterministic
/// for a given input, so merged traces from a ShardedRunner diff
/// byte-stable. Give each shard's journal a distinct id seed (see
/// set_id_seed) so span ids stay unique in the merge.
std::vector<FlightEvent> collate_events(
    std::vector<std::vector<FlightEvent>> shards);

/// First event matching \p type (and \p actor if given).
std::optional<FlightEvent> first_event(
    const std::vector<FlightEvent>& events, FlightType type,
    std::optional<std::uint32_t> actor = std::nullopt);

/// Latency from the first \p from event to the first \p to event at or
/// after it. std::nullopt when either end is missing.
std::optional<TimeUs> span_between(
    const std::vector<FlightEvent>& events, FlightType from, FlightType to,
    std::optional<std::uint32_t> actor = std::nullopt);

/// Every from->to latency pair, pairing each \p from with the next \p to at
/// or after it (e.g. every seek -> resume in a session).
std::vector<TimeUs> span_latencies(
    const std::vector<FlightEvent>& events, FlightType from, FlightType to,
    std::optional<std::uint32_t> actor = std::nullopt);

}  // namespace lod::obs
