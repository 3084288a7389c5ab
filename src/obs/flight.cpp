#include "lod/obs/flight.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <iterator>

#include "lod/obs/json.hpp"

namespace lod::obs {

namespace {

// Keep in enum order; the round-trip test in obs_flight_test walks every
// value.
constexpr std::array<std::string_view, 39> kFlightNames = {
    "span_begin",      "span_end",        "sim_event",
    "net_event",       "sync_verdict",    "frame_drop",
    "slo_violation",   "cache_miss",      "failover",
    "resync",          "dump",            "input",
    "packet_send",     "packet_recv",     "packet_drop_loss",
    "packet_drop_queue",
    "msg_retransmit",
    "session_open",    "session_pause",   "session_resume",
    "session_seek",    "session_rate",    "session_stop",
    "session_eos",
    "play_issued",     "render_start",    "stall",
    "slide_fetch",     "slide_show",      "annotation",
    "repair_request",  "repair_resend",   "clock_sync",
    "floor_request",   "floor_grant",     "floor_deny",
    "floor_release",
    "transition_fire",
    "publish",
};
static_assert(kFlightNames.size() ==
              static_cast<std::size_t>(FlightType::kPublish) + 1);

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::unique_ptr<std::atomic<std::uint64_t>[]> zeroed_words(std::size_t n) {
  // Value-initialized atomics: every word starts at 0.
  return std::make_unique<std::atomic<std::uint64_t>[]>(n);
}

// Find `"key":` in a single JSON line and return the value token after it
// (number, or quoted string contents still escaped). String values are
// delimited by scanning forward and skipping escape pairs — a backwards
// peek at line[j-1] mis-ends on `\\"` (an escaped backslash before the
// closing quote). The fixed keys precede "detail", and no escaped string
// can contain `"key":`, so the first match is the field.
std::optional<std::string_view> field(std::string_view line,
                                      std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const auto at = line.find(pat);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + pat.size();
  if (i >= line.size()) return std::nullopt;
  if (line[i] == '"') {
    ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != '"') {
      if (line[j] == '\\') ++j;  // consume the escaped character too
      ++j;
    }
    if (j > line.size()) j = line.size();  // trailing lone backslash
    return line.substr(i, j - i);
  }
  std::size_t j = i;
  while (j < line.size() && line[j] != ',' && line[j] != '}') ++j;
  return line.substr(i, j - i);
}

template <typename T>
T parse_int(std::optional<std::string_view> s) {
  T v{};
  if (s) std::from_chars(s->data(), s->data() + s->size(), v);
  return v;
}

void append_event_json(std::string& out, const FlightEvent& e) {
  out += "{\"t\":";
  out += std::to_string(e.t);
  out += ",\"ft\":\"";
  out += to_string(e.type);
  out += "\",\"lane\":";
  out += std::to_string(e.lane);
  out += ",\"actor\":";
  out += std::to_string(e.actor);
  out += ",\"a\":";
  out += std::to_string(e.a);
  out += ",\"b\":";
  out += std::to_string(e.b);
  if (e.trace != 0) {
    out += ",\"trace\":";
    out += std::to_string(e.trace);
    out += ",\"span\":";
    out += std::to_string(e.span);
    out += ",\"parent\":";
    out += std::to_string(e.parent);
  }
  if (!e.detail.empty()) {
    out += ",\"detail\":\"";
    append_json_escaped(out, e.detail);
    out += '"';
  }
  out += "}\n";
}

}  // namespace

std::string_view to_string(FlightType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < kFlightNames.size() ? kFlightNames[i] : "unknown";
}

std::optional<FlightType> flight_type_from_string(std::string_view s) {
  for (std::size_t i = 0; i < kFlightNames.size(); ++i) {
    if (kFlightNames[i] == s) return static_cast<FlightType>(i);
  }
  return std::nullopt;
}

// --- StringTable ------------------------------------------------------------

std::uint32_t StringTable::intern(std::string_view s) {
  if (s.empty()) return 0;
  std::lock_guard lk(mu_);
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  if (strings_.size() >= kMaxEntries || bytes_ + s.size() > kMaxBytes) {
    ++overflow_;
    return 0;
  }
  const std::string& stored = strings_.emplace_back(s);
  bytes_ += s.size();
  const auto id = static_cast<std::uint32_t>(strings_.size());
  ids_.emplace(stored, id);
  return id;
}

std::string StringTable::lookup(std::uint32_t id) const {
  std::lock_guard lk(mu_);
  return id != 0 && id <= strings_.size() ? strings_[id - 1] : std::string();
}

std::size_t StringTable::size() const {
  std::lock_guard lk(mu_);
  return strings_.size();
}

std::uint64_t StringTable::overflow() const {
  std::lock_guard lk(mu_);
  return overflow_;
}

// --- FlightRecorder ---------------------------------------------------------

FlightRecorder::FlightRecorder() : FlightRecorder(Config()) {}

FlightRecorder::FlightRecorder(Config cfg) {
  const std::size_t lanes = pow2_at_least(cfg.lanes == 0 ? 1 : cfg.lanes);
  const std::size_t cap = pow2_at_least(cfg.capacity == 0 ? 1 : cfg.capacity);
  lane_mask_ = lanes - 1;
  slot_mask_ = cap - 1;
  lanes_ = std::make_unique<Lane[]>(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_[i].words = zeroed_words(cap * 4);
  }
}

void FlightRecorder::set_tracing(bool on) {
  if (on && !trace_lane_) {
    trace_lane_ = std::make_unique<Lane>();
    trace_lane_->words = zeroed_words(kTraceCapacity * 8);
  }
  tracing_.store(on, std::memory_order_relaxed);
}

void FlightRecorder::write_trace(FlightType type, std::uint32_t actor,
                                 std::int64_t a, std::int64_t b,
                                 std::uint64_t trace, std::uint64_t span,
                                 std::uint64_t parent,
                                 std::string_view detail) {
  const TimeUs t = now();
  const std::uint32_t text = detail.empty() ? 0 : strings_.intern(detail);
  Lane& ln = *trace_lane_;
  const std::uint64_t h = ln.head.load(std::memory_order_relaxed);
  std::atomic<std::uint64_t>* w =
      ln.words.get() + ((h & (kTraceCapacity - 1)) << 3);
  w[0].store(static_cast<std::uint64_t>(t), std::memory_order_relaxed);
  w[1].store(header(type, actor, text), std::memory_order_relaxed);
  w[2].store(static_cast<std::uint64_t>(a), std::memory_order_relaxed);
  w[3].store(static_cast<std::uint64_t>(b), std::memory_order_relaxed);
  w[4].store(trace, std::memory_order_relaxed);
  w[5].store(span, std::memory_order_relaxed);
  w[6].store(parent, std::memory_order_relaxed);
  ln.head.store(h + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t sum =
      trace_lane_ ? trace_lane_->head.load(std::memory_order_relaxed) : 0;
  for (std::size_t i = 0; i <= lane_mask_; ++i) {
    sum += lanes_[i].head.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t FlightRecorder::dropped() const {
  // Once a lane wraps, the readable window is capacity-1 (see read(): the
  // oldest slot may be mid-overwrite by an unpublished write at head).
  const auto aged_out = [](const Lane& ln, std::uint64_t window) {
    const std::uint64_t h = ln.head.load(std::memory_order_relaxed);
    return h > window ? h - window : 0;
  };
  std::uint64_t sum =
      trace_lane_ ? aged_out(*trace_lane_, kTraceCapacity - 1) : 0;
  for (std::size_t i = 0; i <= lane_mask_; ++i) {
    sum += aged_out(lanes_[i], slot_mask_);
  }
  return sum;
}

std::vector<FlightEvent> FlightRecorder::read(const Lane& ln,
                                              std::uint64_t cap,
                                              unsigned width,
                                              std::uint16_t lane) const {
  const std::uint64_t h1 = ln.head.load(std::memory_order_acquire);
  // A writer publishes head AFTER filling the slot, so when head == h the
  // write of index h may still be in flight — and its slot is the one index
  // h1 - capacity lives in. The oldest provably-stable event is therefore
  // h1 - (capacity - 1): a full ring yields capacity-1 events.
  const std::uint64_t first = h1 >= cap ? h1 - (cap - 1) : 0;

  struct Raw {
    std::uint64_t idx;
    std::uint64_t w[8];
  };
  std::vector<Raw> raw;
  raw.reserve(static_cast<std::size_t>(h1 - first));
  for (std::uint64_t i = first; i < h1; ++i) {
    const std::atomic<std::uint64_t>* w =
        ln.words.get() + (i & (cap - 1)) * width;
    Raw r{i, {}};
    for (unsigned k = 0; k < width; ++k) {
      r.w[k] = w[k].load(std::memory_order_relaxed);
    }
    raw.push_back(r);
  }
  // Overwrite guard: the writer may have lapped us mid-scan. After the
  // scan, any event whose slot the writer could have touched — old index
  // <= h2 - capacity, where h2 is the head now — is discarded as torn.
  const std::uint64_t h2 = ln.head.load(std::memory_order_acquire);
  std::vector<FlightEvent> out;
  out.reserve(raw.size());
  for (const Raw& r : raw) {
    if (r.idx + cap <= h2) continue;
    FlightEvent e;
    e.t = static_cast<TimeUs>(r.w[0]);
    e.type = static_cast<FlightType>((r.w[1] >> 48) & 0xFF);
    e.lane = lane;
    e.actor = static_cast<std::uint32_t>(r.w[1]);
    e.a = static_cast<std::int64_t>(r.w[2]);
    e.b = static_cast<std::int64_t>(r.w[3]);
    e.trace = r.w[4];
    e.span = r.w[5];
    e.parent = r.w[6];
    const auto detail = static_cast<std::uint32_t>((r.w[1] >> 32) & 0xFFFF);
    if (detail != 0) e.detail = strings_.lookup(detail);
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::events(std::size_t lane) const {
  const std::size_t li = lane & lane_mask_;
  return read(lanes_[li], slot_mask_ + 1, 4, static_cast<std::uint16_t>(li));
}

std::vector<FlightEvent> FlightRecorder::trace_events() const {
  if (!trace_lane_) return {};
  return read(*trace_lane_, kTraceCapacity, 8,
              static_cast<std::uint16_t>(lanes()));
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<std::vector<FlightEvent>> lanes;
  for (std::size_t i = 0; i <= lane_mask_; ++i) lanes.push_back(events(i));
  lanes.push_back(trace_events());
  // Lanes in index order, each time-ordered: collating yields
  // (t, lane, intra-lane order).
  return collate_events(std::move(lanes));
}

std::vector<FlightEvent> FlightRecorder::events(FlightType type) const {
  std::vector<FlightEvent> out;
  for (FlightEvent& e : events()) {
    if (e.type == type) out.push_back(std::move(e));
  }
  return out;
}

std::string FlightRecorder::to_jsonl() const {
  return events_to_jsonl(events());
}

void FlightRecorder::on_dump(std::function<void(const FlightDump&)> sink) {
  std::lock_guard lk(dump_mu_);
  sink_ = std::move(sink);
}

std::uint64_t FlightRecorder::trigger_dump(std::string reason) {
  const std::uint64_t ordinal =
      dumps_.fetch_add(1, std::memory_order_relaxed) + 1;
  record(FlightType::kDump, 0, static_cast<std::int64_t>(ordinal), 0);

  std::function<void(const FlightDump&)> sink;
  {
    std::lock_guard lk(dump_mu_);
    sink = sink_;
  }
  if (!sink) return ordinal;

  FlightDump d;
  d.reason = std::move(reason);
  d.t = now();
  d.dropped = dropped();
  const std::vector<FlightEvent> evs = events();
  d.events = evs.size();
  d.jsonl = flight_dump_meta(d) + events_to_jsonl(evs);
  {
    std::lock_guard lk(dump_mu_);
    last_ = d;
  }
  sink(d);
  return ordinal;
}

FlightDump FlightRecorder::last_dump() const {
  std::lock_guard lk(dump_mu_);
  return last_;
}

// --- JSONL ------------------------------------------------------------------

std::string events_to_jsonl(const std::vector<FlightEvent>& events) {
  std::string out;
  for (const FlightEvent& e : events) append_event_json(out, e);
  return out;
}

std::vector<FlightEvent> parse_jsonl(std::string_view text) {
  std::vector<FlightEvent> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;

    const auto t = field(line, "t");
    const auto ft = field(line, "ft");
    if (!t || !ft) continue;
    const auto type = flight_type_from_string(*ft);
    TimeUs tv{};
    if (!type ||
        std::from_chars(t->data(), t->data() + t->size(), tv).ec !=
            std::errc{}) {
      continue;
    }

    FlightEvent e;
    e.t = tv;
    e.type = *type;
    e.lane = parse_int<std::uint16_t>(field(line, "lane"));
    e.actor = parse_int<std::uint32_t>(field(line, "actor"));
    e.a = parse_int<std::int64_t>(field(line, "a"));
    e.b = parse_int<std::int64_t>(field(line, "b"));
    e.trace = parse_int<std::uint64_t>(field(line, "trace"));
    e.span = parse_int<std::uint64_t>(field(line, "span"));
    e.parent = parse_int<std::uint64_t>(field(line, "parent"));
    if (const auto v = field(line, "detail")) e.detail = json_unescape(*v);
    out.push_back(std::move(e));
  }
  return out;
}

std::string flight_dump_meta(const FlightDump& d) {
  std::string out = "{\"flight_dump\":{\"reason\":\"";
  append_json_escaped(out, d.reason);
  out += "\",\"t\":";
  out += std::to_string(d.t);
  out += ",\"events\":";
  out += std::to_string(d.events);
  out += ",\"dropped\":";
  out += std::to_string(d.dropped);
  out += ",\"schema\":";
  out += std::to_string(kJsonlSchema);
  out += "}}\n";
  return out;
}

// --- readers ----------------------------------------------------------------

std::vector<FlightEvent> collate_events(
    std::vector<std::vector<FlightEvent>> shards) {
  std::vector<FlightEvent> out;
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  out.reserve(total);
  for (auto& s : shards) {
    out.insert(out.end(), std::make_move_iterator(s.begin()),
               std::make_move_iterator(s.end()));
  }
  // Concatenation put shards in index order and kept each shard's order; a
  // stable sort by timestamp then yields exactly (t, shard, order).
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.t < b.t;
                   });
  return out;
}

std::optional<FlightEvent> first_event(const std::vector<FlightEvent>& events,
                                       FlightType type,
                                       std::optional<std::uint32_t> actor) {
  for (const auto& e : events) {
    if (e.type == type && (!actor || e.actor == *actor)) return e;
  }
  return std::nullopt;
}

std::optional<TimeUs> span_between(const std::vector<FlightEvent>& events,
                                   FlightType from, FlightType to,
                                   std::optional<std::uint32_t> actor) {
  std::optional<TimeUs> start;
  for (const auto& e : events) {
    if (actor && e.actor != *actor) continue;
    if (!start && e.type == from) {
      start = e.t;
    } else if (start && e.type == to && e.t >= *start) {
      return e.t - *start;
    }
  }
  return std::nullopt;
}

std::vector<TimeUs> span_latencies(const std::vector<FlightEvent>& events,
                                   FlightType from, FlightType to,
                                   std::optional<std::uint32_t> actor) {
  std::vector<TimeUs> out;
  TimeUs start = 0;
  bool open = false;
  for (const auto& e : events) {
    if (actor && e.actor != *actor) continue;
    if (e.type == from) {
      // A repeated `from` restarts the span (latest request wins).
      start = e.t;
      open = true;
    } else if (open && e.type == to && e.t >= start) {
      out.push_back(e.t - start);
      open = false;
    }
  }
  return out;
}

}  // namespace lod::obs
