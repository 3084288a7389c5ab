#include "lod/sync/blocks.hpp"

#include <utility>

namespace lod::sync {

namespace {

// Section markers: cheap structural guards between logical fields (see
// serialize.hpp). Values are arbitrary but stable — they are wire format.
constexpr std::uint32_t kMarkMarking = 0x4d41524bu;  // 'MARK'
constexpr std::uint32_t kMarkFloor = 0x464c4f52u;    // 'FLOR'
constexpr std::uint32_t kMarkCursor = 0x43555253u;   // 'CURS'
constexpr std::uint32_t kMarkReorder = 0x524f5244u;  // 'RORD'
constexpr std::uint32_t kMarkRepair = 0x52455052u;   // 'REPR'
constexpr std::uint32_t kMarkSlide = 0x534c4944u;    // 'SLID'
constexpr std::uint32_t kMarkTrace = 0x54524345u;    // 'TRCE'

void save_cursor(StateWriter& w, const streaming::PlayerSyncCursor& c) {
  w.marker(kMarkCursor);
  w.i64(c.media_us);
  w.i64(c.wall_us);
  w.i64(c.paused_at_us);
  w.f64(c.rate);
  w.i64(c.next_feed);
  w.i64(c.highest_index);
  w.u32(c.stream_epoch);
}

streaming::PlayerSyncCursor load_cursor(StateReader& r) {
  r.expect_marker(kMarkCursor);
  streaming::PlayerSyncCursor c;
  c.media_us = r.i64();
  c.wall_us = r.i64();
  c.paused_at_us = r.i64();
  c.rate = r.f64();
  c.next_feed = r.i64();
  c.highest_index = r.i64();
  c.stream_epoch = r.u32();
  return c;
}

}  // namespace

void save_marking(StateWriter& w, const core::Marking& m) {
  w.marker(kMarkMarking);
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const std::uint32_t tokens : m) w.u32(tokens);
}

void load_marking(StateReader& r, core::Marking& m) {
  r.expect_marker(kMarkMarking);
  const std::uint32_t n = r.u32();
  m.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) m[i] = r.u32();
}

void register_marking_block(SessionState& s, std::uint32_t id,
                            std::string name, core::Marking* m) {
  s.register_block(
      id, std::move(name), [m](StateWriter& w) { save_marking(w, *m); },
      [m](StateReader& r) { load_marking(r, *m); });
}

void register_floor_block(SessionState& s, std::uint32_t id, std::string name,
                          ::lod::lod::FloorControl* f) {
  s.register_block(
      id, std::move(name),
      [f](StateWriter& w) {
        const auto st = f->state();
        w.marker(kMarkFloor);
        save_marking(w, st.marking);
        w.u32(static_cast<std::uint32_t>(st.fifo.size()));
        for (const std::string& u : st.fifo) w.str(u);
      },
      [f](StateReader& r) {
        r.expect_marker(kMarkFloor);
        ::lod::lod::FloorControl::State st;
        load_marking(r, st.marking);
        const std::uint32_t n = r.u32();
        st.fifo.reserve(r.bounded_count(n, 4));
        for (std::uint32_t i = 0; i < n; ++i) st.fifo.push_back(r.str());
        f->restore(st);
      });
}

void register_player_block(SessionState& s, std::uint32_t id, std::string name,
                           streaming::Player* p) {
  s.register_block(
      id, std::move(name),
      [p](StateWriter& w) { save_cursor(w, p->sync_cursor()); },
      [p](StateReader& r) { p->restore_sync_cursor(load_cursor(r)); });
}

void register_player_cursor_block(SessionState& s, std::uint32_t id,
                                  std::string name,
                                  streaming::PlayerSyncCursor* c) {
  s.register_block(
      id, std::move(name), [c](StateWriter& w) { save_cursor(w, *c); },
      [c](StateReader& r) { *c = load_cursor(r); });
}

void register_player_reorder_block(SessionState& s, std::uint32_t id,
                                   std::string name, streaming::Player* p) {
  s.register_block(
      id, std::move(name),
      [p](StateWriter& w) {
        const auto snap = p->reorder_snapshot();
        w.marker(kMarkReorder);
        w.i64(snap.next_feed);
        w.i64(snap.repair_total);
        w.u8(snap.eos_received ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(snap.held.size()));
        for (const auto& [index, bytes] : snap.held) {
          w.u32(index);
          w.blob(bytes);
        }
      },
      [p](StateReader& r) {
        r.expect_marker(kMarkReorder);
        streaming::PlayerReorderSnapshot snap;
        snap.next_feed = r.i64();
        snap.repair_total = r.i64();
        snap.eos_received = r.u8() != 0;
        const std::uint32_t n = r.u32();
        snap.held.reserve(r.bounded_count(n, 4 + 4));
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::uint32_t index = r.u32();
          snap.held.emplace_back(index, r.blob());
        }
        p->restore_reorder(snap);
      });
}

void register_player_repair_block(SessionState& s, std::uint32_t id,
                                  std::string name, streaming::Player* p) {
  s.register_block(
      id, std::move(name),
      [p](StateWriter& w) {
        const auto snap = p->repair_snapshot();
        w.marker(kMarkRepair);
        w.i64(snap.highest_index);
        w.i64(snap.max_index_seen);
        w.u64(snap.repairs_requested);
        w.u64(snap.repairs_received);
        w.u32(static_cast<std::uint32_t>(snap.received.size()));
        for (const std::uint32_t index : snap.received) w.u32(index);
        w.u32(static_cast<std::uint32_t>(snap.nacks.size()));
        for (const auto& [index, attempts] : snap.nacks) {
          w.u32(index);
          w.u8(attempts);
        }
      },
      [p](StateReader& r) {
        r.expect_marker(kMarkRepair);
        streaming::PlayerRepairSnapshot snap;
        snap.highest_index = r.i64();
        snap.max_index_seen = r.i64();
        snap.repairs_requested = r.u64();
        snap.repairs_received = r.u64();
        const std::uint32_t nr = r.u32();
        snap.received.reserve(r.bounded_count(nr, 4));
        for (std::uint32_t i = 0; i < nr; ++i) snap.received.push_back(r.u32());
        const std::uint32_t nn = r.u32();
        snap.nacks.reserve(r.bounded_count(nn, 4 + 1));
        for (std::uint32_t i = 0; i < nn; ++i) {
          const std::uint32_t index = r.u32();
          snap.nacks.emplace_back(index, r.u8());
        }
        p->restore_repair(snap);
      });
}

void register_player_slide_cache_block(SessionState& s, std::uint32_t id,
                                       std::string name,
                                       streaming::Player* p) {
  s.register_block(
      id, std::move(name),
      [p](StateWriter& w) {
        const auto snap = p->slide_cache_snapshot();
        w.marker(kMarkSlide);
        w.u32(static_cast<std::uint32_t>(snap.cached.size()));
        for (const std::string& url : snap.cached) w.str(url);
      },
      [p](StateReader& r) {
        r.expect_marker(kMarkSlide);
        streaming::PlayerSlideCacheSnapshot snap;
        const std::uint32_t n = r.u32();
        snap.cached.reserve(r.bounded_count(n, 4));
        for (std::uint32_t i = 0; i < n; ++i) snap.cached.push_back(r.str());
        p->restore_slide_cache(snap);
      });
}

void register_player_trace_block(SessionState& s, std::uint32_t id,
                                 std::string name, streaming::Player* p) {
  s.register_block(
      id, std::move(name),
      [p](StateWriter& w) {
        w.marker(kMarkTrace);
        w.u64(p->session_context().trace_id);
        w.u64(p->session_root_span());
      },
      [p](StateReader& r) {
        r.expect_marker(kMarkTrace);
        const std::uint64_t trace_id = r.u64();
        const std::uint64_t root_span = r.u64();
        p->restore_session_trace(trace_id, root_span);
      });
}

void register_player_session_blocks(SessionState& s, streaming::Player* p) {
  register_player_block(s, kBlockPlayerCursor, "player.cursor", p);
  register_player_reorder_block(s, kBlockPlayerReorder, "player.reorder", p);
  register_player_repair_block(s, kBlockPlayerRepair, "player.repair", p);
  register_player_slide_cache_block(s, kBlockPlayerSlideCache, "player.slides",
                                    p);
  register_player_trace_block(s, kBlockPlayerTrace, "player.trace", p);
}

}  // namespace lod::sync
