#pragma once

#include <cstddef>
#include <cstdint>

#include "lod/net/bytes.hpp"
#include "lod/net/transport_base.hpp"
#include "lod/obs/flight.hpp"

/// \file protocol.hpp
/// Wire protocol between streaming server and players.
///
/// Control messages (RTSP-in-spirit: DESCRIBE / PLAY / PAUSE / SEEK / STOP,
/// plus a two-timestamp TIMESYNC used by the extended model's clock
/// synchronization) travel over the reliable endpoint. Media data packets
/// travel over datagrams — late media is dead media, retransmission would
/// only add delay.
///
/// Causal trace context (trace_id u64 + parent_span_id u64) piggybacks at
/// the TAIL of kDescribe and kPlay payloads (and of the edge tier's RPC
/// bodies). Readers take it with `read_trace_context` only when bytes
/// remain, so payloads from pre-span senders still parse.

namespace lod::streaming::proto {

/// Control message tags (client -> server unless noted).
enum class Ctl : std::uint8_t {
  kDescribe = 1,     ///< name -> kDescribeOk{header bytes} | kError
  kPlay = 2,         ///< name, from_us, data_port, channel -> kPlayOk{session}
  kPause = 3,        ///< session
  kResume = 4,       ///< session
  kSeek = 5,         ///< session, to_us
  kStop = 6,         ///< session
  kTimeSync = 7,     ///< client_local_us -> kTimeSyncReply
  kJoinLive = 8,     ///< name, data_port -> kPlayOk{session} (broadcast join)
  kLeaveLive = 9,    ///< session
  kSetRate = 10,     ///< session, rate_permille, channel (speed control)
  kRepair = 11,      ///< session, count, packet indices (selective NACK)
  // server -> client:
  kDescribeOk = 64,
  kPlayOk = 65,
  kTimeSyncReply = 66,  ///< echo client_local_us + server_local_us
  kError = 67,
  kEndOfStream = 68,    ///< session: all packets sent
};

/// Fixed well-known ports.
inline constexpr net::Port kControlPort = 554;   // homage to RTSP
inline constexpr net::Port kLicensePort = 443;   // DRM license RPC
inline constexpr net::Port kWebPort = 80;        // slide/web server RPC

/// Per-datagram data framing:
/// [magic u32][session u64][epoch u32][seq u64][packet_index u32][blob].
/// `epoch` counts stream discontinuities (seeks) within a session, so a
/// client can drop stragglers from before the jump; `seq` is the
/// per-session transmission counter (gap detection); `packet_index`
/// identifies the file packet (repair requests + dedup — a repaired packet
/// arrives with a fresh seq but the same index).
inline constexpr std::uint32_t kDataMagic = 0x4c4f4444;  // "LODD"
/// Bytes of the data header before the blob (4 + 8 + 4 + 8 + 4).
inline constexpr std::size_t kDataHeaderBytes = 28;

/// A playback rate as kSetRate carries it: the nearest whole permille, or 0
/// (no such rate) when that is not positive or overflows a u32.
inline std::uint32_t rate_permille(double rate) {
  const double permille = rate * 1000.0 + 0.5;
  return permille >= 1.0 && permille < 4294967296.0
             ? static_cast<std::uint32_t>(permille)
             : 0;
}

/// Live session migration (LODR RPC `/edge/migrate`, served by replicas at
/// `control_port + kMigratePortOffset`). A player abandoning a dead site
/// freezes the session, ships its state image to the selector's next pick,
/// and resumes against the adopted session — no re-DESCRIBE, no replayed
/// media. Request body:
///   [magic u32][version u16][content str]
///   [client_host u32][client_ctl_port u16][client_data_port u16]
///   [resume_index u32 (u32::max = derive from position)]
///   [position_us i64][stream_epoch u32][rate f64][paused u8]
///   [trace_id u64][parent_span u64][state_image blob]
/// Reply (status 200): [session_id u64][start_index u32]. A replica without
/// the content meta in hand answers 503 (adoption is synchronous) and the
/// player falls back to the describe path, which knows how to park.
inline constexpr net::Port kMigratePortOffset = 3;
inline constexpr std::uint32_t kMigrateMagic = 0x4c4d4947;  // "LMIG"
inline constexpr std::uint16_t kMigrateVersion = 1;

/// Read the optional trailing trace context. Returns an invalid (all-zero)
/// context when the sender predates span propagation or had tracing off.
inline obs::TraceContext read_trace_context(net::ByteReader& r) {
  obs::TraceContext ctx;
  if (r.remaining() >= 16) {
    ctx.trace_id = r.u64();
    ctx.parent_span_id = r.u64();
  }
  return ctx;
}

/// Append a trace context at the tail of an outgoing payload.
inline void write_trace_context(net::ByteWriter& w,
                                const obs::TraceContext& ctx) {
  w.u64(ctx.trace_id);
  w.u64(ctx.parent_span_id);
}

}  // namespace lod::streaming::proto
