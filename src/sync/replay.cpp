#include "lod/sync/replay.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

namespace lod::sync {

namespace {

constexpr std::uint32_t kMarkInputs = 0x494e5054u;  // 'INPT'

/// The canonical journal order: session-major, then time, then kind —
/// exactly the order `LoadGen::planned_inputs` emits, so a recorded journal
/// compares equal to the plan it came from.
void sort_inputs(std::vector<::lod::lod::SessionInput>& v) {
  std::sort(v.begin(), v.end(), [](const ::lod::lod::SessionInput& a,
                                   const ::lod::lod::SessionInput& b) {
    return std::tuple(a.session, a.t_us, static_cast<std::uint8_t>(a.kind),
                      a.arg_us) < std::tuple(b.session, b.t_us,
                                             static_cast<std::uint8_t>(b.kind),
                                             b.arg_us);
  });
}

}  // namespace

SessionRecorder::SessionRecorder()
    : flight_(obs::FlightRecorder::Config{.lanes = 1, .capacity = 1u << 15}) {}

void SessionRecorder::record(const ::lod::lod::SessionInput& in) {
  flight_.record_at(in.t_us, obs::FlightType::kInput, in.session,
                    static_cast<std::uint64_t>(in.kind),
                    static_cast<std::uint64_t>(in.arg_us), /*lane=*/0);
}

std::function<void(const ::lod::lod::SessionInput&)> SessionRecorder::tap() {
  return [this](const ::lod::lod::SessionInput& in) { record(in); };
}

std::vector<::lod::lod::SessionInput> SessionRecorder::inputs() const {
  std::vector<::lod::lod::SessionInput> out;
  for (const obs::FlightEvent& e : flight_.events(/*lane=*/0)) {
    if (e.type != obs::FlightType::kInput) continue;
    ::lod::lod::SessionInput in;
    in.t_us = e.t;
    in.session = e.actor;
    in.kind = static_cast<::lod::lod::InputKind>(e.a);
    in.arg_us = static_cast<std::int64_t>(e.b);
    out.push_back(in);
  }
  return out;
}

std::uint64_t SessionRecorder::dropped() const { return flight_.dropped(); }

std::vector<std::byte> serialize_input_log(const InputLog& log) {
  StateWriter w;
  w.u32(kInputLogMagic);
  w.u16(kInputLogVersion);
  w.u64(log.root_seed);
  w.u32(log.sessions);
  w.marker(kMarkInputs);
  w.u32(static_cast<std::uint32_t>(log.records.size()));
  for (const ::lod::lod::SessionInput& in : log.records) {
    w.i64(in.t_us);
    w.u32(in.session);
    w.u8(static_cast<std::uint8_t>(in.kind));
    w.i64(in.arg_us);
  }
  const std::uint64_t sum = checksum64(w.bytes());
  w.u64(sum);
  return std::move(w).take();
}

InputLog parse_input_log(std::span<const std::byte> bytes) {
  if (bytes.size() < 8) {
    throw std::runtime_error("InputLog: truncated (no checksum)");
  }
  const auto body = bytes.first(bytes.size() - 8);
  StateReader tail(bytes.subspan(bytes.size() - 8));
  if (tail.u64() != checksum64(body)) {
    throw std::runtime_error("InputLog: checksum mismatch");
  }
  StateReader r(body);
  if (r.u32() != kInputLogMagic) {
    throw std::runtime_error("InputLog: bad magic");
  }
  const std::uint16_t version = r.u16();
  if (version != kInputLogVersion) {
    throw std::runtime_error("InputLog: unsupported version " +
                             std::to_string(version));
  }
  InputLog log;
  log.root_seed = r.u64();
  log.sessions = r.u32();
  r.expect_marker(kMarkInputs);
  const std::uint32_t n = r.u32();
  log.records.reserve(r.bounded_count(n, 8 + 4 + 1 + 8));
  for (std::uint32_t i = 0; i < n; ++i) {
    ::lod::lod::SessionInput in;
    in.t_us = r.i64();
    in.session = r.u32();
    in.kind = static_cast<::lod::lod::InputKind>(r.u8());
    in.arg_us = r.i64();
    log.records.push_back(in);
  }
  return log;
}

RecordedRun record_loadgen_run(const ::lod::lod::WorkloadSpec& spec,
                               std::size_t shards, std::uint64_t root_seed,
                               bool enable_trace) {
  const std::size_t n = shards == 0 ? 1 : shards;
  // One recorder per shard: flight lanes are single-writer, and the shard
  // bodies run on their own worker threads.
  std::vector<std::unique_ptr<SessionRecorder>> recorders;
  recorders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    recorders.push_back(std::make_unique<SessionRecorder>());
  }

  net::ShardedRunner runner(shards, root_seed, enable_trace);
  RecordedRun out;
  out.result = runner.run([&](net::ShardEnv& env) {
    ::lod::lod::LoadGen gen(env.sim, spec, root_seed, env.shard,
                            env.shard_count);
    gen.set_input_tap(recorders[env.shard]->tap());
    gen.run();
  });

  out.log.root_seed = root_seed;
  out.log.sessions = static_cast<std::uint32_t>(spec.sessions);
  for (const auto& rec : recorders) {
    if (rec->dropped() != 0) {
      throw std::runtime_error("record_loadgen_run: journal ring overflowed");
    }
    auto ins = rec->inputs();
    out.log.records.insert(out.log.records.end(), ins.begin(), ins.end());
  }
  sort_inputs(out.log.records);
  return out;
}

net::ShardedResult replay_loadgen_run(const ::lod::lod::WorkloadSpec& spec,
                                      std::size_t shards, const InputLog& log,
                                      bool enable_trace) {
  net::ShardedRunner runner(shards, log.root_seed, enable_trace);
  return runner.run([&](net::ShardEnv& env) {
    ::lod::lod::LoadGen gen(env.sim, spec, log.root_seed, env.shard,
                            env.shard_count);
    gen.run(log.records);
  });
}

}  // namespace lod::sync
