// P3 — ASF container throughput: mux, demux, serialize, index, DRM.

#include <benchmark/benchmark.h>

#include "lod/media/asf.hpp"
#include "lod/media/codec.hpp"
#include "lod/media/profile.hpp"
#include "lod/media/sources.hpp"

#include "bench_json.hpp"

using namespace lod::media;
using lod::net::msec;
using lod::net::sec;
using lod::net::secf;

namespace {

asf::Header header_for(std::int64_t seconds) {
  asf::Header h;
  h.props.title = "bench";
  h.props.play_duration = sec(seconds);
  h.props.packet_bytes = 1400;
  h.streams = {{1, MediaType::kVideo, "MPEG-4", 186'000, 320, 240, 0},
               {2, MediaType::kAudio, "WMA", 64'000, 0, 0, 44'100}};
  return h;
}

/// Encode `seconds` of lecture into units (shared fixture).
std::vector<EncodedUnit> make_units(std::int64_t seconds) {
  const auto profile = *find_profile("Video 250k DSL/cable");
  auto v = make_video_codec(profile.video_codec);
  v->configure(profile.video_config());
  auto a = make_audio_codec(profile.audio_codec);
  a->configure(profile.audio_config());
  std::vector<EncodedUnit> units;
  LectureVideoSource vs(sec(seconds), profile.fps, 320, 240, 3);
  VideoFrame f;
  std::uint64_t i = 0;
  while (vs.next(f)) {
    auto u = v->encode(f, i++);
    u.stream_id = 1;
    units.push_back(u);
  }
  LectureAudioSource as(sec(seconds), 44'100);
  AudioBlock b;
  while (as.next(b)) {
    auto u = a->encode(b);
    u.stream_id = 2;
    units.push_back(u);
  }
  return units;
}

asf::File make_file(std::int64_t seconds) {
  asf::Muxer mux(header_for(seconds));
  for (const auto& u : make_units(seconds)) mux.add_unit(u);
  return mux.finalize();
}

void BM_Mux(benchmark::State& state) {
  const auto seconds = state.range(0);
  const auto units = make_units(seconds);
  for (auto _ : state) {
    asf::Muxer mux(header_for(seconds));
    for (const auto& u : units) mux.add_unit(u);
    auto f = mux.finalize();
    benchmark::DoNotOptimize(f.packets.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(units.size()));
}
BENCHMARK(BM_Mux)->Arg(10)->Arg(60)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_Demux(benchmark::State& state) {
  const auto file = make_file(state.range(0));
  for (auto _ : state) {
    asf::Demuxer d(file.header);
    std::size_t n = 0;
    for (const auto& p : file.packets) {
      d.feed(p);
      while (d.next_unit()) ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(file.packets.size()));
}
BENCHMARK(BM_Demux)->Arg(10)->Arg(60)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_SerializeParse(benchmark::State& state) {
  const auto file = make_file(state.range(0));
  for (auto _ : state) {
    auto bytes = asf::serialize(file);
    auto g = asf::parse(lod::net::Payload(std::move(bytes)));
    benchmark::DoNotOptimize(g.packets.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(file.wire_size()));
}
BENCHMARK(BM_SerializeParse)->Arg(10)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_BuildIndex(benchmark::State& state) {
  auto file = make_file(state.range(0));
  for (auto _ : state) {
    asf::build_index(file, sec(5));
    benchmark::DoNotOptimize(file.index.size());
  }
}
BENCHMARK(BM_BuildIndex)->Arg(60)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_Seek(benchmark::State& state) {
  const auto file = make_file(300);
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(asf::seek_packet(file, secf(t % 300)));
    t += 7;
  }
}
BENCHMARK(BM_Seek);

void BM_DrmKeystream(benchmark::State& state) {
  DrmSystem drm;
  const auto key = drm.create_key("bench");
  auto data = asf::pattern_bytes(static_cast<std::size_t>(state.range(0)), 1);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    drm.apply_keystream(key, nonce++, data);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DrmKeystream)->Arg(1400)->Arg(65536)->Arg(1 << 20);

void BM_EncodeVideoMinute(benchmark::State& state) {
  const auto profile = *find_profile("Video 250k DSL/cable");
  for (auto _ : state) {
    auto codec = make_video_codec(profile.video_codec);
    codec->configure(profile.video_config());
    LectureVideoSource vs(sec(60), profile.fps, 320, 240, 3);
    VideoFrame f;
    std::uint64_t i = 0;
    std::uint64_t bytes = 0;
    while (vs.next(f)) bytes += codec->encode(f, i++).bytes;
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * 900);  // frames
}
BENCHMARK(BM_EncodeVideoMinute)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ::lod::bench::emit_json("bench_p3_asf", "benchmarks_run",
                        static_cast<double>(ran));
  return ran > 0 ? 0 : 1;
}
