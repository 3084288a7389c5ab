// Authoring a presentation with the specification language.
//
// The related-work systems the paper surveys (Authorware, ToolBook, ...)
// let designers wire presentations together with a script language. This is
// ours: the designer writes a declarative temporal spec; the system parses
// it, verifies the compiled Petri net (bounded, deadlock-free, no dead
// objects), derives the XOCPN channel schedule for the remote objects, and
// plays it through the extended engine — including a picky viewer.

#include <cstdio>
#include <cstdlib>

#include "lod/core/analysis.hpp"
#include "lod/core/etpn.hpp"
#include "lod/core/speclang.hpp"
#include "lod/core/xocpn.hpp"
#include "lod/net/network.hpp"

int main() {
  using namespace lod;

  const char* kSpec = R"(
    # Week 3: distributed multimedia, authored by hand.
    seq {
      video welcome (20s, 100kbps)
      gap (1s)
      equals {
        video talk (3m, 250kbps)            # the main lecture recording
        audio narration (3m, 64kbps)
      }
      during (30s) {
        video demo (2m, 250kbps)
        annotation callout (20s)            # highlight inside the demo
      }
      image closing (15s)
    }
  )";

  const auto spec = [&] {
    try {
      return core::parse_spec(kSpec);
    } catch (const core::SpecParseError& e) {
      std::printf("parse error: %s\n", e.what());
      std::exit(1);
    }
  }();
  std::printf("parsed %zu objects, total %0.0fs. Canonical form:\n\n%s\n",
              spec.object_count(), spec.duration().seconds(),
              core::format_spec(spec).c_str());

  // Compile to an OCPN and verify it the way the Petri-net literature says
  // a synchronization model should be verified.
  const auto compiled = core::build_ocpn(spec);
  const auto m0 = compiled.initial_marking();
  const auto bound = core::boundedness(compiled.net, m0);
  core::Marking final = compiled.net.empty_marking();
  final[compiled.sink] = 1;
  std::printf("net: %zu places, %zu transitions\n",
              compiled.net.place_count(), compiled.net.transition_count());
  std::printf("  %s-bounded:        %s\n",
              bound ? std::to_string(*bound).c_str() : "?",
              bound ? "yes" : "no");
  std::printf("  deadlock-free:    %s (final marking is the only rest)\n",
              core::has_unexpected_deadlock(compiled.net, m0, &final)
                  ? "NO"
                  : "yes");
  std::printf("  dead transitions: %zu\n",
              core::dead_transitions(compiled.net, m0).size());

  // XOCPN decoration: the remote objects need channels.
  core::CompiledOcpn annotated = compiled;
  core::apply_placement(annotated, {{"talk", {1, 250'000}},
                                    {"narration", {1, 64'000}},
                                    {"demo", {1, 250'000}}});
  const auto channels = core::derive_channel_schedule(annotated, net::sec(2));
  std::printf("\nchannel schedule (reserve 2s ahead), peak %.0f kb/s:\n",
              channels.peak_bps / 1000.0);
  for (const auto& c : channels.channels) {
    std::printf("  %-10s %6.0f kb/s  reserve at %5.0fs, release at %5.0fs\n",
                c.object.c_str(), c.rate_bps / 1000.0,
                c.reserve_at.seconds(), c.release_at.seconds());
  }

  // Play it interactively: the viewer pauses during the demo, then skips
  // to the closing.
  net::Simulator sim;
  net::Network network(sim);
  core::InteractivePlayout playout(network, compiled.net, m0);
  playout.on_media([&](core::PlaceId, const core::MediaBinding& m,
                       bool started, net::SimDuration pos) {
    std::printf("  [%6.1fs wall] %s %-10s (media %5.1fs)\n",
                sim.now().seconds(), started ? "start" : "stop ",
                m.object_name.c_str(), pos.seconds());
  });
  std::printf("\ninteractive playout:\n");
  playout.start();
  sim.run_until(net::SimTime{net::sec(230).us});
  std::printf("  [%6.1fs wall] viewer pauses...\n", sim.now().seconds());
  playout.pause();
  sim.run_until(net::SimTime{net::sec(245).us});
  playout.resume();
  std::printf("  [%6.1fs wall] ...resumes, then skips to the closing\n",
              sim.now().seconds());
  playout.seek(spec.duration() - net::sec(15));
  sim.run();
  std::printf("finished at wall %.1fs\n", sim.now().seconds());
  return playout.finished() ? 0 : 1;
}
