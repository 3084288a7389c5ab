// Lecture abstraction with the multiple-level content tree (§2.2, Fig. 6).
//
// A 10-minute recorded lecture is segmented into a 3-level content tree.
// Each level is a progressively longer presentation of the same material:
// level 0 is the 1-minute overview, level 2 is the whole lecture. For each
// level we build the playlist, compile it to an OCPN, and play it through
// the interactive engine — including a viewer who speeds up and skips.

#include <cstdio>

#include "lod/core/etpn.hpp"
#include "lod/lod/abstraction.hpp"
#include "lod/net/network.hpp"

int main() {
  using namespace lod;
  namespace app = ::lod::lod;
  using app::LectureSegment;

  // Segment the lecture (a teaching assistant would do this in the UI).
  const std::vector<LectureSegment> segments = {
      {"overview", 0, net::sec(0), net::sec(60), 0},
      {"petri-nets", 1, net::sec(60), net::sec(180), 1},
      {"ocpn-detail", 2, net::sec(180), net::sec(300), 2},
      {"xocpn-detail", 2, net::sec(300), net::sec(390), 3},
      {"system-demo", 1, net::sec(390), net::sec(540), 4},
      {"qa", 2, net::sec(540), net::sec(600), 5},
  };
  const auto tree = app::build_lecture_tree(segments);

  std::printf("content tree (%zu segments, highest level %d):\n%s\n",
              tree.size(), tree.highest_level(), tree.to_string().c_str());

  std::printf("%-6s %14s %14s  playlist\n", "level", "LevelNodes[q]",
              "presentation");
  for (int lvl = 0; lvl <= tree.highest_level(); ++lvl) {
    std::printf("%-6d %13.0fs %13.0fs  ", lvl,
                tree.level_value(lvl).seconds(),
                tree.presentation_time(lvl).seconds());
    for (const auto& e : app::level_playlist(tree, lvl)) {
      std::printf("%s ", e.name.c_str());
    }
    std::printf("\n");
  }

  // Play the level-1 abstraction (overview + section summaries) through the
  // extended timed Petri net engine, with a viewer in a hurry.
  const auto spec = app::level_spec(tree, 1);
  const auto compiled = core::build_ocpn(spec);
  net::Simulator sim;
  net::Network network(sim);
  core::InteractivePlayout playout(network, compiled.net,
                                   compiled.initial_marking());
  playout.on_media([&](core::PlaceId, const core::MediaBinding& m,
                       bool started, net::SimDuration pos) {
    if (started) {
      std::printf("  [%7.1fs wall] start %-12s (media %5.1fs)\n",
                  sim.now().seconds(), m.object_name.c_str(), pos.seconds());
    }
  });

  std::printf("\nlevel-1 abstraction playout (%0.0fs of material):\n",
              spec.duration().seconds());
  playout.start();
  sim.run_until(net::SimTime{net::sec(70).us});
  std::printf("  [%7.1fs wall] viewer switches to 2x speed\n",
              sim.now().seconds());
  playout.set_rate(2.0);
  sim.run_until(net::SimTime{net::sec(100).us});
  std::printf("  [%7.1fs wall] viewer skips to the demo\n",
              sim.now().seconds());
  playout.seek(net::sec(180));  // start of system-demo in the abstraction
  sim.run();
  std::printf("finished at wall %.1fs (media makespan %.1fs)\n",
              sim.now().seconds(), playout.makespan().seconds());

  return playout.finished() ? 0 : 1;
}
