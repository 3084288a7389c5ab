#include "lod/lod/adaptive.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/spantree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

namespace lod::lod {
namespace {

using net::msec;
using net::sec;
using net::SimTime;

struct AdaptiveFixture : ::testing::Test {
  AdaptiveFixture() : network(sim, 61) {
    server_host = network.add_host("server");
    client_host = network.add_host("client");
    link.bandwidth_bps = 10'000'000;
    link.latency = msec(10);
    network.add_link(server_host, client_host, link);
    node = std::make_unique<WmpsNode>(network, server_host);
    VideoAsset video;
    video.duration = sec(120);
    node->register_video("lec.mp4", video);
    node->register_slides("slides", SlideAsset{2, 13});
  }

  MultirateResult publish_ladder() {
    PublishForm form;
    form.video_path = "lec.mp4";
    form.slide_dir = "slides";
    form.publish_name = "lec";
    return publish_multirate(
        *node, form,
        {"Video 100k dual-ISDN", "Video 250k DSL/cable", "Video 28.8k"});
  }

  net::Simulator sim;
  net::Network network;
  net::HostId server_host{}, client_host{};
  net::LinkConfig link;
  std::unique_ptr<WmpsNode> node;
};

TEST_F(AdaptiveFixture, MultiratePublishesSortedLadder) {
  const auto res = publish_ladder();
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.ladder.size(), 3u);
  // Sorted by descending rate regardless of request order.
  EXPECT_EQ(res.ladder[0].profile, "Video 250k DSL/cable");
  EXPECT_EQ(res.ladder[1].profile, "Video 100k dual-ISDN");
  EXPECT_EQ(res.ladder[2].profile, "Video 28.8k");
  for (const auto& r : res.ladder) {
    EXPECT_TRUE(node->media_services().has(r.url)) << r.url;
    EXPECT_EQ(r.url, "lec@" + r.profile);
  }
}

TEST_F(AdaptiveFixture, MultirateFailsOnUnknownProfile) {
  PublishForm form;
  form.video_path = "lec.mp4";
  form.slide_dir = "slides";
  form.publish_name = "lec";
  const auto res = publish_multirate(*node, form, {"Video 9000k hologram"});
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(publish_multirate(*node, form, {}).ok);
}

TEST_F(AdaptiveFixture, FastLinkNeverSwitches) {
  const auto ladder = publish_ladder();
  ASSERT_TRUE(ladder.ok);
  AdaptivePlayer::Options opts;
  opts.player.web_server = server_host;
  AdaptivePlayer ap(network, client_host, opts);
  ap.play(server_host, ladder.ladder);
  sim.run_until(SimTime{sec(600).us});
  EXPECT_TRUE(ap.finished());
  EXPECT_TRUE(ap.switches().empty());
  EXPECT_EQ(ap.current_profile(), "Video 250k DSL/cable");
}

TEST_F(AdaptiveFixture, ThinLinkDownshiftsAndFinishes) {
  // 160 kb/s access link: the 250k rendition rebuffers, the 100k one is
  // marginal, the 28.8k one is comfortable.
  net::LinkConfig thin;
  thin.bandwidth_bps = 160'000;
  thin.latency = msec(20);
  network.set_link_config(server_host, client_host, thin);
  network.set_link_config(client_host, server_host, thin);

  const auto ladder = publish_ladder();
  ASSERT_TRUE(ladder.ok);
  AdaptivePlayer::Options opts;
  opts.player.web_server = server_host;
  opts.player.model = streaming::SyncModel::kEtpn;
  AdaptivePlayer ap(network, client_host, opts);
  ap.play(server_host, ladder.ladder);
  sim.run_until(SimTime{sec(1200).us});

  EXPECT_TRUE(ap.finished());
  ASSERT_GE(ap.switches().size(), 1u);
  EXPECT_EQ(ap.switches()[0].from, "Video 250k DSL/cable");
  EXPECT_NE(ap.current_profile(), "Video 250k DSL/cable");
  // The switch resumed from (close to) where the stalled rendition stopped —
  // it did not start over.
  EXPECT_GT(ap.switches()[0].position.us, 0);
}

TEST_F(AdaptiveFixture, SwitchKeepsPositionMonotone) {
  net::LinkConfig thin;
  thin.bandwidth_bps = 160'000;
  thin.latency = msec(20);
  network.set_link_config(server_host, client_host, thin);
  network.set_link_config(client_host, server_host, thin);

  const auto ladder = publish_ladder();
  ASSERT_TRUE(ladder.ok);
  AdaptivePlayer::Options opts;
  opts.player.web_server = server_host;
  AdaptivePlayer ap(network, client_host, opts);
  ap.play(server_host, ladder.ladder);
  sim.run_until(SimTime{sec(1200).us});
  ASSERT_TRUE(ap.finished());
  // After the final switch, rendering covered from the switch position to
  // the end of the lecture. The render history spans the whole session, so
  // the first unit of the final rendition is the first rendered after it.
  if (!ap.switches().empty()) {
    const auto& last = ap.switches().back();
    ASSERT_FALSE(ap.player().rendered().empty());
    std::optional<streaming::RenderEvent> first_after;
    for (const auto& ev : ap.player().rendered()) {
      if (ev.true_time > last.at) {
        first_after = ev;
        break;
      }
    }
    ASSERT_TRUE(first_after.has_value());
    EXPECT_GE(first_after->pts + msec(500), last.position);
    EXPECT_GT(ap.player().rendered().back().pts, sec(115));
  }
}

// A downshift is a reopen on the one session, not a new player: it keeps
// the ports, the render history and the trace, and a switch taken during a
// stall resumes just past the last unit shown, not at the stalled clock's
// overshooting position.
TEST_F(AdaptiveFixture, DownshiftKeepsOneSession) {
  for (const std::int64_t bps : {160'000, 50'000}) {
    SCOPED_TRACE(bps);
    net::Simulator s;
    net::Network net(s, 61);
    const net::HostId server = net.add_host("server");
    const net::HostId client = net.add_host("client");
    net::LinkConfig thin;
    thin.bandwidth_bps = bps;
    thin.latency = msec(20);
    net.add_link(server, client, thin);
    WmpsNode wmps(net, server);
    VideoAsset video;
    video.duration = sec(120);
    wmps.register_video("lec.mp4", video);
    wmps.register_slides("slides", SlideAsset{2, 13});
    PublishForm form;
    form.video_path = "lec.mp4";
    form.slide_dir = "slides";
    form.publish_name = "lec";
    const auto ladder = publish_multirate(
        wmps, form,
        {"Video 250k DSL/cable", "Video 100k dual-ISDN", "Video 28.8k"});
    ASSERT_TRUE(ladder.ok);
    s.obs().flight().set_tracing(true);

    AdaptivePlayer::Options opts;
    opts.player.web_server = server;
    AdaptivePlayer ap(net, client, opts);
    ap.play(server, ladder.ladder);
    const streaming::Player* before = &ap.player();
    s.run_until(SimTime{sec(1200).us});
    ASSERT_TRUE(ap.finished());
    ASSERT_GE(ap.switches().size(), 1u);
    EXPECT_EQ(&ap.player(), before);

    const auto& log = ap.player().rendered();
    const auto& shifts = ap.player().downshifts();
    ASSERT_EQ(shifts.size(), ap.switches().size());
    std::size_t stalled = 0;
    for (std::size_t i = 0; i < shifts.size(); ++i) {
      EXPECT_EQ(shifts[i].position, ap.switches()[i].position);
      if (!shifts[i].stalled) continue;
      ++stalled;
      std::optional<net::SimDuration> last_shown;
      for (const auto& ev : log) {
        if (ev.true_time > shifts[i].at) break;
        last_shown = ev.pts;
      }
      ASSERT_TRUE(last_shown.has_value());
      EXPECT_EQ(ap.switches()[i].position, *last_shown + net::SimDuration{1});
    }
    EXPECT_GE(stalled, 1u);

    // Render order is monotone per stream across every switch: nothing is
    // shown twice and nothing goes back.
    std::map<int, net::SimDuration> last_pts;
    for (const auto& ev : log) {
      auto [it, fresh] = last_pts.emplace(ev.stream_id, ev.pts);
      if (!fresh) {
        EXPECT_GT(ev.pts, it->second) << "stream " << ev.stream_id;
        it->second = ev.pts;
      }
    }

    // One session trace: the reopens stay under the original root.
    const auto trees = obs::build_span_trees(s.obs().flight().trace_events());
    ASSERT_EQ(trees.size(), 1u);
    EXPECT_TRUE(trees[0].orphans.empty());
    ASSERT_TRUE(trees[0].root());
    EXPECT_EQ(trees[0].root()->name, "player.session");
  }
}

TEST_F(AdaptiveFixture, RunsOutOfLadderGracefully) {
  // Hopeless 20 kb/s link: it downshifts to the floor and keeps trying.
  net::LinkConfig hopeless;
  hopeless.bandwidth_bps = 20'000;
  hopeless.latency = msec(50);
  network.set_link_config(server_host, client_host, hopeless);
  network.set_link_config(client_host, server_host, hopeless);

  const auto ladder = publish_ladder();
  ASSERT_TRUE(ladder.ok);
  AdaptivePlayer::Options opts;
  opts.player.web_server = server_host;
  AdaptivePlayer ap(network, client_host, opts);
  ap.play(server_host, ladder.ladder);
  sim.run_until(SimTime{sec(900).us});
  // Bottom of the ladder reached; no crash, no further switches possible.
  EXPECT_EQ(ap.current_profile(), "Video 28.8k");
  EXPECT_EQ(ap.switches().size(), 2u);
}

}  // namespace
}  // namespace lod::lod
