#include "lod/lod/adaptive.hpp"

#include <algorithm>

namespace lod::lod {

MultirateResult publish_multirate(WmpsNode& node, const PublishForm& form,
                                  const std::vector<std::string>& profiles) {
  MultirateResult out;
  for (const auto& profile_name : profiles) {
    const auto profile = media::find_profile(profile_name);
    if (!profile) {
      out.error = "no such bandwidth profile: " + profile_name;
      return out;
    }
    PublishForm f = form;
    f.profile = profile_name;
    f.publish_name = form.publish_name + "@" + profile_name;
    const PublishResult res = node.publish(f);
    if (!res.ok) {
      out.error = res.error;
      return out;
    }
    out.ladder.push_back(Rendition{res.url, profile_name, profile->total_bps});
  }
  std::sort(out.ladder.begin(), out.ladder.end(),
            [](const Rendition& a, const Rendition& b) {
              return a.total_bps > b.total_bps;
            });
  out.ok = !out.ladder.empty();
  if (!out.ok) out.error = "no profiles given";
  return out;
}

void AdaptivePlayer::play(net::HostId server, std::vector<Rendition> ladder,
                          net::SimDuration from) {
  ladder_ = std::move(ladder);
  switches_.clear();
  std::vector<std::string> urls;
  for (const auto& r : ladder_) urls.push_back(r.url);
  player_.open_and_play_ladder(server, std::move(urls), from);
}

const std::vector<AdaptivePlayer::Switch>& AdaptivePlayer::switches() const {
  const auto& shifts = player_.downshifts();
  for (std::size_t i = switches_.size(); i < shifts.size(); ++i) {
    switches_.push_back(Switch{shifts[i].at, ladder_[i].profile,
                               ladder_[i + 1].profile, shifts[i].position});
  }
  return switches_;
}

const std::string& AdaptivePlayer::current_profile() const {
  static const std::string kNone;
  return ladder_.empty() ? kNone : ladder_[player_.rendition()].profile;
}

}  // namespace lod::lod
