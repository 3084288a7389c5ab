#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lod/media/drm.hpp"
#include "lod/net/network.hpp"
#include "lod/obs/flight.hpp"
#include "lod/media/sources.hpp"
#include "lod/streaming/encoder.hpp"
#include "lod/lod/abstraction.hpp"
#include "lod/streaming/server.hpp"

/// \file wmps.hpp
/// The Web-based Multimedia Presentation System node (§2.5, Fig. 5).
///
/// One machine running everything the paper's server side runs: the
/// configuration module, the web publishing manager, the streaming service,
/// the web (slide) service, and the DRM license authority.
///
/// Fig. 5 workflow: "(a) Fill the path in the form for publishing — user must
/// fill the path of video file (MPEG4) and the directory of the presented
/// slides. Our system could make the video and presented slides synchronized
/// with the temporal script commands as an advanced stream format (ASF) file
/// automatically. (b) replay the representation — when user replayed the
/// presentation by media player, the orchestrated ASF file will show the
/// video and the presented slides."
///
/// There is no real filesystem in the simulation, so "paths" name entries in
/// an asset registry: `register_video` / `register_slides` stand in for the
/// files existing on disk. Everything downstream of the form is the paper's
/// pipeline: slide schedule -> temporal script commands -> encode -> mux ->
/// publish under a URL -> replay through the media player.

namespace lod::lod {

/// A recorded lecture "file" (registered under a path).
struct VideoAsset {
  net::SimDuration duration{net::sec(1800)};
  double fps{15.0};
  std::uint16_t width{320};
  std::uint16_t height{240};
  std::uint64_t seed{7};
  std::uint32_t annotation_count{0};  ///< teacher ink recorded with the talk
};

/// A slide "directory" (registered under a path).
struct SlideAsset {
  std::uint32_t count{0};
  std::uint64_t seed{13};
};

/// What the user types into Fig. 5(a)'s form.
struct PublishForm {
  std::string video_path;   ///< must be registered via register_video
  std::string slide_dir;    ///< must be registered via register_slides
  std::string profile;      ///< bandwidth profile name (§2.5 profile window)
  std::string title{"Untitled lecture"};
  std::string author{"unknown"};
  bool protect_drm{false};
  std::string publish_name;  ///< the URL the content appears under
};

/// What the publishing manager reports back.
struct PublishResult {
  bool ok{false};
  std::string error;
  std::string url;             ///< content name to hand to a Player
  std::size_t packets{0};
  std::size_t script_commands{0};
  std::size_t wire_bytes{0};
  media::KeyId key_id;         ///< non-empty when DRM-protected
};

/// The WMPS server node.
class WmpsNode {
 public:
  /// Binds the streaming control port, the web port and the license service
  /// on \p host.
  WmpsNode(net::Network& net, net::HostId host);

  // --- asset registry (stand-in for files on disk) -----------------------------

  void register_video(std::string path, VideoAsset asset);
  void register_slides(std::string dir, SlideAsset asset);

  // --- the web publishing manager (Fig. 5a) --------------------------------------

  /// Validate the form, build the slide schedule + script commands, encode,
  /// mux, publish under form.publish_name, and serve the slide images.
  PublishResult publish(const PublishForm& form);

  /// Extension over the paper's workflow: publish the level-q ABSTRACTION of
  /// a segmented lecture as its own URL. The abstracted presentation plays
  /// the content tree's level-q playlist back to back (duration ==
  /// tree.presentation_time(level)); slides follow the playlist; the slide
  /// directory must still be registered. `form.video_path` must name the
  /// registered full recording (its seed keys the synthetic content).
  PublishResult publish_abstraction(const PublishForm& form,
                                    const std::vector<LectureSegment>& segments,
                                    int level);

  /// The slide schedule generated for a published URL (for validation).
  const std::vector<net::SimDuration>* slide_schedule(
      const std::string& url) const;
  /// Annotations muxed for a published URL.
  const std::vector<media::Annotation>* published_annotations(
      const std::string& url) const;

  // --- distributed edge tier ---------------------------------------------------

  /// Register an edge replica site serving this node's published content.
  /// The edge node itself belongs to the deployment; the WMPS tracks the
  /// candidate-site list that session setup hands to replica selection.
  void register_edge(net::HostId edge) {
    if (std::find(edge_sites_.begin(), edge_sites_.end(), edge) ==
        edge_sites_.end()) {
      edge_sites_.push_back(edge);
    }
  }
  const std::vector<net::HostId>& edge_sites() const { return edge_sites_; }
  /// Every site a session may open against: edges first, the origin last
  /// (mirrors `ReplicaSelector`'s ordering contract).
  std::vector<net::HostId> candidate_sites() const {
    std::vector<net::HostId> sites = edge_sites_;
    sites.push_back(host_);
    return sites;
  }

  // --- services --------------------------------------------------------------------

  streaming::StreamingServer& media_services() { return server_; }
  media::DrmSystem& license_authority() { return drm_; }
  net::HostId host() const { return host_; }

  /// Remote publishing: the node also accepts the form over RPC at
  /// /publish (body = serialized PublishForm), like submitting Fig. 5(a)
  /// from a browser. Serialization helpers:
  static std::vector<std::byte> serialize_form(const PublishForm& form);
  static PublishForm parse_form(std::span<const std::byte> bytes);

 private:
  void serve_slides(const std::string& dir, const SlideAsset& asset);
  PublishResult publish_impl(const PublishForm& form);
  PublishResult publish_abstraction_impl(
      const PublishForm& form, const std::vector<LectureSegment>& segments,
      int level);
  /// Publish accounting: `lod.wmps.*` counters + the kPublish trace event
  /// (tagged into \p ctx, the "wmps.publish" span minted by the caller).
  void record_publish(const PublishResult& res,
                      const obs::TraceContext& ctx = {});

  net::Network& net_;
  net::HostId host_;
  streaming::StreamingServer server_;
  net::RpcServer web_;
  media::DrmSystem drm_;
  obs::Counter m_publishes_;
  obs::Counter m_publish_errors_;
  std::vector<net::HostId> edge_sites_;
  std::unordered_map<std::string, VideoAsset> videos_;
  std::unordered_map<std::string, SlideAsset> slides_;
  std::unordered_map<std::string, std::vector<net::SimDuration>> schedules_;
  std::unordered_map<std::string, std::vector<media::Annotation>> annotations_;
};

}  // namespace lod::lod
