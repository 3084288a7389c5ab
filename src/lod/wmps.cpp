#include "lod/lod/wmps.hpp"

#include "lod/media/profile.hpp"
#include "lod/streaming/protocol.hpp"

namespace lod::lod {

using net::ByteReader;
using net::ByteWriter;

WmpsNode::WmpsNode(net::Network& net, net::HostId host)
    : net_(net),
      host_(host),
      server_(net, host),
      web_(net, host, streaming::proto::kWebPort) {
  auto& reg = net_.simulator().obs().metrics();
  m_publishes_ = reg.counter("lod.wmps.publishes");
  m_publish_errors_ = reg.counter("lod.wmps.publish_errors");
  // Remote Fig. 5(a): accept the publishing form over the web port.
  web_.route("/publish", [this](std::string_view,
                                std::span<const std::byte> body) {
    PublishForm form;
    try {
      form = parse_form(body);
    } catch (const std::exception&) {
      return std::make_pair(400, std::vector<std::byte>{});
    }
    const PublishResult res = publish(form);
    ByteWriter w;
    w.u8(res.ok ? 1 : 0);
    w.str(res.ok ? res.url : res.error);
    return std::make_pair(res.ok ? 200 : 422, std::move(w).take());
  });
}

void WmpsNode::register_video(std::string path, VideoAsset asset) {
  videos_[std::move(path)] = asset;
}

void WmpsNode::register_slides(std::string dir, SlideAsset asset) {
  slides_[std::move(dir)] = asset;
}

void WmpsNode::serve_slides(const std::string& dir, const SlideAsset& asset) {
  const auto deck = media::make_slide_deck(asset.count, asset.seed);
  for (const auto& slide : deck) {
    const std::string path = "/" + dir + "/" + std::to_string(slide.index);
    const std::uint32_t bytes = slide.encoded_bytes;
    web_.route(path, [bytes, idx = slide.index](std::string_view,
                                                std::span<const std::byte>) {
      return std::make_pair(200, media::asf::pattern_bytes(bytes, idx));
    });
  }
}

void WmpsNode::record_publish(const PublishResult& res,
                              const obs::TraceContext& ctx) {
  if (res.ok) {
    m_publishes_.inc();
  } else {
    m_publish_errors_.inc();
  }
  net_.simulator().obs().flight().emit_in(
      ctx, obs::FlightType::kPublish, host_,
      static_cast<std::int64_t>(res.packets), res.ok ? 0 : 1,
      res.ok ? res.url : res.error);
}

PublishResult WmpsNode::publish(const PublishForm& form) {
  auto& trace = net_.simulator().obs().flight();
  const obs::TraceContext root = trace.make_trace();
  const std::uint64_t sp = trace.begin_span(root, "wmps.publish", host_);
  const obs::TraceContext ctx = root.child(sp);
  PublishResult res = publish_impl(form);
  record_publish(res, ctx);
  trace.end_span(root, sp, "wmps.publish", host_,
                 static_cast<std::int64_t>(res.packets), res.ok ? 0 : 1);
  return res;
}

PublishResult WmpsNode::publish_abstraction(
    const PublishForm& form, const std::vector<LectureSegment>& segments,
    int level) {
  auto& trace = net_.simulator().obs().flight();
  const obs::TraceContext root = trace.make_trace();
  const std::uint64_t sp = trace.begin_span(root, "wmps.publish", host_, level);
  const obs::TraceContext ctx = root.child(sp);
  PublishResult res = publish_abstraction_impl(form, segments, level);
  record_publish(res, ctx);
  trace.end_span(root, sp, "wmps.publish", host_,
                 static_cast<std::int64_t>(res.packets), res.ok ? 0 : 1);
  return res;
}

PublishResult WmpsNode::publish_impl(const PublishForm& form) {
  PublishResult res;
  const auto video = videos_.find(form.video_path);
  if (video == videos_.end()) {
    res.error = "no such video file: " + form.video_path;
    return res;
  }
  const auto deck = slides_.find(form.slide_dir);
  if (deck == slides_.end()) {
    res.error = "no such slide directory: " + form.slide_dir;
    return res;
  }
  const auto profile = media::find_profile(form.profile);
  if (!profile) {
    res.error = "no such bandwidth profile: " + form.profile;
    return res;
  }
  if (form.publish_name.empty()) {
    res.error = "publish name must not be empty";
    return res;
  }

  const VideoAsset& va = video->second;
  const SlideAsset& sa = deck->second;

  // "Our system could make the video and presented slides synchronized with
  // the temporal script commands ... automatically": derive the slide
  // schedule from the deck + lecture length, then emit SLIDE commands.
  auto schedule = media::make_slide_schedule(sa.count, va.duration, sa.seed);
  auto scripts =
      streaming::slide_flip_commands(schedule, form.slide_dir + "/");
  auto notes = media::make_annotations(va.annotation_count, schedule,
                                       va.duration, va.seed + 1);
  const auto annot_cmds = streaming::annotation_commands(notes);
  scripts.insert(scripts.end(), annot_cmds.begin(), annot_cmds.end());

  streaming::EncodeJob job;
  job.profile = *profile;
  job.title = form.title;
  job.author = form.author;
  job.drm = &drm_;
  job.protect_content = form.protect_drm;

  media::LectureVideoSource vsrc(va.duration, job.profile.fps,
                                 job.profile.width, job.profile.height,
                                 va.seed);
  media::LectureAudioSource asrc(va.duration, job.profile.audio_sample_rate(),
                                 net::msec(20), va.seed + 2);
  auto enc = streaming::encode_lecture(job, vsrc, asrc, scripts);

  res.ok = true;
  res.url = form.publish_name;
  res.packets = enc.file.packets.size();
  res.script_commands = scripts.size();
  res.wire_bytes = enc.file.wire_size();
  res.key_id = enc.key_id;

  server_.publish(form.publish_name, std::move(enc.file));
  serve_slides(form.slide_dir, sa);
  schedules_[form.publish_name] = std::move(schedule);
  annotations_[form.publish_name] = std::move(notes);
  return res;
}

PublishResult WmpsNode::publish_abstraction_impl(
    const PublishForm& form, const std::vector<LectureSegment>& segments,
    int level) {
  PublishResult res;
  const auto video = videos_.find(form.video_path);
  if (video == videos_.end()) {
    res.error = "no such video file: " + form.video_path;
    return res;
  }
  const auto deck = slides_.find(form.slide_dir);
  if (deck == slides_.end()) {
    res.error = "no such slide directory: " + form.slide_dir;
    return res;
  }
  const auto profile = media::find_profile(form.profile);
  if (!profile) {
    res.error = "no such bandwidth profile: " + form.profile;
    return res;
  }
  if (form.publish_name.empty()) {
    res.error = "publish name must not be empty";
    return res;
  }

  ContentTree tree;
  try {
    tree = build_lecture_tree(segments);
  } catch (const std::invalid_argument& e) {
    res.error = e.what();
    return res;
  }
  if (level < 0 || level > tree.highest_level()) {
    res.error = "no such abstraction level: " + std::to_string(level);
    return res;
  }
  const net::SimDuration duration = tree.presentation_time(level);
  auto scripts = level_slide_commands(tree, level,
                                                 form.slide_dir + "/");
  // Record the flip instants so replay validation works like publish().
  std::vector<net::SimDuration> schedule;
  schedule.reserve(scripts.size());
  for (const auto& c : scripts) schedule.push_back(c.at);

  streaming::EncodeJob job;
  job.profile = *profile;
  job.title = form.title;
  job.author = form.author;
  job.drm = &drm_;
  job.protect_content = form.protect_drm;

  media::LectureVideoSource vsrc(duration, job.profile.fps, job.profile.width,
                                 job.profile.height, video->second.seed);
  media::LectureAudioSource asrc(duration, job.profile.audio_sample_rate(),
                                 net::msec(20), video->second.seed + 2);
  auto enc = streaming::encode_lecture(job, vsrc, asrc, scripts);

  res.ok = true;
  res.url = form.publish_name;
  res.packets = enc.file.packets.size();
  res.script_commands = scripts.size();
  res.wire_bytes = enc.file.wire_size();
  res.key_id = enc.key_id;
  server_.publish(form.publish_name, std::move(enc.file));
  serve_slides(form.slide_dir, deck->second);
  schedules_[form.publish_name] = std::move(schedule);
  return res;
}

const std::vector<net::SimDuration>* WmpsNode::slide_schedule(
    const std::string& url) const {
  auto it = schedules_.find(url);
  return it == schedules_.end() ? nullptr : &it->second;
}

const std::vector<media::Annotation>* WmpsNode::published_annotations(
    const std::string& url) const {
  auto it = annotations_.find(url);
  return it == annotations_.end() ? nullptr : &it->second;
}

std::vector<std::byte> WmpsNode::serialize_form(const PublishForm& form) {
  ByteWriter w;
  w.str(form.video_path);
  w.str(form.slide_dir);
  w.str(form.profile);
  w.str(form.title);
  w.str(form.author);
  w.u8(form.protect_drm ? 1 : 0);
  w.str(form.publish_name);
  return std::move(w).take();
}

PublishForm WmpsNode::parse_form(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  PublishForm f;
  f.video_path = r.str();
  f.slide_dir = r.str();
  f.profile = r.str();
  f.title = r.str();
  f.author = r.str();
  f.protect_drm = r.u8() != 0;
  f.publish_name = r.str();
  return f;
}

}  // namespace lod::lod
