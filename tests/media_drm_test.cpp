#include "lod/media/drm.hpp"

#include <gtest/gtest.h>

#include "lod/media/asf.hpp"

namespace lod::media {
namespace {

using net::SimTime;
using net::sec;

TEST(Drm, KeysAreDistinct) {
  DrmSystem drm;
  const auto k1 = drm.create_key("lecture");
  const auto k2 = drm.create_key("lecture");
  EXPECT_NE(k1, k2);
  EXPECT_EQ(drm.key_count(), 2u);
}

TEST(Drm, KeystreamIsItsOwnInverse) {
  DrmSystem drm;
  const auto key = drm.create_key("k");
  auto data = asf::pattern_bytes(1000, 5);
  const auto original = data;
  drm.apply_keystream(key, 7, data);
  EXPECT_NE(data, original);
  drm.apply_keystream(key, 7, data);
  EXPECT_EQ(data, original);
}

TEST(Drm, DifferentNoncesDifferentCiphertext) {
  DrmSystem drm;
  const auto key = drm.create_key("k");
  auto d1 = asf::pattern_bytes(100, 5);
  auto d2 = d1;
  drm.apply_keystream(key, 1, d1);
  drm.apply_keystream(key, 2, d2);
  EXPECT_NE(d1, d2);
}

TEST(Drm, LicenseValidation) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  const auto lic = drm.issue_license(key, "alice", SimTime{sec(100).us});
  ASSERT_TRUE(lic.has_value());
  EXPECT_TRUE(drm.validate(*lic, key, "alice", SimTime{0}));
  // Wrong user.
  EXPECT_FALSE(drm.validate(*lic, key, "bob", SimTime{0}));
  // Expired.
  EXPECT_FALSE(drm.validate(*lic, key, "alice", SimTime{sec(101).us}));
  // Wrong key.
  const auto other = drm.create_key("other");
  EXPECT_FALSE(drm.validate(*lic, other, "alice", SimTime{0}));
}

TEST(Drm, LicenseForUnknownKeyRefused) {
  DrmSystem drm;
  EXPECT_FALSE(drm.issue_license("nope", "alice", SimTime::max()).has_value());
}

TEST(Drm, ForgedLicenseFailsValidation) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  License forged;
  forged.key_id = key;
  forged.user = "mallory";
  forged.expires = SimTime::max();
  forged.key_material = 0xdeadbeef;  // guessed, not issued
  EXPECT_FALSE(drm.validate(forged, key, "mallory", SimTime{0}));
}

TEST(Drm, DecryptWithLicense) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  auto data = asf::pattern_bytes(256, 9);
  const auto original = data;
  drm.apply_keystream(key, 3, data);

  const auto lic = drm.issue_license(key, "alice", SimTime::max());
  ASSERT_TRUE(lic.has_value());
  EXPECT_TRUE(drm.decrypt_with_license(*lic, "alice", SimTime{0}, 3, data));
  EXPECT_EQ(data, original);
}

TEST(Drm, DecryptWithBadLicenseLeavesDataUntouched) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  auto data = asf::pattern_bytes(256, 9);
  drm.apply_keystream(key, 3, data);
  const auto encrypted = data;

  const auto lic = drm.issue_license(key, "alice", SimTime{100});
  ASSERT_TRUE(lic.has_value());
  // Expired at render time: decrypt refuses and data stays encrypted.
  EXPECT_FALSE(
      drm.decrypt_with_license(*lic, "alice", SimTime{200}, 3, data));
  EXPECT_EQ(data, encrypted);
}

// --- DRM through the container (authoring optional, rendering mandatory) -------

asf::Header protected_header(const DrmSystem&, const KeyId& key) {
  asf::Header h;
  h.props.title = "Protected";
  h.props.play_duration = sec(1);
  h.props.packet_bytes = 1400;
  h.streams = {{1, MediaType::kVideo, "MPEG-4", 100'000, 320, 240, 0}};
  h.drm.is_protected = true;
  h.drm.key_id = key;
  h.drm.license_url = "rpc://license";
  return h;
}

EncodedUnit one_frame(std::uint32_t bytes) {
  EncodedUnit u;
  u.stream_id = 1;
  u.type = MediaType::kVideo;
  u.bytes = bytes;
  u.keyframe = true;
  return u;
}

TEST(DrmContainer, LicensedPlayerDecodesCleanly) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  const auto content = asf::pattern_bytes(3000, 77);

  asf::Muxer mux(protected_header(drm, key), &drm);
  mux.add_unit(one_frame(3000), content);
  const auto file = mux.finalize();

  asf::Demuxer d(file.header);
  const auto lic = drm.issue_license(key, "alice", SimTime::max());
  d.set_license(&drm, *lic, "alice");
  for (const auto& p : file.packets) d.feed(p);
  auto u = d.next_unit();
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->data(), content);
  EXPECT_FALSE(d.undecryptable());
}

TEST(DrmContainer, UnlicensedPlayerGetsGarbage) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  const auto content = asf::pattern_bytes(3000, 77);

  asf::Muxer mux(protected_header(drm, key), &drm);
  mux.add_unit(one_frame(3000), content);
  const auto file = mux.finalize();

  asf::Demuxer d(file.header);  // no license at all
  for (const auto& p : file.packets) d.feed(p);
  auto u = d.next_unit();
  ASSERT_TRUE(u.has_value());
  EXPECT_NE(u->data(), content);   // still encrypted
  EXPECT_TRUE(d.undecryptable());
}

TEST(DrmContainer, WrongUserLicenseGetsGarbage) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  const auto content = asf::pattern_bytes(2000, 3);

  asf::Muxer mux(protected_header(drm, key), &drm);
  mux.add_unit(one_frame(2000), content);
  const auto file = mux.finalize();

  asf::Demuxer d(file.header);
  const auto lic = drm.issue_license(key, "alice", SimTime::max());
  d.set_license(&drm, *lic, "bob");  // bob presents alice's license
  for (const auto& p : file.packets) d.feed(p);
  auto u = d.next_unit();
  ASSERT_TRUE(u.has_value());
  EXPECT_NE(u->data(), content);
  EXPECT_TRUE(d.undecryptable());
}

TEST(DrmContainer, UnprotectedContentNeedsNoLicense) {
  DrmSystem drm;
  asf::Header h;
  h.props.packet_bytes = 1400;
  h.props.play_duration = sec(1);
  h.streams = {{1, MediaType::kVideo, "MPEG-4", 100'000, 320, 240, 0}};
  const auto content = asf::pattern_bytes(500, 1);
  asf::Muxer mux(h, &drm);  // drm present but content unprotected
  mux.add_unit(one_frame(500), content);
  const auto file = mux.finalize();

  asf::Demuxer d(file.header);
  for (const auto& p : file.packets) d.feed(p);
  auto u = d.next_unit();
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->data(), content);
  EXPECT_FALSE(d.undecryptable());
}

TEST(DrmContainer, ScriptStreamNeverEncrypted) {
  DrmSystem drm;
  const auto key = drm.create_key("lecture");
  asf::Muxer mux(protected_header(drm, key), &drm);
  mux.add_script({net::msec(100), "SLIDE", "slides/1"});
  const auto file = mux.finalize();

  asf::Demuxer d(file.header);  // no license: scripts must still decode
  for (const auto& p : file.packets) d.feed(p);
  auto s = d.next_script();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->type, "SLIDE");
  EXPECT_EQ(s->param, "slides/1");
}

}  // namespace
}  // namespace lod::media
