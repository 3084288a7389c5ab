#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lod/media/codec.hpp"
#include "lod/media/drm.hpp"
#include "lod/media/object.hpp"
#include "lod/net/bytes.hpp"
#include "lod/net/payload.hpp"

/// \file asf.hpp
/// The Advanced Stream Format stand-in.
///
/// §2.1 of the paper: "The ASF is a data format for streaming audio and video
/// content, images, and script commands in packets over a network. ASF
/// content can be an .asf file or a live stream." We reproduce the structure
/// that the rest of the system depends on:
///
///  - a header object (file properties, stream table, DRM info),
///  - fixed-size data packets, each carrying one or more payloads; large
///    access units fragment across packets, small ones pack together,
///  - a dedicated script-command stream ("instruct the player to perform
///    additional tasks along with rendering" — our slide flips and
///    annotations ride here, exactly like the paper's publishing manager),
///  - an index object mapping presentation time to the cleanest packet to
///    resume from (the "Windows Media ASF Indexer" role), used for seeking.
///
/// Everything round-trips through a byte serialization, so a stored ".asf
/// file" really is a flat byte buffer, and a live stream really is a packet
/// sequence.

namespace lod::media::asf {

/// Reserved stream id for the script-command stream.
inline constexpr std::uint16_t kScriptStreamId = 0x7fff;

/// A script command (§2.1). `type` is the command class; the paper's system
/// emits slide flips ("SLIDE") and annotations ("ANNOT"); generic types
/// ("URL", "TEXT", "EVENT") match what Windows Media Player understood.
struct ScriptCommand {
  SimDuration at{};     ///< presentation time to execute at
  std::string type;
  std::string param;

  bool operator==(const ScriptCommand&) const = default;
};

/// File-wide properties (the ASF File Properties Object).
struct FileProperties {
  std::string title;
  std::string author;
  SimDuration play_duration{};
  /// How much content a player should buffer before starting to render.
  SimDuration preroll{net::msec(3000)};
  /// Fixed on-the-wire data packet size.
  std::uint32_t packet_bytes{1400};
  std::int64_t avg_bitrate_bps{0};
};

/// Header: properties + stream table + DRM.
struct Header {
  FileProperties props;
  std::vector<StreamInfo> streams;
  DrmInfo drm;

  const StreamInfo* find_stream(std::uint16_t id) const;
};

/// The header fields of one payload inside a data packet.
struct PayloadHeader {
  std::uint16_t stream_id{0};
  MediaType type{MediaType::kVideo};
  SimDuration pts{};
  SimDuration duration{};
  bool keyframe{false};
  std::uint32_t object_id{0};    ///< access-unit number within the stream
  std::uint32_t offset{0};       ///< fragment offset within the unit
  std::uint32_t object_size{0};  ///< total unit size (== data.size() if whole)
};

/// One payload inside a data packet: a whole access unit or a fragment.
/// `data` is a view into its unit's bytes, which every fragment of the unit
/// shares and nobody mutates: copying a payload, a packet or a whole `File`
/// copies the headers and bumps refcounts, never the media bytes.
struct Payload : PayloadHeader {
  net::Payload data;
};

/// One payload as it sits in a serialized packet: its header fields and a
/// view of its bytes inside the packet buffer (see `PacketDecoder`).
struct PayloadView : PayloadHeader {
  std::span<const std::byte> data;
};

/// One fixed-size data packet.
struct DataPacket {
  SimDuration send_time{};  ///< when a paced sender should emit this packet
  std::vector<Payload> payloads;
  std::uint32_t pad_bytes{0};  ///< padding up to the fixed packet size
};

/// Index entry: presentation time -> first packet at/after it that starts a
/// video keyframe (or any packet if no video).
struct IndexEntry {
  SimDuration time{};
  std::uint32_t packet{0};
};

/// A complete ASF file in memory.
struct File {
  Header header;
  std::vector<DataPacket> packets;
  std::vector<IndexEntry> index;

  /// Total serialized size (header + packets + index), in bytes.
  std::size_t wire_size() const;
};

// --- muxing -----------------------------------------------------------------

/// Builds an ASF file from encoded units and script commands.
///
/// Call `add_unit` / `add_script` in any order; `finalize()` interleaves all
/// payloads by presentation time, optionally encrypts them under DRM,
/// fragments and packs them into fixed-size packets, and builds the index.
/// Each unit's bytes are adopted once, after encryption, as a shared body
/// that all of its fragments slice: muxing copies no payload bytes.
class Muxer {
 public:
  /// \param drm  if non-null and header.drm.is_protected, payload data is
  ///             encrypted under header.drm.key_id.
  explicit Muxer(Header header, const DrmSystem* drm = nullptr);

  /// Add one encoded access unit with its (synthetic) content bytes.
  /// If `content` is empty, pattern bytes of `unit.bytes` length are created.
  void add_unit(const EncodedUnit& unit, std::span<const std::byte> content = {});

  /// Add a script command.
  void add_script(const ScriptCommand& cmd);

  /// Pack everything. The muxer is spent afterwards.
  /// \param index_interval  granularity of the seek index.
  File finalize(SimDuration index_interval = net::sec(5));

  std::size_t units_added() const { return units_.size(); }

 private:
  struct PendingUnit {
    EncodedUnit meta;
    std::vector<std::byte> content;
  };

  Header header_;
  const DrmSystem* drm_;
  std::vector<PendingUnit> units_;
  std::vector<ScriptCommand> scripts_;
};

// --- demuxing ----------------------------------------------------------------

/// A reassembled access unit as produced by the demuxer.
///
/// Ownership rule: unit bytes are borrowed until they must outlive their
/// packet. A unit completed inside the serialized packet being fed views
/// that packet's bytes and holds no reference to it, so a consumer that
/// needs only `meta` (the player) touches no refcount; read `data()` while
/// the fed packet is alive. A unit that spans packets keeps every packet it
/// arrived in, and a decrypted unit owns its plaintext.
class DemuxedUnit {
 public:
  EncodedUnit meta;

  /// The unit's bytes, joined from its fragments into a fresh buffer of
  /// `meta.bytes` bytes (ranges no fragment covered read as zero).
  std::vector<std::byte> data() const;

 private:
  friend class Demuxer;
  /// `size` bytes at `offset` within the unit, viewed at `data`: inside the
  /// packet being fed, or inside a payload the unit keeps.
  struct Fragment {
    std::uint32_t offset{0};
    std::uint32_t size{0};
    const std::byte* data{nullptr};
  };
  /// A fragment after the first (or none), and a payload that keeps some
  /// of the unit's bytes alive (or none).
  struct Piece {
    Fragment fragment;
    net::Payload owner;
  };
  /// Add \p bytes at \p offset; a non-null \p owner holds them. Empty
  /// fragments add nothing to the unit's bytes and are not kept.
  void add(std::uint32_t offset, std::span<const std::byte> bytes,
           net::Payload owner);
  /// Keep \p packet, the packet being fed, if a fragment views it.
  void own(const net::Payload& packet);
  void clear();
  std::vector<Piece>& pieces();

  // Most units arrive whole in one packet: the first fragment lives inline
  // and nothing is allocated. The demuxer queues units by the packetful,
  // so a unit is kept to 64 bytes. Only a unit that spans packets or owns
  // its bytes allocates pieces.
  Fragment first_;
  std::unique_ptr<std::vector<Piece>> pieces_;
};

/// Incremental demuxer: feed packets (in order received), pull out complete
/// access units and script commands. This is exactly what the player runs —
/// it works the same whether packets come from a stored file or a live
/// stream, and tolerates missing packets (incomplete units are dropped when
/// a newer unit on the same stream completes).
class Demuxer {
 public:
  /// Only the header's DRM flag is kept: protected content needs a license
  /// (`set_license`) to decrypt.
  explicit Demuxer(const Header& header);

  /// Provide the license for protected content. Without a valid license the
  /// demuxer still reassembles but leaves payloads encrypted and flags it.
  void set_license(const DrmSystem* drm, License lic, std::string user);

  /// Feed one serialized packet as received. Nothing is copied: units
  /// completed inside \p packet borrow its bytes, and only a unit with
  /// bytes in more than one packet takes a reference to each. A malformed
  /// packet throws (see `PacketDecoder`) before any of it is fed.
  void feed(const net::Payload& packet, net::SimTime local_now = {});
  /// Feed one in-memory packet. Nothing is copied: each payload's view is
  /// the owner its unit keeps; otherwise identical to feeding its
  /// serialized form.
  void feed(const DataPacket& packet, net::SimTime local_now = {});

  /// Pull the next completed media unit (pts order within arrival order).
  std::optional<DemuxedUnit> next_unit();
  /// Pull the next decoded script command.
  std::optional<ScriptCommand> next_script();

  /// True if protected payloads were surfaced without a usable license.
  bool undecryptable() const { return undecryptable_; }
  std::uint64_t dropped_incomplete() const { return dropped_incomplete_; }

 private:
  struct Assembly {
    std::uint16_t stream_id{0};
    bool active{false};
    std::uint32_t object_id{0};
    std::uint32_t object_size{0};
    std::uint32_t received{0};
    DemuxedUnit unit;
  };

  /// Add one payload whose bytes are \p bytes (kept alive by \p owner, or
  /// borrowed from the packet being fed when it is null) to its unit's
  /// assembly.
  void accept(const PayloadHeader& pl, std::span<const std::byte> bytes,
              net::Payload owner, net::SimTime local_now);
  void complete(Assembly& a, net::SimTime local_now);

  bool protected_{false};
  const DrmSystem* drm_{nullptr};
  std::optional<License> license_;
  std::string user_;
  /// One assembly per stream, found by linear search: a lecture has two or
  /// three streams.
  std::vector<Assembly> assembling_;
  std::vector<DemuxedUnit> ready_units_;
  std::vector<ScriptCommand> ready_scripts_;
  std::size_t unit_cursor_{0};
  std::size_t script_cursor_{0};
  bool undecryptable_{false};
  std::uint64_t dropped_incomplete_{0};
};

// --- serialization ------------------------------------------------------------

/// Serialize a complete file to a flat byte buffer (a stored ".asf file").
std::vector<std::byte> serialize(const File& f);
/// Parse a stored file. Every payload of the result is a slice of \p bytes,
/// so the buffer is shared, not copied. Throws std::out_of_range /
/// std::runtime_error on malformed input.
File parse(const net::Payload& bytes);

/// Serialize / parse a single packet (for live streams on the wire).
/// `parse_packet` slices each payload out of \p bytes without copying; see
/// `PacketDecoder` for the walk it is built on.
std::vector<std::byte> serialize_packet(const DataPacket& p);
DataPacket parse_packet(const net::Payload& bytes);
/// Append the serialized form of \p p to \p w (what `serialize_packet`
/// returns, without the intermediate buffer).
void write_packet(net::ByteWriter& w, const DataPacket& p);
/// Size in bytes of `serialize_packet(p)`.
std::size_t packet_wire_size(const DataPacket& p);

/// The one decoder of serialized data packets. Every payload header has a
/// fixed wire size, so the constructor validates the whole packet with one
/// bounds check per payload (its header plus the data length it declares),
/// throwing `std::runtime_error` on a bad magic and `std::out_of_range` on
/// truncation; `next()` then decodes the payloads in place without checking
/// again, yielding views into \p bytes without copying or allocating. The
/// bytes must outlive the decoder and the views.
class PacketDecoder {
 public:
  explicit PacketDecoder(std::span<const std::byte> bytes);

  SimDuration send_time() const { return send_time_; }
  std::uint32_t pad_bytes() const { return pad_bytes_; }
  std::uint32_t payload_count() const { return count_; }

  /// The next payload, or false after the last.
  bool next(PayloadView& out);

 private:
  const std::byte* pos_{nullptr};  ///< the next payload's header
  SimDuration send_time_{};
  std::uint32_t pad_bytes_{0};
  std::uint32_t count_{0};
  std::uint32_t yielded_{0};
};

std::vector<std::byte> serialize_header(const Header& h);
Header parse_header(std::span<const std::byte> bytes);

// --- indexing ------------------------------------------------------------------

/// (Re)build the seek index at the given granularity — the "ASF Indexer"
/// command-line utility's job in the paper's workflow.
void build_index(File& f, SimDuration interval = net::sec(5));

/// Find the packet to start from so that playback covers time \p t:
/// the latest index entry at or before t. Returns 0 if the index is empty.
std::uint32_t seek_packet(std::span<const IndexEntry> index, SimDuration t);
inline std::uint32_t seek_packet(const File& f, SimDuration t) {
  return seek_packet(f.index, t);
}

/// Generate deterministic pattern bytes for synthetic payload content.
std::vector<std::byte> pattern_bytes(std::size_t n, std::uint32_t tag);

}  // namespace lod::media::asf
