#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/varint.hpp"
#include "io/record.hpp"

namespace textmr::io {

/// On-disk format for one sorted run produced by a spill (or by the final
/// map-side merge). Records are grouped by partition, and within each
/// partition sorted by key — the invariant the shuffle and merge phases
/// rely on.
///
/// Layout:
///   record stream:  per record  [varint klen][varint vlen][key][value]
///   footer:         per partition [fixed64 offset][fixed64 bytes][fixed64 count]
///                   [fixed32 num_partitions][fixed32 magic]
///
/// There is one record framing, the compact varint one (DESIGN.md §8).
/// The enum keeps that one value as the type of the `spill_format` and
/// `format` shims:
/// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
enum class SpillFormat : std::uint8_t { kCompactVarint };

struct PartitionExtent {
  std::uint64_t offset = 0;  // byte offset of first record
  std::uint64_t bytes = 0;   // total record-stream bytes
  std::uint64_t records = 0;
};

struct SpillRunInfo {
  std::string path;
  std::uint64_t bytes = 0;    // record-stream bytes (excludes footer)
  std::uint64_t records = 0;
  std::vector<PartitionExtent> partitions;
};

/// Upper bound on the frame header (two 10-byte varints); callers
/// encoding into raw storage must have at least this much room.
inline constexpr std::size_t kMaxFrameHeaderBytes = 20;

/// Decoded frame header of the record at the start of a byte range.
struct FrameHeader {
  std::uint32_t key_size = 0;
  std::uint32_t value_size = 0;
  std::uint16_t header_size = 0;  // bytes before the key
};

/// Encodes the frame header for a (key_size, value_size) record into
/// `dest` (which must have room for kMaxFrameHeaderBytes); returns the
/// header size. The full frame is [header][key][value] — exactly the
/// record stream layout above, so frames built in memory can be written
/// to a run file verbatim (SpillRunWriter::append_frame).
std::size_t encode_frame_header(char* dest, std::size_t key_size,
                                std::size_t value_size);

/// Decodes the frame header at the start of `data`, validating that the
/// whole framed record fits inside `data`. Throws FormatError otherwise.
/// The one header decoder: FrameStore (the spill ring, fetched and loaded
/// partitions) and index_frames both use it. Inline: the in-memory record
/// path decodes a header per record read.
inline FrameHeader decode_frame_header(std::string_view data) {
  std::size_t pos = 0;
  const std::uint64_t klen = textmr::get_varint(data, pos);
  const std::uint64_t vlen = textmr::get_varint(data, pos);
  // Two comparisons, not klen + vlen (which a corrupt varint could wrap);
  // and both sizes must fit FrameHeader's u32 fields.
  if (klen > data.size() - pos || vlen > data.size() - pos - klen ||
      ((klen | vlen) >> 32) != 0) {
    throw FormatError("record frame exceeds available bytes");
  }
  return FrameHeader{static_cast<std::uint32_t>(klen),
                     static_cast<std::uint32_t>(vlen),
                     static_cast<std::uint16_t>(pos)};
}

/// Sequential writer. `append` must be called with nondecreasing partition
/// ids; key order within a partition is the caller's responsibility (the
/// spill sorter guarantees it).
class SpillRunWriter {
 public:
  SpillRunWriter(std::string path, std::uint32_t num_partitions);
  ~SpillRunWriter();

  SpillRunWriter(const SpillRunWriter&) = delete;
  SpillRunWriter& operator=(const SpillRunWriter&) = delete;

  void append(std::uint32_t partition, std::string_view key,
              std::string_view value);

  /// Appends one record that is already framed (a blit — no
  /// re-encoding). The spill path uses this to write ring
  /// records byte-for-byte as they already sit in memory.
  void append_frame(std::uint32_t partition, std::string_view frame);

  /// Writes the footer and closes the file. Must be called exactly once.
  SpillRunInfo finish();

 private:
  void flush_buffer();

  std::string path_;
  std::FILE* file_;
  std::string buffer_;
  std::uint64_t bytes_ = 0;
  std::uint64_t records_ = 0;
  std::int64_t current_partition_ = -1;
  std::vector<PartitionExtent> partitions_;
  bool finished_ = false;
};

/// Opens a run file's footer. Throws FormatError unless every partition
/// extent lies inside the record stream, so no later read trusts a
/// corrupt footer's sizes.
class SpillRunReader {
 public:
  explicit SpillRunReader(std::string path);

  std::uint32_t num_partitions() const {
    return static_cast<std::uint32_t>(partitions_.size());
  }
  const PartitionExtent& extent(std::uint32_t partition) const
      TEXTMR_LIFETIME_BOUND;
  /// Reads one partition's whole record stream in a single bulk read —
  /// the one way a run file is read (map-side merge, reduce task, shuffle
  /// server). The returned bytes are frames; decode them in place with
  /// mr::index_frames for a copy-free record index.
  std::string read_partition(std::uint32_t partition) const;

 private:
  std::string path_;
  std::vector<PartitionExtent> partitions_;
};

/// Serialize one framed record into `out`.
void encode_record(std::string& out, std::string_view key,
                   std::string_view value);

/// Size in bytes `encode_record` would produce.
std::size_t encoded_record_size(std::size_t key_size, std::size_t value_size);

}  // namespace textmr::io
