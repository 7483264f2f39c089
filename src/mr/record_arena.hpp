#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "io/spill_file.hpp"

namespace textmr::mr {

/// First 8 key bytes, big-endian, zero-padded. Because the load is
/// big-endian, integer comparison of two prefixes orders them exactly like
/// lexicographic comparison of the first 8 key bytes; a zero pad ranks a
/// short key before any longer key it prefixes. When two prefixes are
/// *equal* nothing is decided (the short-key pad is indistinguishable from
/// embedded NULs) and the caller must fall back to a full compare — see
/// sort_records.
inline std::uint64_t key_prefix8(std::string_view key) {
  std::uint64_t prefix = 0;
  const std::size_t n = key.size() < 8 ? key.size() : 8;
  for (std::size_t i = 0; i < n; ++i) {
    prefix |= static_cast<std::uint64_t>(static_cast<unsigned char>(key[i]))
              << (56 - 8 * i);
  }
  return prefix;
}

/// The 16-byte index entry of one *framed* record — [header][key][value],
/// the spill-file framing — living in a store owned by someone else: the
/// spill ring, a RecordArena, or a fetched shuffle partition. `offset`
/// locates the frame in that store; the key and value sizes are read from
/// the frame header (FrameStore). The 8-byte key prefix is denormalized so
/// the sort decides almost every pair without touching the frames
/// (DESIGN.md §8).
struct RecordRef {
  std::uint64_t key_prefix;  // key_prefix8(key)
  std::uint32_t offset;      // frame start within its store
  std::uint32_t partition;
};
static_assert(sizeof(RecordRef) == 16);

/// One framed record, decoded.
struct Frame {
  std::string_view key;
  std::string_view value;
  std::string_view bytes;  // the whole frame, verbatim
};

/// The framed bytes a set of RecordRefs indexes. A view: valid as long as
/// the owning store's storage.
struct FrameStore {
  std::string_view bytes;

  /// Decodes the frame `ref` names. Throws FormatError (or out_of_range)
  /// if it does not lie inside the store.
  Frame frame(const RecordRef& ref) const {
    const std::string_view rest = bytes.substr(ref.offset);
    const io::FrameHeader h = io::decode_frame_header(rest);
    const char* key = rest.data() + h.header_size;
    return {{key, h.key_size},
            {key + h.key_size, h.value_size},
            {rest.data(), std::size_t{h.header_size} + h.key_size +
                              h.value_size}};
  }
  std::string_view key(const RecordRef& ref) const { return frame(ref).key; }
};

/// Tie (sub-)spans of at most this many records are ordered by key
/// comparison rather than by another radix level (see sort_records).
inline constexpr std::size_t kTieCompareCutoff = 32;

/// Sorts `refs` by (partition, key), stably: a least-significant-digit
/// radix over the partition and the 8-byte key prefix, then a tie pass
/// over each span of equal (partition, prefix) that reads each record's
/// key through `key_of` exactly once. A span whose keys are all equal — a
/// hot key — is left as it is. Any other span is ordered most significant
/// digits first: the same stable radix over the 8 key bytes after the
/// span's common prefix (zero-padded, with the key's length past the
/// prefix as a last digit), then 8 bytes deeper within each sub-span that
/// still ties and is not all one key, down to sub-spans of at most
/// kTieCompareCutoff records, which are ordered by (key, position).
/// Allocates a 16-byte scratch entry per record for the first radix, then
/// 16 bytes per member of the widest span and 32 more per member of the
/// widest span that is not all one key. The one (partition, key) ordering
/// of the map side: ring spills (sort_and_spill) and hash-combine flushes.
void sort_records(
    std::vector<RecordRef>& refs,
    const std::function<std::string_view(const RecordRef&)>& key_of);

/// Append-only arena of framed records in one offset-addressed buffer,
/// like the hash shards' value heap: records are encoded once and
/// referenced through RecordRefs, so sorting, combining and writing never
/// copy key/value bytes again. The refs are offsets and survive growth;
/// a view read through frames() (a key, a value) does not — append() may
/// reallocate the buffer. The frame builder of the test spill builders
/// and the record-path benchmarks; the map-side ring (SpillBuffer) uses
/// the same frame layout with bounded circular storage instead.
class RecordArena {
 public:
  RecordRef append(std::uint32_t partition, std::string_view key,
                   std::string_view value);

  const std::vector<RecordRef>& records() const TEXTMR_LIFETIME_BOUND {
    return records_;
  }
  /// The store the refs index; invalidated by the next append().
  FrameStore frames() const TEXTMR_LIFETIME_BOUND {
    return {{bytes_.data(), bytes_.size()}};
  }
  std::size_t size() const { return records_.size(); }

  /// Forgets all records but keeps the storage for reuse, so a cleared
  /// arena refills without heap allocations.
  void clear();

 private:
  std::vector<char> bytes_;
  std::vector<RecordRef> records_;
};

/// Indexes a partition's record-stream bytes (as returned by
/// SpillRunReader::read_partition): one RecordRef per frame, its offset
/// into `data` — the zero-copy half of the shuffle. Read the frames back
/// through FrameStore{data}; `data` must stay alive and unmoved
/// while they are used. Throws FormatError on a malformed stream.
std::vector<RecordRef> index_frames(std::string_view data
                                        TEXTMR_LIFETIME_BOUND,
                                    std::uint32_t partition);

}  // namespace textmr::mr
