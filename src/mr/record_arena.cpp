#include "mr/record_arena.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace textmr::mr {
namespace {

constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();

/// A tie-span member's key, read once, and its position in the span.
struct TieKey {
  const char* data;
  std::uint32_t size;
  std::uint32_t at;  // position in the span; after the sort, its offset
  std::string_view key() const { return {data, size}; }
};

}  // namespace

void sort_records(
    std::vector<RecordRef>& refs,
    const std::function<std::string_view(const RecordRef&)>& key_of) {
  const std::size_t n = refs.size();
  if (n < 2) return;
  TEXTMR_CHECK(n <= kMaxOffset, "too many records for one sort");

  // Stable LSD radix over the 12 bytes of (partition, key_prefix), least
  // significant first: digits 0..7 are the prefix bytes, 8..11 the
  // partition's. One read pass counts every digit; a digit that puts
  // every record in one bucket (the zero pad of short keys, the high
  // bytes of the partition) costs no pass.
  auto digit = [](const RecordRef& ref, unsigned d) -> unsigned {
    return d < 8 ? static_cast<unsigned>(ref.key_prefix >> (8 * d)) & 0xffu
                 : (ref.partition >> (8 * (d - 8))) & 0xffu;
  };
  std::array<std::array<std::uint32_t, 256>, 12> count{};
  for (const RecordRef& ref : refs) {
    for (unsigned d = 0; d < 12; ++d) ++count[d][digit(ref, d)];
  }
  {
    const auto scratch = std::make_unique_for_overwrite<RecordRef[]>(n);
    RecordRef* src = refs.data();
    RecordRef* dst = scratch.get();
    for (unsigned d = 0; d < 12; ++d) {
      std::array<std::uint32_t, 256>& bucket = count[d];
      if (bucket[digit(src[0], d)] == n) continue;
      std::uint32_t start = 0;
      for (std::uint32_t& c : bucket) start += std::exchange(c, start);
      for (std::size_t i = 0; i < n; ++i) {
        dst[bucket[digit(src[i], d)]++] = src[i];
      }
      std::swap(src, dst);
    }
    if (src != refs.data()) std::memcpy(refs.data(), src, n * sizeof(*src));
  }  // the scratch is freed before the tie keys are allocated

  // Equal (partition, prefix) decides nothing for keys over 8 bytes or
  // for zero-padded short keys: order each such span by full key, ties
  // by span position, so the sort stays stable.
  std::vector<TieKey> ties;  // sized to the widest span that needs it
  for (std::size_t i = 0, j; i < n; i = j) {
    for (j = i + 1; j < n && refs[j].partition == refs[i].partition &&
                    refs[j].key_prefix == refs[i].key_prefix;
         ++j) {
    }
    const auto span = static_cast<std::uint32_t>(j - i);
    if (span == 1) continue;
    if (ties.size() < span) ties.resize(span);
    bool all_equal = true;
    for (std::uint32_t k = 0; k < span; ++k) {
      const std::string_view key = key_of(refs[i + k]);
      ties[k] = TieKey{key.data(), static_cast<std::uint32_t>(key.size()), k};
      all_equal = all_equal && key == ties[0].key();
    }
    if (all_equal) continue;  // a hot key: already in emit order
    std::sort(ties.begin(), ties.begin() + span,
              [](const TieKey& a, const TieKey& b) {
                const int c = a.key().compare(b.key());
                return c != 0 ? c < 0 : a.at < b.at;
              });
    // Every ref in the span differs only in its offset: gather the
    // offsets in key order, then write them back.
    for (std::uint32_t k = 0; k < span; ++k) {
      ties[k].at = refs[i + ties[k].at].offset;
    }
    for (std::uint32_t k = 0; k < span; ++k) refs[i + k].offset = ties[k].at;
  }
}

RecordRef RecordArena::append(std::uint32_t partition, std::string_view key,
                              std::string_view value) {
  const std::size_t offset = bytes_.size();
  const std::size_t frame_bytes =
      io::encoded_record_size(key.size(), value.size());
  TEXTMR_CHECK(offset + frame_bytes <= kMaxOffset,
               "record arena outgrew u32 offsets");
  bytes_.resize(offset + frame_bytes);
  char* frame = bytes_.data() + offset;
  const std::size_t header =
      io::encode_frame_header(frame, key.size(), value.size());
  std::memcpy(frame + header, key.data(), key.size());
  std::memcpy(frame + header + key.size(), value.data(), value.size());
  const RecordRef ref{key_prefix8(key), static_cast<std::uint32_t>(offset),
                      partition};
  records_.push_back(ref);
  return ref;
}

void RecordArena::clear() {
  bytes_.clear();
  records_.clear();
}

std::vector<RecordRef> index_frames(std::string_view data,
                                    std::uint32_t partition) {
  TEXTMR_CHECK(data.size() <= kMaxOffset,
               "fetched partition outgrew u32 offsets");
  std::vector<RecordRef> refs;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const io::FrameHeader header = io::decode_frame_header(data.substr(pos));
    refs.push_back(RecordRef{
        key_prefix8(data.substr(pos + header.header_size, header.key_size)),
        static_cast<std::uint32_t>(pos), partition});
    pos += std::size_t{header.header_size} + header.key_size +
           header.value_size;
  }
  return refs;
}

}  // namespace textmr::mr
