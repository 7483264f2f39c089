#include "mr/record_arena.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace textmr::mr {
namespace {

constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Stable LSD radix of data[0, n) over kDigits byte digits, digit(x, 0)
/// the least significant, through `scratch` (n entries). One read pass
/// counts every digit; a digit that puts every entry in one bucket (the
/// zero pad of short keys, the high bytes of the partition) costs no pass.
template <unsigned kDigits, typename T, typename Digit>
void radix_sort(T* data, T* scratch, std::size_t n, Digit digit) {
  std::array<std::array<std::uint32_t, 256>, kDigits> count{};
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned d = 0; d < kDigits; ++d) ++count[d][digit(data[i], d)];
  }
  T* src = data;
  T* dst = scratch;
  for (unsigned d = 0; d < kDigits; ++d) {
    std::array<std::uint32_t, 256>& bucket = count[d];
    if (bucket[digit(src[0], d)] == n) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& c : bucket) start += std::exchange(c, start);
    for (std::size_t i = 0; i < n; ++i) {
      dst[bucket[digit(src[i], d)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data) std::memcpy(data, src, n * sizeof(T));
}

/// A tie-span member's key, read once.
struct TieKey {
  const char* data;
  std::uint32_t size;
  std::uint32_t offset;  // once the span is ordered: its k-th ref's offset
  std::string_view key() const { return {data, size}; }
};

/// One member of a tie (sub-)span whose keys share `depth` bytes: the 8
/// key bytes after them, big-endian and zero-padded, then how many bytes
/// the key has past `depth`, capped at 9. (bytes, tail) orders two keys
/// like their full compare unless both tails are 9: a zero pad equal to
/// the other key's NULs leaves the shorter key, a prefix of the longer,
/// with the smaller tail. Equal (bytes, tail < 9) means one key.
struct TieDigit {
  std::uint64_t bytes;
  std::uint32_t at;    // index of the member's TieKey
  std::uint32_t tail;  // min(size - depth, 9)
};
constexpr std::uint32_t kLongTail = 9;

/// Length of the common prefix of a and b, at most `limit` (no more than
/// either size); their first `from` bytes are known equal.
std::size_t common_prefix(const char* a, const char* b, std::size_t from,
                          std::size_t limit) {
  std::size_t i = from;
  for (; i + 8 <= limit; i += 8) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    if (x != y) {
      const std::uint64_t diff = x ^ y;
      return i + static_cast<std::size_t>(kLittleEndian
                                              ? std::countr_zero(diff)
                                              : std::countl_zero(diff)) /
                     8;
    }
  }
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

/// The common prefix of a run of keys known to share their first `depth`
/// bytes, fed one key at a time, and whether they are all one key.
class SharedPrefix {
 public:
  SharedPrefix(const TieKey& first, std::size_t depth)
      : first_(first), depth_(depth), length_(first.size) {}

  void add(const TieKey& key) {
    same_size_ = same_size_ && key.size == first_.size;
    if (length_ > depth_) {
      length_ = common_prefix(first_.data, key.data, depth_,
                              std::min<std::size_t>(length_, key.size));
    }
  }
  std::size_t length() const { return length_; }
  bool all_equal() const { return same_size_ && length_ == first_.size; }

 private:
  TieKey first_;
  std::size_t depth_;
  std::size_t length_;
  bool same_size_ = true;
};

/// key_prefix8 of the key's bytes from `depth` on.
std::uint64_t bytes_at(const TieKey& key, std::size_t depth) {
  if (key.size >= depth + 8) {
    std::uint64_t word;
    std::memcpy(&word, key.data + depth, 8);
    return kLittleEndian ? __builtin_bswap64(word) : word;
  }
  return key_prefix8({key.data + depth, key.size - depth});
}

/// A run of TieDigits [begin, end) whose keys share `depth` bytes.
struct TieRun {
  std::uint32_t begin;
  std::uint32_t end;
  std::size_t depth;
};

/// Orders one tie span that is not all one key — ties[0, span), their
/// common prefix `depth` bytes — by (key, span position), into
/// digits[0, span): an MSD descent that radix-sorts the 8 bytes after a
/// run's common prefix and goes on into the sub-runs that still tie and
/// are not all one key, comparing keys only in runs of at most
/// kTieCompareCutoff. digits[span, 2 * span) is radix scratch.
void order_tie_span(const TieKey* ties, std::uint32_t span, std::size_t depth,
                    TieDigit* digits, std::vector<TieRun>& runs) {
  for (std::uint32_t k = 0; k < span; ++k) digits[k].at = k;
  const auto order_run = [&](std::uint32_t begin, std::uint32_t end,
                             std::size_t shared) {
    TieDigit* const first = digits + begin;
    const std::uint32_t n = end - begin;
    if (n <= kTieCompareCutoff) {
      std::sort(first, first + n, [ties](const TieDigit& a, const TieDigit& b) {
        const int c = ties[a.at].key().compare(ties[b.at].key());
        return c != 0 ? c < 0 : a.at < b.at;
      });
      return;
    }
    for (std::uint32_t k = 0; k < n; ++k) {
      const TieKey& key = ties[first[k].at];
      first[k].bytes = bytes_at(key, shared);
      first[k].tail = static_cast<std::uint32_t>(
          std::min<std::size_t>(key.size - shared, kLongTail));
    }
    radix_sort<9>(first, digits + span + begin, n,
                  [](const TieDigit& t, unsigned d) -> unsigned {
                    return d == 0 ? t.tail
                                  : static_cast<unsigned>(
                                        t.bytes >> (8 * (d - 1))) &
                                        0xffu;
                  });
    // Sub-runs that tie on (bytes, tail) share 8 more key bytes; only
    // keys with bytes past those can still differ.
    for (std::uint32_t s = 0, t; s < n; s = t) {
      for (t = s + 1; t < n && first[t].bytes == first[s].bytes &&
                      first[t].tail == first[s].tail;
           ++t) {
      }
      if (t - s > 1 && first[s].tail == kLongTail) {
        runs.push_back({begin + s, begin + t, shared + 8});
      }
    }
  };

  order_run(0, span, depth);
  while (!runs.empty()) {
    const TieRun run = runs.back();
    runs.pop_back();
    SharedPrefix prefix(ties[digits[run.begin].at], run.depth);
    for (std::uint32_t k = run.begin + 1; k < run.end; ++k) {
      prefix.add(ties[digits[k].at]);
    }
    if (prefix.all_equal()) continue;  // a hot key: in span order already
    order_run(run.begin, run.end, prefix.length());
  }
}

}  // namespace

void sort_records(
    std::vector<RecordRef>& refs,
    const std::function<std::string_view(const RecordRef&)>& key_of) {
  const std::size_t n = refs.size();
  if (n < 2) return;
  TEXTMR_CHECK(n <= kMaxOffset, "too many records for one sort");

  // Stable LSD radix over the 12 bytes of (partition, key_prefix), least
  // significant first: digits 0..7 are the prefix bytes, 8..11 the
  // partition's.
  radix_sort<12>(refs.data(),
                 std::make_unique_for_overwrite<RecordRef[]>(n).get(), n,
                 [](const RecordRef& ref, unsigned d) -> unsigned {
                   return d < 8 ? static_cast<unsigned>(ref.key_prefix >>
                                                        (8 * d)) &
                                      0xffu
                                : (ref.partition >> (8 * (d - 8))) & 0xffu;
                 });
  // the scratch is freed before the tie keys are allocated

  // Equal (partition, prefix) decides nothing for keys over 8 bytes or
  // for zero-padded short keys: order each such span by full key, ties
  // by span position, so the sort stays stable.
  std::vector<TieKey> ties;      // sized to the widest span
  std::vector<TieDigit> digits;  // 2x the widest span not all one key
  std::vector<TieRun> runs;
  for (std::size_t i = 0, j; i < n; i = j) {
    for (j = i + 1; j < n && refs[j].partition == refs[i].partition &&
                    refs[j].key_prefix == refs[i].key_prefix;
         ++j) {
    }
    const auto span = static_cast<std::uint32_t>(j - i);
    if (span == 1) continue;
    if (ties.size() < span) ties.resize(span);
    const auto read = [&](std::uint32_t k) {
      const std::string_view key = key_of(refs[i + k]);
      ties[k] = TieKey{key.data(), static_cast<std::uint32_t>(key.size()), 0};
    };
    read(0);
    SharedPrefix prefix(ties[0], 0);
    for (std::uint32_t k = 1; k < span; ++k) {
      read(k);
      prefix.add(ties[k]);
    }
    if (prefix.all_equal()) continue;  // a hot key: already in emit order
    const std::size_t wide = 2 * std::size_t{span};  // entries + scratch
    if (digits.size() < wide) digits.resize(wide);
    order_tie_span(ties.data(), span, prefix.length(), digits.data(), runs);
    // Every ref in the span differs only in its offset: gather the
    // offsets in key order, then write them back.
    for (std::uint32_t k = 0; k < span; ++k) {
      ties[k].offset = refs[i + digits[k].at].offset;
    }
    for (std::uint32_t k = 0; k < span; ++k) {
      refs[i + k].offset = ties[k].offset;
    }
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
