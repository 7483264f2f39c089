#include <gtest/gtest.h>

// Seeded fuzz battery for the packed record codec and the zero-copy
// record path (ISSUE 4): adversarial keys/values — empty, embedded NULs,
// shared 8-byte prefixes (sort_records' tie path), >64 KiB
// payloads, ring-wrap straddling records — through frame/unframe,
// the spill ring, sort + spill write, bulk read + index, and the k-way
// merge. Every iteration
// derives from a fixed base seed, so failures replay deterministically;
// the failing seed is printed via SCOPED_TRACE. TEXTMR_FUZZ_ITERS
// multiplies the iteration counts (the `pressure` ctest label sets 10).

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "io/spill_file.hpp"
#include "mr/merger.hpp"
#include "mr/record_arena.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"
#include "run_helpers.hpp"

namespace textmr::mr {
namespace {

std::size_t fuzz_scale() {
  if (const char* env = std::getenv("TEXTMR_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::size_t>(v > 100 ? 100 : v);
  }
  return 1;
}

constexpr std::uint64_t kBaseSeed = 0x7465787432303134ull;  // "text2014"

/// Adversarial key: empty, tiny binary (embedded NULs), exactly-8-byte,
/// long with a shared prefix (forces the full compare past the 8-byte
/// prefix), or plain words.
std::string fuzz_key(Xoshiro256& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return "";
    case 1: {
      std::string key(1 + rng.next_below(8), '\0');
      for (char& c : key) c = static_cast<char>(rng.next_below(256));
      return key;
    }
    case 2: {
      std::string key(8, 'p');
      key[7] = static_cast<char>(rng.next_below(256));
      return key;
    }
    case 3: {
      // 8-byte common prefix + divergent binary tail: the prefix integer
      // ties and sort_records must read the tail.
      std::string key = "prefix08";
      const std::size_t tail = 1 + rng.next_below(24);
      for (std::size_t i = 0; i < tail; ++i) {
        key.push_back(static_cast<char>(rng.next_below(256)));
      }
      return key;
    }
    case 4: {
      std::string key(9 + rng.next_below(292), 'k');
      for (char& c : key) c = static_cast<char>('a' + rng.next_below(26));
      return key;
    }
    default:
      return "w" + std::to_string(rng.next_below(40));
  }
}

/// Adversarial value: empty, NUL-laden binary, within a few bytes of
/// 64 KiB, or — occasionally — larger than 64 KiB, past any 16-bit size
/// and any small fixed read buffer.
std::string fuzz_value(Xoshiro256& rng, bool allow_huge) {
  const std::uint64_t kind = rng.next_below(allow_huge ? 5 : 4);
  std::size_t size = 0;
  switch (kind) {
    case 0:
      return "";
    case 1:
      size = 1 + rng.next_below(16);
      break;
    case 2:
      size = 1 + rng.next_below(512);
      break;
    case 3:
      size = (1u << 16) - 4 + rng.next_below(8);  // straddles 2^16
      break;
    default:
      size = (1u << 16) + 1 + rng.next_below(1u << 14);  // > 64 KiB
      break;
  }
  std::string value(size, '\0');
  for (std::size_t i = 0; i < size; i += 1 + rng.next_below(7)) {
    value[i] = static_cast<char>(rng.next_below(256));
  }
  return value;
}

using RecordTuple = std::tuple<std::uint32_t, std::string, std::string>;

TEST(RecordFuzz, FrameHeaderRoundTripAndTruncationSafety) {
  const std::size_t sizes[] = {0,     1,     7,      8,     9,     127,
                               128,   16383, 16384,  65535, 65536, 70001};
  for (const std::size_t klen : sizes) {
    for (const std::size_t vlen : sizes) {
      char header[io::kMaxFrameHeaderBytes];
      const std::size_t header_size =
          io::encode_frame_header(header, klen, vlen);
      ASSERT_LE(header_size, io::kMaxFrameHeaderBytes);

      std::string frame(header, header_size);
      frame.append(klen, 'k');
      frame.append(vlen, 'v');
      const io::FrameHeader decoded = io::decode_frame_header(frame);
      EXPECT_EQ(decoded.key_size, klen);
      EXPECT_EQ(decoded.value_size, vlen);
      EXPECT_EQ(decoded.header_size, header_size);

      // Every strict prefix must be rejected: either the header varint
      // is cut short or the declared payload overruns the buffer.
      for (const std::size_t cut :
           {std::size_t{0}, header_size / 2, header_size, frame.size() - 1}) {
        if (cut >= frame.size()) continue;
        EXPECT_THROW(
            io::decode_frame_header(std::string_view(frame.data(), cut)),
            FormatError)
            << "klen=" << klen << " vlen=" << vlen << " cut=" << cut;
      }
    }
  }
}

TEST(RecordFuzz, ArenaRoundTripAdversarialRecords) {
  for (std::size_t iter = 0; iter < 4 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + iter);
    RecordArena arena;
    std::vector<RecordTuple> expected;
    for (int i = 0; i < 400; ++i) {
      const auto partition = static_cast<std::uint32_t>(rng.next_below(4));
      std::string key = fuzz_key(rng);
      std::string value = fuzz_value(rng, /*allow_huge=*/i % 67 == 0);
      arena.append(partition, key, value);
      expected.emplace_back(partition, std::move(key), std::move(value));
    }
    ASSERT_EQ(arena.size(), expected.size());
    const FrameStore frames = arena.frames();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const RecordRef& ref = arena.records()[i];
      const auto& [partition, key, value] = expected[i];
      const Frame frame = frames.frame(ref);
      ASSERT_EQ(ref.partition, partition) << i;
      ASSERT_EQ(frame.key, key) << i;
      ASSERT_EQ(frame.value, value) << i;
      ASSERT_EQ(ref.key_prefix, key_prefix8(key)) << i;
    }
  }
}

/// Keys that stress sort_records' prefix radix and its tie fallback: the
/// adversarial set above, URL-like keys that all share their first 8
/// bytes, empty keys, and keys of <= 8 bytes that differ only in length
/// (a short key's zero pad looks like embedded NULs).
std::string sort_fuzz_key(Xoshiro256& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return "http://www.site" + std::to_string(rng.next_below(50)) +
             ".org/p" + std::to_string(rng.next_below(20));
    case 1:
      return "";
    case 2:
      return "q" + std::string(rng.next_below(8), '\0');
    default:
      return fuzz_key(rng);
  }
}

TEST(RecordFuzz, SortRecordsMatchesAStableReferenceSort) {
  for (std::size_t iter = 0; iter < 8 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 50 + iter);
    const std::uint32_t partitions = iter % 4 < 2 ? 1 : 64;
    // Every fourth iteration is one hot key spanning the whole spill.
    const bool hot = iter % 4 == 3;
    const std::string hot_key = fuzz_key(rng);
    RecordArena arena;
    std::vector<RecordTuple> expected;
    for (int i = 0; i < 3000; ++i) {
      const auto partition =
          static_cast<std::uint32_t>(rng.next_below(partitions));
      std::string key = hot ? hot_key : sort_fuzz_key(rng);
      std::string value = std::to_string(i);  // emit order, for stability
      arena.append(partition, key, value);
      expected.emplace_back(partition, std::move(key), std::move(value));
    }
    std::vector<RecordRef> refs = arena.records();
    const FrameStore frames = arena.frames();
    sort_records(refs,
                 [&frames](const RecordRef& ref) { return frames.key(ref); });

    // The reference: a stable sort of the emitted tuples on (partition,
    // key). Equality checks the order, the multiset and the stability.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const RecordTuple& a, const RecordTuple& b) {
                       return std::tie(std::get<0>(a), std::get<1>(a)) <
                              std::tie(std::get<0>(b), std::get<1>(b));
                     });
    std::vector<RecordTuple> sorted;
    for (const RecordRef& ref : refs) {
      const Frame frame = frames.frame(ref);
      ASSERT_EQ(ref.key_prefix, key_prefix8(frame.key));
      sorted.emplace_back(ref.partition, std::string(frame.key),
                          std::string(frame.value));
    }
    ASSERT_EQ(sorted, expected);
  }
}

/// Emits `keys` in the given order, spread over `partitions` at random,
/// sorts them with sort_records and checks the result against a stable
/// sort of (partition, key) — the value is the emit position, so equality
/// also checks stability.
void expect_matches_stable_sort(const std::vector<std::string>& keys,
                                std::uint32_t partitions, Xoshiro256& rng) {
  RecordArena arena;
  std::vector<RecordTuple> expected;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto partition =
        static_cast<std::uint32_t>(rng.next_below(partitions));
    arena.append(partition, keys[i], std::to_string(i));
    expected.emplace_back(partition, keys[i], std::to_string(i));
  }
  std::vector<RecordRef> refs = arena.records();
  const FrameStore frames = arena.frames();
  sort_records(refs,
               [&frames](const RecordRef& ref) { return frames.key(ref); });
  std::stable_sort(expected.begin(), expected.end(),
                   [](const RecordTuple& a, const RecordTuple& b) {
                     return std::tie(std::get<0>(a), std::get<1>(a)) <
                            std::tie(std::get<0>(b), std::get<1>(b));
                   });
  std::vector<RecordTuple> sorted;
  for (const RecordRef& ref : refs) {
    const Frame frame = frames.frame(ref);
    sorted.emplace_back(ref.partition, std::string(frame.key),
                        std::string(frame.value));
  }
  ASSERT_EQ(sorted, expected);
}

/// Fisher-Yates with the battery's generator, so emit order is seeded.
void shuffle(std::vector<std::string>& keys, Xoshiro256& rng) {
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_below(i)]);
  }
}

/// A tail over a small alphabet with NULs, so tails collide and tie.
std::string tie_tail(Xoshiro256& rng, std::size_t max_length) {
  static constexpr char kAlphabet[] = {'\0', '\x01', 'a', 'b', '\xff'};
  std::string tail(rng.next_below(max_length + 1), '\0');
  for (char& c : tail) c = kAlphabet[rng.next_below(std::size(kAlphabet))];
  return tail;
}

// sort_records' tie pass descends 8 bytes at a time past each span's
// common prefix: spans whose keys share long prefixes, keys that differ
// from their neighbours only in trailing NULs (the zero pad must not
// equal a NUL), keys that are proper prefixes of longer ones, a hot key
// inside a shared-prefix span, and sub-spans on either side of the
// comparison cutoff.
TEST(RecordFuzz, SortRecordsOrdersLongSharedPrefixes) {
  for (std::size_t iter = 0; iter < 2 * fuzz_scale(); ++iter) {
    for (const std::uint32_t partitions : {1u, 64u}) {
      SCOPED_TRACE("iter=" + std::to_string(iter) +
                   " partitions=" + std::to_string(partitions));
      Xoshiro256 rng(kBaseSeed + 300 + iter);

      for (const std::size_t shared : {8, 15, 16, 24, 64}) {
        SCOPED_TRACE("shared prefix " + std::to_string(shared));
        std::string prefix(shared, '\0');
        for (char& c : prefix) c = static_cast<char>('a' + rng.next_below(26));
        std::vector<std::string> keys;
        for (int i = 0; i < 1500; ++i) {
          // Some keys stop inside the prefix: proper prefixes of the rest.
          const std::size_t cut = rng.next_below(8) == 0
                                      ? rng.next_below(shared + 1)
                                      : shared;
          keys.push_back(prefix.substr(0, cut) + tie_tail(rng, 20));
        }
        shuffle(keys, rng);
        expect_matches_stable_sort(keys, partitions, rng);
      }

      {
        SCOPED_TRACE("trailing NULs past byte 8");
        std::vector<std::string> keys;
        for (int i = 0; i < 1500; ++i) {
          std::string key = "nul-tails" + std::to_string(rng.next_below(3));
          key.append(rng.next_below(11), '\0');
          if (rng.next_below(4) == 0) key.push_back('\x01');
          keys.push_back(std::move(key));
        }
        shuffle(keys, rng);
        expect_matches_stable_sort(keys, partitions, rng);
      }

      {
        SCOPED_TRACE("proper prefixes of one long key");
        std::string whole(120, '\0');
        for (char& c : whole) c = static_cast<char>(rng.next_below(256));
        std::vector<std::string> keys;
        for (int i = 0; i < 1500; ++i) {
          keys.push_back(whole.substr(0, rng.next_below(whole.size() + 1)));
        }
        shuffle(keys, rng);
        expect_matches_stable_sort(keys, partitions, rng);
      }

      {
        SCOPED_TRACE("hot key in a shared-prefix span");
        std::vector<std::string> keys;
        for (int i = 0; i < 3000; ++i) {
          keys.push_back(rng.next_below(3) != 0
                             ? "http://www.site7.example.com/page7.html"
                             : "http://www.site" +
                                   std::to_string(rng.next_below(400)) +
                                   ".example.com/page" +
                                   std::to_string(rng.next_below(97)) +
                                   ".html");
        }
        expect_matches_stable_sort(keys, partitions, rng);
      }

      for (const std::size_t size :
           {kTieCompareCutoff - 1, kTieCompareCutoff, kTieCompareCutoff + 1}) {
        SCOPED_TRACE("runs of " + std::to_string(size) + " records");
        // One span of `size` keys on its own, then groups of `size` keys
        // that tie on the 8 bytes after the span's 16-byte common prefix
        // and differ only further on. One partition, so the runs keep
        // their sizes.
        for (const int groups : {1, 5}) {
          std::vector<std::string> keys;
          for (int g = 0; g < groups; ++g) {
            const char group = static_cast<char>('A' + g);
            const std::string head =
                "cutoff-shared-16" + std::string(1, group) + "-group-";
            for (std::size_t i = 0; i < size; ++i) {
              keys.push_back(head + "." + tie_tail(rng, 12));
            }
          }
          shuffle(keys, rng);
          expect_matches_stable_sort(keys, 1, rng);
        }
      }
    }
  }
}

TEST(RecordFuzz, SpillBufferRingWrapRoundTrip) {
  // A small ring forces records to straddle the wrap point; the framed
  // representation must survive wrap padding, empty keys/values and NULs.
  for (std::size_t iter = 0; iter < 2 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 100 + iter);
    SpillBuffer buffer(1 << 14, 0.5);
    std::vector<RecordTuple> collected;
    std::thread consumer([&] {
      while (auto spill = buffer.take()) {
        for (const RecordRef& ref : spill->records) {
          const Frame frame = spill->frames.frame(ref);
          collected.emplace_back(ref.partition, std::string(frame.key),
                                 std::string(frame.value));
        }
        buffer.release(*spill, 1);
      }
    });
    std::vector<RecordTuple> expected;
    for (int i = 0; i < 2000; ++i) {
      const auto partition = static_cast<std::uint32_t>(rng.next_below(3));
      std::string key = fuzz_key(rng);
      std::string value = fuzz_value(rng, /*allow_huge=*/false);
      if (value.size() > 2048) value.resize(2048);  // stay well under capacity
      buffer.put(partition, key, value);
      expected.emplace_back(partition, std::move(key), std::move(value));
    }
    buffer.close();
    consumer.join();
    ASSERT_EQ(collected, expected);
  }
}

TEST(RecordFuzz, SortSpillReadAndIndexRoundTrip) {
  for (std::size_t iter = 0; iter < 3 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 200 + iter);
    TempDir dir("textmr-record-fuzz");
    // Every uncombined record reaches the run as a verbatim frame blit.
    const auto partitions = static_cast<std::uint32_t>(1 + rng.next_below(3));

    RecordArena arena;
    Spill spill;
    std::multiset<RecordTuple> expected;
    for (int i = 0; i < 250; ++i) {
      const auto partition =
          static_cast<std::uint32_t>(rng.next_below(partitions));
      const std::string key = fuzz_key(rng);
      // Every iteration gets a few >64 KiB values.
      const std::string value = fuzz_value(rng, /*allow_huge=*/i % 50 == 0);
      spill.records.push_back(arena.append(partition, key, value));
      spill.data_bytes += key.size() + value.size();
      expected.emplace(partition, key, value);
    }
    spill.frames = arena.frames();

    TaskMetrics metrics;
    const auto info =
        sort_and_spill(spill, nullptr, dir.file("run").string(), partitions,
                       io::SpillFormat::kCompactVarint, metrics);
    ASSERT_EQ(info.records, expected.size());

    // Pass 1: the records in file order (the merge input path).
    io::SpillRunReader reader(info.path);
    std::multiset<RecordTuple> streamed;
    for (std::uint32_t p = 0; p < partitions; ++p) {
      std::string previous;
      bool first = true;
      for (auto& record : test::read_run(info.path, p)) {
        if (!first) {
          ASSERT_LE(previous, record.key);
        }
        previous = record.key;
        first = false;
        streamed.emplace(p, std::move(record.key), std::move(record.value));
      }
    }
    ASSERT_EQ(streamed, expected);

    // Pass 2: bulk read + in-place index (the zero-copy shuffle path).
    std::multiset<RecordTuple> indexed;
    for (std::uint32_t p = 0; p < partitions; ++p) {
      const std::string bytes = reader.read_partition(p);
      ASSERT_EQ(bytes.size(), reader.extent(p).bytes);
      const auto refs = index_frames(bytes, p);
      ASSERT_EQ(refs.size(), reader.extent(p).records);
      for (const RecordRef& ref : refs) {
        const Frame frame = FrameStore{bytes}.frame(ref);
        indexed.emplace(p, std::string(frame.key), std::string(frame.value));
        ASSERT_EQ(ref.key_prefix, key_prefix8(frame.key));
      }
      // A stream cut inside the final frame must be rejected, never
      // silently decoded.
      if (!bytes.empty()) {
        EXPECT_THROW(
            index_frames(std::string_view(bytes.data(), bytes.size() - 1), p),
            FormatError);
      }
    }
    ASSERT_EQ(indexed, expected);
  }
}

TEST(RecordFuzz, MultiRunMergeRoundTrip) {
  for (std::size_t iter = 0; iter < 2 * fuzz_scale(); ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    Xoshiro256 rng(kBaseSeed + 300 + iter);
    TempDir dir("textmr-merge-fuzz");
    const auto format = io::SpillFormat::kCompactVarint;
    const std::uint32_t partitions = 2;

    std::vector<io::SpillRunInfo> runs;
    std::multiset<RecordTuple> expected;
    RecordArena arena;
    for (int run = 0; run < 4; ++run) {
      arena.clear();
      Spill spill;
      for (int i = 0; i < 120; ++i) {
        const auto partition =
            static_cast<std::uint32_t>(rng.next_below(partitions));
        const std::string key = fuzz_key(rng);
        const std::string value = fuzz_value(rng, /*allow_huge=*/i % 60 == 0);
        spill.records.push_back(arena.append(partition, key, value));
        spill.data_bytes += key.size() + value.size();
        expected.emplace(partition, key, value);
      }
      spill.frames = arena.frames();
      TaskMetrics metrics;
      runs.push_back(sort_and_spill(spill, nullptr,
                                    dir.file("run" + std::to_string(run))
                                        .string(),
                                    partitions, format, metrics));
    }

    TaskMetrics merge_metrics;
    const auto merged = merge_runs(runs, nullptr, dir.file("merged").string(),
                                   partitions, format, merge_metrics);
    ASSERT_EQ(merged.records, expected.size());

    std::multiset<RecordTuple> actual;
    for (std::uint32_t p = 0; p < partitions; ++p) {
      std::string previous;
      bool first = true;
      for (auto& record : test::read_run(merged.path, p)) {
        if (!first) {
          ASSERT_LE(previous, record.key);
        }
        previous = record.key;
        first = false;
        actual.emplace(p, std::move(record.key), std::move(record.value));
      }
    }
    ASSERT_EQ(actual, expected);
  }
}

}  // namespace
}  // namespace textmr::mr
