#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "run_helpers.hpp"
#include "io/spill_file.hpp"
#include "mr/record_arena.hpp"

namespace textmr::io {
namespace {

struct Rec {
  std::uint32_t partition;
  std::string key;
  std::string value;
};

TEST(SpillFile, RoundTripsMultiplePartitions) {
  TempDir dir;
  const auto path = dir.file("run").string();
  const std::vector<Rec> records = {
      {0, "apple", "1"}, {0, "banana", "22"}, {1, "car", ""},
      {2, "dog", "value with spaces"}, {2, "dog", "another"},
  };
  SpillRunWriter writer(path, 3);
  for (const auto& r : records) writer.append(r.partition, r.key, r.value);
  const auto info = writer.finish();
  EXPECT_EQ(info.records, records.size());
  EXPECT_EQ(info.partitions.size(), 3u);
  EXPECT_EQ(info.partitions[0].records, 2u);
  EXPECT_EQ(info.partitions[1].records, 1u);
  EXPECT_EQ(info.partitions[2].records, 2u);

  SpillRunReader reader(path);
  ASSERT_EQ(reader.num_partitions(), 3u);
  for (std::uint32_t p = 0; p < 3; ++p) {
    std::vector<Record> expected;
    for (const auto& r : records) {
      if (r.partition == p) expected.push_back({r.key, r.value});
    }
    EXPECT_EQ(test::read_run(path, p), expected) << p;
  }
}

TEST(SpillFile, EmptyPartitionsAreReadable) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 4);
  writer.append(2, "only", "record");
  writer.finish();

  for (const std::uint32_t p : {0u, 1u, 3u}) {
    EXPECT_TRUE(test::read_run(path, p).empty()) << p;
  }
  EXPECT_EQ(test::read_run(path, 2),
            (std::vector<Record>{{"only", "record"}}));
}

TEST(SpillFile, CompletelyEmptyRun) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 2);
  const auto info = writer.finish();
  EXPECT_EQ(info.records, 0u);
  EXPECT_TRUE(test::read_run(path, 0).empty());
  EXPECT_TRUE(test::read_run(path, 1).empty());
}

TEST(SpillFile, LargeValuesCrossReadChunks) {
  TempDir dir;
  const auto path = dir.file("run").string();
  Xoshiro256 rng(3);
  std::vector<Rec> records;
  for (int i = 0; i < 50; ++i) {
    std::string value(1 << 15, static_cast<char>('a' + (i % 26)));
    records.push_back({0, "key" + std::to_string(i), std::move(value)});
  }
  SpillRunWriter writer(path, 1);
  for (const auto& r : records) writer.append(r.partition, r.key, r.value);
  writer.finish();

  std::vector<Record> expected;
  for (const auto& r : records) expected.push_back({r.key, r.value});
  EXPECT_EQ(test::read_run(path, 0), expected);
}

TEST(SpillFile, BinaryKeysAndValuesSurvive) {
  TempDir dir;
  const auto path = dir.file("run").string();
  const std::string key("k\0ey\xff", 5);
  const std::string value("\x00\x80\xff", 3);
  SpillRunWriter writer(path, 1);
  writer.append(0, key, value);
  writer.finish();
  EXPECT_EQ(test::read_run(path, 0), (std::vector<Record>{{key, value}}));
}

TEST(SpillFile, RejectsDecreasingPartitionOrder) {
  TempDir dir;
  SpillRunWriter writer(dir.file("run").string(), 3);
  writer.append(2, "a", "b");
  EXPECT_THROW(writer.append(1, "c", "d"), InternalError);
}

TEST(SpillFile, MultipleConcurrentCursorsOnOneRun) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 1);
  for (int i = 0; i < 100; ++i) {
    writer.append(0, "k" + std::to_string(i), "v");
  }
  writer.finish();
  // Two reads of one partition through one reader (as the map-side
  // merge and a shuffle server both read it): each sees the full stream.
  SpillRunReader reader(path);
  const std::string first = reader.read_partition(0);
  const std::string second = reader.read_partition(0);
  EXPECT_EQ(first, second);
  const std::vector<Record> records = test::read_run(path, 0);
  ASSERT_EQ(records.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(records[i].key, "k" + std::to_string(i));
  }
}

TEST(SpillFile, ReaderRejectsCorruptMagic) {
  TempDir dir;
  const auto path = dir.file("bad").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[64] = {0};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW(SpillRunReader reader(path), FormatError);
}

TEST(SpillFile, ReaderRejectsTinyFile) {
  TempDir dir;
  const auto path = dir.file("tiny").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("abc", 1, 3, f);
  std::fclose(f);
  EXPECT_THROW(SpillRunReader reader(path), FormatError);
}

/// Writes `stream` followed by a run footer naming `extents`.
void write_run(const std::string& path, std::string_view stream,
               const std::vector<PartitionExtent>& extents) {
  std::string bytes(stream);
  for (const PartitionExtent& e : extents) {
    put_fixed64(bytes, e.offset);
    put_fixed64(bytes, e.bytes);
    put_fixed64(bytes, e.records);
  }
  put_fixed32(bytes, static_cast<std::uint32_t>(extents.size()));
  put_fixed32(bytes, 0x54585252);  // "TXRR"
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(SpillFile, ReaderRejectsFooterExtentPastTheStream) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 2);
  writer.append(0, "apple", "1");
  writer.append(1, "banana", "22");
  const SpillRunInfo info = writer.finish();
  ASSERT_NO_THROW(SpillRunReader reader(path));

  // One flipped high byte in partition 0's `bytes` field: the extent now
  // claims ~2^56 bytes, which a bulk read would try to allocate.
  std::vector<PartitionExtent> extents = info.partitions;
  std::string stream(info.bytes, '\0');
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(stream.data(), 1, stream.size(), f), stream.size());
    std::fclose(f);
  }
  extents[0].bytes ^= std::uint64_t{0x5a} << 56;
  write_run(path, stream, extents);
  EXPECT_THROW(SpillRunReader reader(path), FormatError);

  // An extent one byte past the end, and one whose offset + bytes wraps.
  extents = info.partitions;
  extents[1].bytes += 1;
  write_run(path, stream, extents);
  EXPECT_THROW(SpillRunReader reader(path), FormatError);
  extents = info.partitions;
  extents[1].offset = ~std::uint64_t{0};
  extents[1].bytes = 2;
  write_run(path, stream, extents);
  EXPECT_THROW(SpillRunReader reader(path), FormatError);

  // The untouched footer still opens and reads.
  write_run(path, stream, info.partitions);
  EXPECT_EQ(SpillRunReader(path).read_partition(1).size(),
            info.partitions[1].bytes);
}

TEST(SpillFile, CursorRejectsAFrameLengthThatWraps) {
  // klen = 2^64 - 3 as a 10-byte varint, vlen = 8: header + klen + vlen
  // wraps to 16 bytes, which a sum-based bound would accept.
  std::string stream;
  put_varint(stream, ~std::uint64_t{0} - 2);
  put_varint(stream, 8);
  ASSERT_EQ(stream.size(), 11u);
  stream += "0123456789abc";
  EXPECT_THROW(decode_frame_header(stream), FormatError);

  TempDir dir;
  const auto path = dir.file("run").string();
  write_run(path, stream, {PartitionExtent{0, stream.size(), 1}});
  const std::string bytes = SpillRunReader(path).read_partition(0);
  EXPECT_EQ(bytes, stream);
  EXPECT_THROW(mr::index_frames(bytes, 0), FormatError);
  EXPECT_THROW(test::read_run(path, 0), FormatError);
}

TEST(EncodedRecordSize, MatchesActualEncoding) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 200; ++i) {
    const std::size_t klen = rng.next_below(300);
    const std::size_t vlen = rng.next_below(5000);
    const std::string key(klen, 'k');
    const std::string value(vlen, 'v');
    std::string out;
    encode_record(out, key, value);
    EXPECT_EQ(out.size(), encoded_record_size(klen, vlen));
  }
}

TEST(SpillFile, InfoByteCountsAreConsistent) {
  TempDir dir;
  const auto path = dir.file("run").string();
  SpillRunWriter writer(path, 2);
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t p = i < 200 ? 0 : 1;
    const std::string key = "key" + std::to_string(i);
    const std::string value(static_cast<std::size_t>(i % 50), 'x');
    writer.append(p, key, value);
    expected_bytes += encoded_record_size(key.size(), value.size());
  }
  const auto info = writer.finish();
  EXPECT_EQ(info.bytes, expected_bytes);
  EXPECT_EQ(info.partitions[0].bytes + info.partitions[1].bytes,
            expected_bytes);
  // Extents must tile the record stream.
  EXPECT_EQ(info.partitions[0].offset, 0u);
  EXPECT_EQ(info.partitions[1].offset, info.partitions[0].bytes);
}

}  // namespace
}  // namespace textmr::io
