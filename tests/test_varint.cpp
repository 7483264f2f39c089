#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "common/varint.hpp"

namespace textmr {
namespace {

TEST(Varint, EncodesSmallValuesInOneByte) {
  for (std::uint64_t v = 0; v < 128; ++v) {
    std::string out;
    put_varint(out, v);
    EXPECT_EQ(out.size(), 1u) << v;
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(out, pos), v);
    EXPECT_EQ(pos, 1u);
  }
}

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {
      0,
      1,
      127,
      128,
      16383,
      16384,
      (1ull << 32) - 1,
      1ull << 32,
      std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (const std::uint64_t v : cases) {
    std::string out;
    put_varint(out, v);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(out, pos), v);
    EXPECT_EQ(pos, out.size());
  }
}

TEST(Varint, RoundTripsRandomValuesBackToBack) {
  Xoshiro256 rng(123);
  std::string out;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes so all byte-lengths are exercised.
    const int shift = static_cast<int>(rng.next_below(64));
    const std::uint64_t v = rng() >> shift;
    values.push_back(v);
    put_varint(out, v);
  }
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    ASSERT_EQ(get_varint(out, pos), v);
  }
  EXPECT_EQ(pos, out.size());
}

TEST(Varint, ThrowsOnTruncation) {
  std::string out;
  put_varint(out, 1ull << 40);
  for (std::size_t cut = 1; cut < out.size(); ++cut) {
    std::size_t pos = 0;
    EXPECT_THROW(get_varint(out.substr(0, cut), pos), FormatError) << cut;
  }
}

TEST(Varint, ThrowsOnOverlongEncoding) {
  // 11 continuation bytes exceed 64 bits of payload.
  std::string bad(10, '\x80');
  bad.push_back('\x01');
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(bad, pos), FormatError);
}

TEST(Fixed, RoundTrips32And64) {
  std::string out;
  put_fixed32(out, 0xdeadbeefu);
  put_fixed64(out, 0x0123456789abcdefull);
  std::size_t pos = 0;
  EXPECT_EQ(get_fixed32(out, pos), 0xdeadbeefu);
  EXPECT_EQ(get_fixed64(out, pos), 0x0123456789abcdefull);
  EXPECT_EQ(pos, 12u);
}

TEST(Fixed, IsLittleEndianOnTheWire) {
  std::string out;
  put_fixed32(out, 0x01020304u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(out[3]), 0x01);
}

TEST(Fixed, ThrowsOnTruncation) {
  std::string out;
  put_fixed64(out, 42);
  std::size_t pos = 0;
  EXPECT_THROW(get_fixed64(out.substr(0, 7), pos), FormatError);
  pos = 0;
  EXPECT_THROW(get_fixed32(out.substr(0, 3), pos), FormatError);
}

TEST(LengthPrefixed, RoundTripsIncludingEmbeddedNulsAndEmpty) {
  const std::string cases[] = {"", "a", std::string("x\0y", 3),
                               std::string(1000, 'q')};
  std::string out;
  for (const auto& s : cases) put_length_prefixed(out, s);
  std::size_t pos = 0;
  for (const auto& s : cases) {
    EXPECT_EQ(get_length_prefixed(out, pos), s);
  }
  EXPECT_EQ(pos, out.size());
}

TEST(LengthPrefixed, ThrowsWhenLengthExceedsBuffer) {
  std::string out;
  put_varint(out, 100);  // claims 100 bytes, provides none
  std::size_t pos = 0;
  EXPECT_THROW(get_length_prefixed(out, pos), FormatError);
}

}  // namespace
}  // namespace textmr
