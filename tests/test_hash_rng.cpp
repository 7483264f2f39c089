#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/harmonic.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace textmr {
namespace {

TEST(Fnv1a, MatchesKnownVectors) {
  // Reference values for FNV-1a 64-bit.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, IsConstexpr) {
  static_assert(fnv1a64("abc") != fnv1a64("abd"));
  SUCCEED();
}

TEST(HashKey, MatchesPinnedGoldenVectors) {
  // hash_key decides partition assignment, so these values pin every
  // golden fixture's part layout. A platform or compiler that changes any of them would shift
  // outputs silently everywhere else — fail loudly here instead. Never
  // update these constants; if this test breaks, the hash broke.
  EXPECT_EQ(hash_key(""), 0xc3817c016ba4ff30ull);
  EXPECT_EQ(hash_key("a"), 0x5f29c2aadd9b8527ull);
  EXPECT_EQ(hash_key("the"), 0xff7f3d556c4703b3ull);
  EXPECT_EQ(hash_key("of"), 0x531ed2bfd070a1e3ull);
  EXPECT_EQ(hash_key("and"), 0xdb7877dbf15219e8ull);
  EXPECT_EQ(hash_key("foobar"), 0x5df295413403de4full);
  EXPECT_EQ(hash_key(std::string_view("\0", 1)), 0x71b8262bb6e2e086ull);
  EXPECT_EQ(hash_key(std::string_view("k\0y", 3)), 0x23e5588659f3b4c7ull);
  EXPECT_EQ(hash_key("http://example.com/page?id=42"), 0x36022579f2d1bb6bull);
  EXPECT_EQ(hash_key("\xE6\x97\xA5\xE6\x9C\xAC"), 0xf4288c2908dbf755ull);
  EXPECT_EQ(hash_key(std::string(70000, 'x')), 0x09bd1b6e44636cdcull);
}

TEST(HashKey, PartitionLayoutIsPinned) {
  // The full partition map for keys "w0".."w31" at 8 partitions — the
  // shape golden fixtures and the differential grid implicitly rely on.
  constexpr std::uint64_t kPartitions = 8;
  constexpr std::uint64_t kExpected[32] = {
      2, 3, 7, 5, 0, 4, 4, 3, 3, 4, 2, 6, 1, 5, 6, 6,
      4, 6, 3, 6, 4, 5, 6, 6, 2, 7, 1, 6, 5, 3, 6, 6};
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(hash_key("w" + std::to_string(i)) % kPartitions, kExpected[i])
        << "w" << i;
  }
}

TEST(HashKey, DistributesShortKeysAcrossPartitions) {
  // fnv1a alone clusters short keys in low bits; mix64 must spread them.
  constexpr int kPartitions = 16;
  std::vector<int> buckets(kPartitions, 0);
  for (int i = 0; i < 16000; ++i) {
    buckets[hash_key(std::to_string(i)) % kPartitions] += 1;
  }
  for (const int count : buckets) {
    EXPECT_GT(count, 700);   // expectation 1000; loose 30% band
    EXPECT_LT(count, 1300);
  }
}

TEST(SplitMix64, ProducesKnownSequence) {
  // Reference sequence for seed 1234567 (from the splitmix64 reference
  // implementation).
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ull);
  EXPECT_EQ(sm.next(), 3203168211198807973ull);
}

TEST(Xoshiro, IsDeterministicPerSeed) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
  Xoshiro256 c(100);
  bool differs = false;
  Xoshiro256 a2(99);
  for (int i = 0; i < 10; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256 rng(7);
  double min_seen = 1.0;
  double max_seen = 0.0;
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    min_seen = std::min(min_seen, u);
    max_seen = std::max(max_seen, u);
    sum += u;
  }
  EXPECT_LT(min_seen, 0.01);
  EXPECT_GT(max_seen, 0.99);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Xoshiro, NextBelowIsInRangeAndRoughlyUniform) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t kBound = 7;
  std::vector<int> counts(kBound, 0);
  constexpr int kSamples = 70000;
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t v = rng.next_below(kBound);
    ASSERT_LT(v, kBound);
    counts[v] += 1;
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, kSamples / kBound, kSamples / kBound * 0.1);
  }
}

TEST(Harmonic, MatchesDirectSumForSmallM) {
  for (const double alpha : {0.0, 0.5, 0.8, 1.0, 1.3}) {
    double direct = 0.0;
    for (int j = 1; j <= 1000; ++j) {
      direct += std::pow(j, -alpha);
    }
    EXPECT_NEAR(generalized_harmonic(1000, alpha), direct, 1e-9) << alpha;
  }
}

TEST(Harmonic, TailApproximationIsAccurateForLargeM) {
  // Compare Euler–Maclaurin path (m > 100000) against a brute-force sum.
  const std::uint64_t m = 300000;
  for (const double alpha : {0.6, 1.0, 1.4}) {
    double direct = 0.0;
    for (std::uint64_t j = 1; j <= m; ++j) {
      direct += std::pow(static_cast<double>(j), -alpha);
    }
    const double approx = generalized_harmonic(m, alpha);
    EXPECT_NEAR(approx / direct, 1.0, 1e-6) << alpha;
  }
}

TEST(Harmonic, AlphaOneIsLogarithmic) {
  // H_{m,1} ~ ln m + gamma
  const double h = generalized_harmonic(10'000'000, 1.0);
  EXPECT_NEAR(h, std::log(1e7) + 0.5772156649, 1e-3);
}

TEST(Harmonic, RejectsZeroM) {
  EXPECT_THROW(generalized_harmonic(0, 1.0), InternalError);
}

}  // namespace
}  // namespace textmr
