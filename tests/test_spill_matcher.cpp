#include <gtest/gtest.h>

#include "spillmatch/spill_matcher.hpp"

namespace textmr::spillmatch {
namespace {

TEST(MatchedThreshold, EqualRatesGiveHalf) {
  EXPECT_DOUBLE_EQ(matched_threshold(1000, 1000), 0.5);
}

TEST(MatchedThreshold, SupportSlowerCapsAtHalf) {
  // p > c  <=>  T_p < T_c  =>  x = 1/2 (paper §IV-C case 2).
  EXPECT_DOUBLE_EQ(matched_threshold(100, 900), 0.5);
  EXPECT_DOUBLE_EQ(matched_threshold(1, 1000000), 0.5);
}

TEST(MatchedThreshold, MapSlowerRaisesThreshold) {
  // p < c  <=>  T_p > T_c  =>  x = c/(p+c) = T_p/(T_p+T_c) > 1/2.
  EXPECT_DOUBLE_EQ(matched_threshold(900, 100), 0.9);
  EXPECT_DOUBLE_EQ(matched_threshold(3000, 1000), 0.75);
}

TEST(MatchedThreshold, DegenerateZeroTimesFallBackToHalf) {
  EXPECT_DOUBLE_EQ(matched_threshold(0, 0), 0.5);
}

TEST(MatchedThreshold, AlwaysInHalfOpenUnitRange) {
  for (std::uint64_t tp : {1ull, 10ull, 1000ull, 1000000ull}) {
    for (std::uint64_t tc : {1ull, 10ull, 1000ull, 1000000ull}) {
      const double x = matched_threshold(tp, tc);
      EXPECT_GE(x, 0.5);
      EXPECT_LT(x, 1.0);
    }
  }
}

TEST(MatchedThreshold, WaitFreeInvariantFromTheDerivation) {
  // The derivation's two sufficient conditions:
  //   p < c:  x <= c/(p+c)   (map thread never blocks on a full buffer)
  //   p >= c: x <= 1/2       (support thread finds the next spill ready)
  // matched_threshold must sit exactly on the boundary.
  for (double p : {0.5, 1.0, 2.0, 10.0}) {
    for (double c : {0.5, 1.0, 2.0, 10.0}) {
      const auto tp = static_cast<std::uint64_t>(1e9 / p);
      const auto tc = static_cast<std::uint64_t>(1e9 / c);
      const double x = matched_threshold(tp, tc);
      if (p < c) {
        EXPECT_NEAR(x, c / (p + c), 1e-9) << p << " " << c;
      } else {
        EXPECT_DOUBLE_EQ(x, 0.5) << p << " " << c;
      }
    }
  }
}

TEST(SpillMatcherRule, AppliesEquationOne) {
  EXPECT_DOUBLE_EQ(next_threshold(1000, 1000), 0.5);
  EXPECT_DOUBLE_EQ(next_threshold(9000, 1000), 0.9);
  EXPECT_DOUBLE_EQ(next_threshold(1000, 9000), 0.5);
}

TEST(SpillMatcherRule, CapsExtremeMeasurements) {
  // T_p >> T_c would give ~1.0; the rule caps it.
  EXPECT_DOUBLE_EQ(next_threshold(1000000000, 1), kMaxMatchedThreshold);
  EXPECT_DOUBLE_EQ(next_threshold(1, 0), kMaxMatchedThreshold);
}

TEST(SpillMatcherRule, TracksAlternatingWorkloads) {
  // The rule is purely last-spill-driven (paper's adjacent-spill
  // hypothesis); alternating inputs alternate outputs.
  EXPECT_DOUBLE_EQ(next_threshold(3000, 1000), 0.75);
  EXPECT_DOUBLE_EQ(next_threshold(1000, 3000), 0.5);
  EXPECT_DOUBLE_EQ(next_threshold(3000, 1000), 0.75);
}

TEST(SpillMatcherRule, TakesTimesInAnyOneUnit) {
  // The ring passes nanoseconds and the simulator seconds.
  EXPECT_DOUBLE_EQ(next_threshold(3e9, 1e9), next_threshold(3.0, 1.0));
  EXPECT_DOUBLE_EQ(next_threshold(0.25, 0.75), 0.5);
}

}  // namespace
}  // namespace textmr::spillmatch
