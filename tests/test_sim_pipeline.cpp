#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "sim/pipeline.hpp"
#include "spillmatch/spill_matcher.hpp"

namespace textmr::sim {
namespace {

PipelineConfig base(double p, double c, double total = 1e9,
                    double buffer = 1e8, double x = 0.8,
                    bool use_spill_matcher = false) {
  PipelineConfig config;
  config.produce_rate = p;
  config.consume_rate = c;
  config.total_bytes = total;
  config.buffer_bytes = buffer;
  config.threshold = x;
  config.use_spill_matcher = use_spill_matcher;
  return config;
}

TEST(SimPipeline, WallIsAtLeastBothLowerBounds) {
  // Processing everything takes at least total/p and at least total/c.
  for (const double p : {1e6, 1e7, 1e8}) {
    for (const double c : {1e6, 1e7, 1e8}) {
      const auto result = simulate_map_pipeline(base(p, c));
      EXPECT_GE(result.wall_s, 1e9 / p - 1e-6);
      EXPECT_GE(result.wall_s, 1e9 / c - 1e-6);
      // And at most the fully serialized execution.
      EXPECT_LE(result.wall_s, 1e9 / p + 1e9 / c + 1e-6);
    }
  }
}

TEST(SimPipeline, EmptyInputIsZero) {
  auto config = base(1e6, 1e6);
  config.total_bytes = 0;
  const auto result = simulate_map_pipeline(config);
  EXPECT_EQ(result.wall_s, 0.0);
  EXPECT_EQ(result.spills, 0u);
}

TEST(SimPipeline, WorkConservation) {
  // wall = active_produce + map_idle at the map thread's end; for the
  // support thread, wall = active_consume + support_idle.
  const auto result = simulate_map_pipeline(base(2e7, 1e7));
  const double produce_active = 1e9 / 2e7;
  const double consume_active = 1e9 / 1e7;
  // Support finishes last; its busy+idle spans the wall exactly.
  EXPECT_NEAR(result.support_idle_s + consume_active, result.wall_s, 1e-6);
  // The map thread's busy+idle is at most the wall.
  EXPECT_LE(produce_active + result.map_idle_s, result.wall_s + 1e-6);
}

TEST(SimPipeline, MatcherNeverSlowerThanFixedDefault) {
  for (const double ratio : {0.1, 0.3, 1.0, 3.0, 10.0}) {
    const double p = 1e7 * ratio;
    const double c = 1e7;
    const auto fixed = simulate_map_pipeline(base(p, c, 1e9, 1e8, 0.8));
    const auto matched = simulate_map_pipeline(
        base(p, c, 1e9, 1e8, 0.8, /*use_spill_matcher=*/true));
    EXPECT_LE(matched.wall_s, fixed.wall_s * 1.001) << "ratio=" << ratio;
  }
}

TEST(SimPipeline, MatcherRemovesSlowerThreadWaitTime) {
  // The paper's core claim (§V-C): with the matched threshold, the slower
  // of the two threads stops waiting (~90% of its wait removed for
  // WordCount-like rate ratios).
  const double p = 1.5e7;
  const double c = 1e7;  // support is slower
  const auto fixed = simulate_map_pipeline(base(p, c, 2e9, 1e8, 0.8));
  const auto matched = simulate_map_pipeline(
      base(p, c, 2e9, 1e8, 0.8, /*use_spill_matcher=*/true));
  EXPECT_GT(fixed.support_idle_s, 0.0);
  EXPECT_LT(matched.support_idle_s, fixed.support_idle_s * 0.25);
}

TEST(SimPipeline, MatcherConvergesToEquationOneThreshold) {
  const double p = 1e7;
  const double c = 3e7;  // map slower: x* = c/(p+c) = 0.75
  const auto result = simulate_map_pipeline(
      base(p, c, 5e9, 1e8, 0.8, /*use_spill_matcher=*/true));
  EXPECT_NEAR(result.final_threshold, 0.75, 0.02);

  const double p2 = 3e7;
  const double c2 = 1e7;  // support slower: x* = 1/2
  const auto result2 = simulate_map_pipeline(
      base(p2, c2, 5e9, 1e8, 0.8, /*use_spill_matcher=*/true));
  EXPECT_NEAR(result2.final_threshold, 0.5, 0.02);
}

TEST(SimPipeline, MatcherAppliesTheMapTasksRule) {
  // The simulator calls spillmatch::next_threshold, cap included: with a
  // consumer 100x faster than the producer, eq. (1) asks for x ≈ 0.99.
  const auto result = simulate_map_pipeline(
      base(1e6, 1e8, 1e9, 1e8, 0.8, /*use_spill_matcher=*/true));
  EXPECT_GT(result.spills, 1u);
  EXPECT_DOUBLE_EQ(result.final_threshold, spillmatch::kMaxMatchedThreshold);
}

TEST(SimPipeline, BalancedRatesApproachPerfectOverlap) {
  // p == c with the matched threshold: wall tends to total/p + small
  // startup transient, i.e. near-perfect pipelining.
  const double rate = 1e7;
  const auto result = simulate_map_pipeline(
      base(rate, rate, 5e9, 1e8, 0.8, /*use_spill_matcher=*/true));
  const double ideal = 5e9 / rate;
  EXPECT_LT(result.wall_s, ideal * 1.05);
}

TEST(SimPipeline, HighFixedThresholdStallsBalancedPipeline) {
  // With x = 0.8 and p ~ c, the §IV-C recurrence predicts both threads
  // wait (Hadoop's Table II behaviour). The simulated idle fractions must
  // be substantial.
  const double rate = 1e7;
  const auto result = simulate_map_pipeline(base(rate, rate, 5e9, 1e8, 0.8));
  const double ideal = 5e9 / rate;
  EXPECT_GT(result.wall_s, ideal * 1.3);
  EXPECT_GT(result.map_idle_s, 0.0);
  EXPECT_GT(result.support_idle_s, 0.0);
}

TEST(SimPipeline, SpillCountTracksThreshold) {
  // Smaller threshold -> more, smaller spills.
  const auto small = simulate_map_pipeline(base(1e7, 2e7, 1e9, 1e8, 0.1));
  const auto large = simulate_map_pipeline(base(1e7, 2e7, 1e9, 1e8, 0.9));
  EXPECT_GT(small.spills, large.spills);
}

TEST(SimPipeline, VerySlowConsumerDegeneratesToSerial) {
  // c << p: wall ~ total/c (consumer-bound), map idles most of the time.
  const auto result = simulate_map_pipeline(base(1e8, 1e6, 1e9, 1e8, 0.8));
  EXPECT_NEAR(result.wall_s, 1e9 / 1e6, 1e9 / 1e6 * 0.15);
  EXPECT_GT(result.map_idle_s, result.wall_s * 0.8);
}

TEST(SimPipeline, VerySlowProducerKeepsConsumerIdle) {
  const auto result = simulate_map_pipeline(base(1e6, 1e8, 1e9, 1e8, 0.8));
  EXPECT_NEAR(result.wall_s, 1e9 / 1e6, 1e9 / 1e6 * 0.15);
  EXPECT_GT(result.support_idle_s, result.wall_s * 0.8);
}

TEST(SimPipeline, RejectsNonPositiveRates) {
  auto config = base(0.0, 1e6);
  EXPECT_THROW(simulate_map_pipeline(config), InternalError);
}

}  // namespace
}  // namespace textmr::sim
