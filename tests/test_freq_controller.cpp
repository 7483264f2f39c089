#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "common/varint.hpp"
#include "common/zipf.hpp"
#include "apps/wordcount.hpp"
#include "freqbuf/controller.hpp"
#include "textgen/corpus_gen.hpp"

namespace textmr::freqbuf {
namespace {

/// Records what the table's flushes push out (the ring, in a map task).
class RecordingTarget final : public mr::HashCombineShards::FlushTarget {
 public:
  void put(std::uint32_t, std::string_view key,
           std::string_view value) override {
    records.emplace_back(std::string(key), std::string(value));
  }
  void seal() override {}
  std::vector<std::pair<std::string, std::string>> records;
};

/// The table a controller pins its frozen set in, flushing into a
/// RecordingTarget; one partition, so every key pins once.
struct Table {
  explicit Table(mr::Reducer* combiner)
      : table(config(), combiner, target, metrics, nullptr) {}

  static mr::HashCombineConfig config() {
    mr::HashCombineConfig config;
    config.memory_budget_bytes = 1 << 16;
    return config;
  }

  RecordingTarget target;
  mr::TaskMetrics metrics;
  mr::HashCombineShards table;
  mr::HashPartitioner partitioner{1};
};

std::string varint_value(std::uint64_t v) {
  std::string out;
  put_varint(out, v);
  return out;
}

std::uint64_t varint_of(std::string_view bytes) {
  std::size_t pos = 0;
  return get_varint(bytes, pos);
}

FreqBufConfig basic_config() {
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 10;
  config.sampling_fraction = 0.1;  // fixed s, no pre-profiling
  return config;
}

/// Streams a Zipf-distributed key sequence through the controller,
/// simulating the map task's progress callbacks.
struct StreamResult {
  std::uint64_t absorbed = 0;
  std::uint64_t passed = 0;
};

StreamResult stream_keys(FreqBufferController& controller, int n,
                         double alpha, std::uint64_t seed,
                         std::uint64_t vocab = 1000) {
  Xoshiro256 rng(seed);
  ZipfDistribution zipf(vocab, alpha);
  StreamResult result;
  for (int i = 0; i < n; ++i) {
    controller.set_progress(static_cast<double>(i) / n);
    const std::string key = textgen::word_for_rank(zipf(rng));
    if (controller.offer(0, key, varint_value(1))) {
      ++result.absorbed;
    } else {
      ++result.passed;
    }
  }
  return result;
}

TEST(FreqBufferController, TransitionsThroughStages) {
  apps::WordCountCombiner combiner;
  Table t(&combiner);
  FreqBufferController controller(basic_config(), t.table, t.partitioner,
                                  t.metrics);
  EXPECT_EQ(controller.stage(), FreqBufferController::Stage::kProfile);

  controller.set_progress(0.05);
  EXPECT_EQ(controller.stage(), FreqBufferController::Stage::kProfile);
  controller.offer(0, "x", varint_value(1));
  controller.set_progress(0.11);
  EXPECT_EQ(controller.stage(), FreqBufferController::Stage::kOptimize);
}

TEST(FreqBufferController, FixedSamplingSkipsPreProfile) {
  Table t(nullptr);
  FreqBufferController controller(basic_config(), t.table, t.partitioner,
                                  t.metrics);
  EXPECT_EQ(controller.effective_sampling_fraction(), 0.1);
  EXPECT_FALSE(controller.zipf_fit().has_value());
}

TEST(FreqBufferController, AbsorbsFrequentKeysAfterProfiling) {
  apps::WordCountCombiner combiner;
  Table t(&combiner);
  FreqBufferController controller(basic_config(), t.table, t.partitioner,
                                  t.metrics);
  const auto result = stream_keys(controller, 50000, 1.2, 99);
  // With alpha=1.2 the top-10 keys carry a large share of the stream; a
  // large portion of post-profiling records must be absorbed.
  EXPECT_GT(result.absorbed, 10000u);
  EXPECT_EQ(t.metrics.freq_hits, result.absorbed);
  controller.finish();
  // Flushed aggregates re-enter the spill path, one per frequent key.
  EXPECT_FALSE(t.target.records.empty());
  EXPECT_LE(t.target.records.size(), 10u);
}

TEST(FreqBufferController, ConservationThroughFlush) {
  // Every emitted count appears exactly once downstream: either passed
  // through during profiling/misses, or in a flushed aggregate.
  apps::WordCountCombiner combiner;
  Table t(&combiner);
  FreqBufferController controller(basic_config(), t.table, t.partitioner,
                                  t.metrics);

  std::map<std::string, std::uint64_t> expected;
  Xoshiro256 rng(7);
  ZipfDistribution zipf(500, 1.0);
  constexpr int kN = 30000;
  std::map<std::string, std::uint64_t> passed_through;
  for (int i = 0; i < kN; ++i) {
    controller.set_progress(static_cast<double>(i) / kN);
    const std::string key = textgen::word_for_rank(zipf(rng));
    expected[key] += 1;
    if (!controller.offer(0, key, varint_value(1))) {
      passed_through[key] += 1;
    }
  }
  controller.finish();
  std::map<std::string, std::uint64_t> total = passed_through;
  for (const auto& [key, value] : t.target.records) {
    total[key] += varint_of(value);
  }
  EXPECT_EQ(total, expected);
}

TEST(FreqBufferController, AutoTunerFitsAlphaAndPicksSamplingFraction) {
  apps::WordCountCombiner combiner;
  Table t(&combiner);
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 20;
  config.sampling_fraction = 0.0;  // auto-tune
  FreqBufferController controller(config, t.table, t.partitioner, t.metrics);
  EXPECT_EQ(controller.stage(), FreqBufferController::Stage::kPreProfile);

  stream_keys(controller, 100000, 1.0, 42, /*vocab=*/2000);
  ASSERT_TRUE(controller.zipf_fit().has_value());
  EXPECT_NEAR(controller.zipf_fit()->alpha, 1.0, 0.35);
  EXPECT_GE(controller.effective_sampling_fraction(), kPreProfileFraction);
  EXPECT_EQ(controller.stage(), FreqBufferController::Stage::kOptimize);
}

TEST(FreqBufferController, NodeCacheSharesKeySetAcrossTasks) {
  NodeKeyCache cache;
  apps::WordCountCombiner combiner;
  const auto config = basic_config();

  Table t1(&combiner);
  FreqBufferController first(config, t1.table, t1.partitioner, t1.metrics,
                             &cache);
  EXPECT_EQ(first.stage(), FreqBufferController::Stage::kProfile);
  stream_keys(first, 20000, 1.2, 1);
  first.finish();
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_FALSE(cache.get()->empty());

  // Second task on the same node starts directly in kOptimize.
  Table t2(&combiner);
  FreqBufferController second(config, t2.table, t2.partitioner, t2.metrics,
                              &cache);
  EXPECT_EQ(second.stage(), FreqBufferController::Stage::kOptimize);
  EXPECT_TRUE(second.offer(0, cache.get()->front(), varint_value(1)));
}

TEST(NodeKeyCache, FirstWriterWins) {
  NodeKeyCache cache;
  cache.put({"a"});
  cache.put({"b"});
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_EQ(cache.get()->front(), "a");
}

TEST(FreqBufferController, TinyInputEndingDuringPreProfileStillFreezes) {
  NodeKeyCache cache;
  apps::WordCountCombiner combiner;
  Table t(&combiner);
  FreqBufConfig config;
  config.enabled = true;
  config.top_k = 5;
  config.sampling_fraction = 0.0;
  FreqBufferController controller(config, t.table, t.partitioner, t.metrics,
                                  &cache);
  controller.offer(0, "a", varint_value(1));
  controller.offer(0, "a", varint_value(1));
  controller.offer(0, "b", varint_value(1));
  controller.finish();  // still in kPreProfile; must not crash
  ASSERT_TRUE(cache.get().has_value());
  EXPECT_FALSE(cache.get()->empty());
}

TEST(FreqBufferController, WithoutCombinerAdmitsNothing) {
  Table t(nullptr);
  FreqBufferController controller(basic_config(), t.table, t.partitioner,
                                  t.metrics);
  const auto result = stream_keys(controller, 20000, 1.2, 5);
  EXPECT_EQ(controller.stage(), FreqBufferController::Stage::kOptimize);
  EXPECT_EQ(result.absorbed, 0u);
  controller.finish();
  EXPECT_TRUE(t.target.records.empty());
}

TEST(FreqBufferController, ProfileTimeIsAccounted) {
  Table t(nullptr);
  FreqBufferController controller(basic_config(), t.table, t.partitioner,
                                  t.metrics);
  stream_keys(controller, 20000, 1.0, 3);
  EXPECT_GT(t.metrics.op_ns(mr::Op::kProfile), 0u);
  EXPECT_GT(t.metrics.op_ns(mr::Op::kFreqTable), 0u);
}

}  // namespace
}  // namespace textmr::freqbuf
