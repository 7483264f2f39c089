#include <gtest/gtest.h>

// FreqOpt's frequent-key table: the map side's combine table
// (mr::HashCombineShards) holding pinned (partition, key) entries and
// flushing into an injected target, as FreqBufferController drives it
// (DESIGN.md §15). Pinned keys are absorbed and combined, others are
// refused, every value reaches the target exactly once however the budget
// forces flushes, and a flush leaves the table at its pinned floor.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/wordcount.hpp"
#include "common/error.hpp"
#include "common/varint.hpp"
#include "mr/hash_combine.hpp"
#include "mr/types.hpp"

namespace textmr::mr {
namespace {

struct FlatRecord {
  std::uint32_t partition;
  std::string key;
  std::string value;
};

/// Records each flushed record and counts the flushes (the spill ring, in
/// a map task).
class RecordingTarget final : public HashCombineShards::FlushTarget {
 public:
  void put(std::uint32_t partition, std::string_view key,
           std::string_view value) override {
    records.push_back(
        FlatRecord{partition, std::string(key), std::string(value)});
  }
  void seal() override { ++seals; }

  std::vector<FlatRecord> records;
  std::size_t seals = 0;
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

/// A 12-digit decimal count: too wide for the 8 bytes an entry holds, so
/// every pinned key with a value takes a value block.
std::string wide_value(std::uint64_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t wide_of(const std::string& bytes) {
  return std::strtoull(bytes.c_str(), nullptr, 10);
}

/// Sums wide_value counts into one wide_value.
class WideCountCombiner final : public Reducer {
 public:
  void reduce(std::string_view key, ValueStream& values,
              EmitSink& out) override {
    std::uint64_t total = 0;
    while (auto value = values.next()) total += wide_of(std::string(*value));
    out.emit(key, wide_value(total));
  }
};

using Pins = std::vector<std::pair<std::uint32_t, std::string>>;

/// A table that flushes into a RecordingTarget, as FreqOpt's does.
struct AdmissionHarness {
  explicit AdmissionHarness(Reducer* combiner,
                            HashCombineConfig config = HashCombineConfig{})
      : table(config, combiner, target, metrics, nullptr) {}

  RecordingTarget target;
  TaskMetrics metrics;
  HashCombineShards table;
};

TEST(HashCombineAdmission, AbsorbsAdmittedRejectsOthers) {
  apps::WordCountCombiner combiner;
  AdmissionHarness h(&combiner);
  // The table has one partition, so "warm" on partition 1 is pinned by
  // hand; a pin names its partition, and "warm" on 0 is not pinned.
  h.table.pin({{0, "hot"}, {1, "warm"}});
  EXPECT_TRUE(h.table.insert(0, "hot", varint_value(1)));
  EXPECT_TRUE(h.table.insert(1, "warm", varint_value(1)));
  EXPECT_FALSE(h.table.insert(0, "cold", varint_value(1)));
  EXPECT_FALSE(h.table.insert(0, "warm", varint_value(1)));
  EXPECT_EQ(h.table.stats().records, 2u);
  EXPECT_TRUE(h.target.records.empty());
}

TEST(HashCombineAdmission, FinalFlushCombinesAndDeliversOnce) {
  apps::WordCountCombiner combiner;
  AdmissionHarness h(&combiner);
  h.table.pin({{0, "hot"}});
  for (int i = 0; i < 100; ++i) h.table.insert(0, "hot", varint_value(1));
  EXPECT_TRUE(h.table.finish().empty()) << "an injected target writes no run";
  ASSERT_EQ(h.target.records.size(), 1u);
  EXPECT_EQ(h.target.records[0].key, "hot");
  EXPECT_EQ(varint_of(h.target.records[0].value), 100u);
  EXPECT_EQ(h.target.seals, 1u);
  // A second finish is refused and delivers nothing more.
  EXPECT_THROW((void)h.table.finish(), InternalError);
  EXPECT_EQ(h.target.records.size(), 1u);
}

TEST(HashCombineAdmission, BudgetPressureFlushesIntoTheTarget) {
  // No combiner: values cannot shrink, so the watermark forces flushes
  // mid-stream; each value still reaches the target exactly once, and
  // the table stays within its watermark after every insert.
  HashCombineConfig config;
  config.num_shards = 1;
  config.watermark_bytes = 256;
  AdmissionHarness h(nullptr, config);
  h.table.pin({{0, "a"}, {0, "b"}});
  for (int i = 0; i < 10; ++i) {
    h.table.insert(0, "a", std::string(10, 'x'));
    EXPECT_LE(h.table.resident_bytes(), config.watermark_bytes);
    h.table.insert(0, "b", std::string(10, 'y'));
    EXPECT_LE(h.table.resident_bytes(), config.watermark_bytes);
  }
  EXPECT_FALSE(h.target.records.empty());
  EXPECT_GT(h.table.stats().flushes, 0u);
  const std::size_t mid_stream_seals = h.target.seals;
  EXPECT_EQ(mid_stream_seals, h.table.stats().flushes);
  (void)h.table.finish();
  EXPECT_EQ(h.target.seals, mid_stream_seals + 1);
  std::size_t a_bytes = 0, b_bytes = 0;
  for (const auto& r : h.target.records) {
    if (r.key == "a") a_bytes += r.value.size();
    if (r.key == "b") b_bytes += r.value.size();
  }
  EXPECT_EQ(a_bytes, 100u);
  EXPECT_EQ(b_bytes, 100u);
}

TEST(HashCombineAdmission, WithoutCombinerEveryValueSurvives) {
  AdmissionHarness h(nullptr);
  h.table.pin({{0, "k"}});
  for (int i = 0; i < 10; ++i) h.table.insert(0, "k", std::string(8, 'v'));
  (void)h.table.finish();
  ASSERT_EQ(h.target.records.size(), 10u);
  for (const auto& r : h.target.records) EXPECT_EQ(r.value, "vvvvvvvv");
}

TEST(HashCombineAdmission, NoDataLossUnderRandomizedLoad) {
  // Conservation against a std::map oracle: counts the table absorbed
  // plus counts it rejected equal the counts offered, under a watermark
  // tight enough to flush over and over. The counts are wide, so every
  // pinned key that holds one takes a value block and the blocks fill the
  // shards.
  WideCountCombiner combiner;
  HashCombineConfig config;
  config.num_shards = 2;
  config.num_partitions = 2;
  config.watermark_bytes = 512;
  AdmissionHarness h(&combiner, config);
  Pins pins;
  for (int i = 0; i < 8; ++i) {
    for (std::uint32_t partition = 0; partition < 2; ++partition) {
      pins.emplace_back(partition, "k" + std::to_string(i));
    }
  }
  h.table.pin(pins);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> expected;
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> actual;
  std::uint64_t state = 1;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::string key = "k" + std::to_string(state % 12);
    const auto partition = static_cast<std::uint32_t>((state >> 20) % 2);
    const std::uint64_t count = 1 + (state >> 32) % 7;
    expected[{partition, key}] += count;
    if (!h.table.insert(partition, key, wide_value(count))) {
      actual[{partition, key}] += count;
    }
  }
  (void)h.table.finish();
  EXPECT_GT(h.table.stats().flushes, 0u);
  EXPECT_GT(h.table.stats().records, 0u);
  for (const auto& r : h.target.records) {
    actual[{r.partition, r.key}] += wide_of(r.value);
  }
  EXPECT_EQ(actual, expected);
}

TEST(HashCombineAdmission, ResidentBytesStayWithinTheBudget) {
  // FreqOpt's table splits its budget across its shards with no floor, so
  // small budgets are real. Between inserts a shard holds at most its
  // watermark, and a flush leaves it exactly at its pinned floor: the
  // entries, long keys and slots that pin() left, with no values.
  WideCountCombiner combiner;
  Pins pins;
  for (int i = 0; i < 300; ++i) {
    // Every third key is too long for an entry and lives in the key store.
    pins.emplace_back(0, (i % 3 == 0 ? "long-key-" : "key") +
                             std::to_string(i));
  }
  for (std::size_t watermark = 1000; watermark <= 8000; watermark += 250) {
    SCOPED_TRACE(watermark);
    HashCombineConfig config;
    config.num_shards = 1;
    config.watermark_bytes = watermark;
    AdmissionHarness h(&combiner, config);
    h.table.pin(pins);
    const std::size_t floor = h.table.resident_bytes();
    ASSERT_LE(floor, watermark);
    std::uint64_t state = watermark;
    for (int i = 0; i < 5000; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint64_t flushes = h.table.stats().flushes;
      h.table.insert(0, pins[(state >> 33) % pins.size()].second,
                     wide_value(1));
      const std::size_t resident = h.table.resident_bytes();
      ASSERT_LE(resident, watermark) << "insert " << i;
      if (h.table.stats().flushes != flushes) {
        ASSERT_EQ(resident, floor) << "insert " << i;
      }
    }
    EXPECT_GT(h.table.stats().flushes, 0u);
    (void)h.table.finish();
    EXPECT_EQ(h.table.resident_bytes(), floor);
  }
}

TEST(HashCombineAdmission, CountersAtATightWatermarkNeverFlush) {
  // A pinned table never grows, and a counter combines in place inside
  // its entry: once the pins fit, the stream never flushes before the end.
  apps::WordCountCombiner combiner;
  HashCombineConfig config;
  config.num_shards = 1;
  // 8 entries (256 B) and 16 slots (128 B): the floor is the watermark.
  config.watermark_bytes = 384;
  AdmissionHarness h(&combiner, config);
  Pins pins;
  for (int i = 0; i < 8; ++i) pins.emplace_back(0, "k" + std::to_string(i));
  h.table.pin(pins);
  ASSERT_EQ(h.table.resident_bytes(), config.watermark_bytes);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(h.table.insert(0, pins[i % 8].second, varint_value(1)));
  }
  EXPECT_EQ(h.table.stats().flushes, 0u);
  EXPECT_TRUE(h.target.records.empty());
  (void)h.table.finish();
  ASSERT_EQ(h.target.records.size(), 8u);
  for (const auto& r : h.target.records) {
    EXPECT_EQ(varint_of(r.value), 2500u) << r.key;
  }
}

TEST(HashCombineAdmission, PinsThatOutgrowTheWatermarkAreLeftOut) {
  // One short-key entry and the first 8 slots take 96 bytes of the
  // 100-byte watermark. A long key's bytes count too, so the first pin is
  // dropped; a second entry would pass the watermark, so the third is.
  // Dropped pins' records are refused.
  apps::WordCountCombiner combiner;
  HashCombineConfig config;
  config.num_shards = 1;
  config.watermark_bytes = 100;
  AdmissionHarness h(&combiner, config);
  h.table.pin({{0, "a-key-of-many-bytes"}, {0, "first"}, {0, "second"}});
  EXPECT_EQ(h.table.resident_bytes(), 96u);
  EXPECT_FALSE(h.table.insert(0, "a-key-of-many-bytes", varint_value(1)));
  EXPECT_TRUE(h.table.insert(0, "first", varint_value(1)));
  EXPECT_FALSE(h.table.insert(0, "second", varint_value(1)));
}

TEST(HashCombineAdmission, EmptySetAdmitsNothing) {
  AdmissionHarness h(nullptr);
  h.table.pin({});
  EXPECT_FALSE(h.table.insert(0, "anything", "v"));
  (void)h.table.finish();
  EXPECT_TRUE(h.target.records.empty());
}

}  // namespace
}  // namespace textmr::mr
