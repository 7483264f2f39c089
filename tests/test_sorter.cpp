#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "apps/wordcount.hpp"
#include "run_helpers.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {
namespace {

/// Builds a Spill whose RecordRefs point into an arena the builder owns —
/// the same framed representation the ring produces. Keep the builder
/// alive while the Spill is in use.
class SpillBuilder {
 public:
  void add(std::uint32_t partition, std::string_view key,
           std::string_view value) {
    spill_.records.push_back(arena_.append(partition, key, value));
    spill_.data_bytes += key.size() + value.size();
  }

  Spill& spill() {
    spill_.frames = arena_.frames();  // appends may have moved the bytes
    return spill_;
  }

 private:
  RecordArena arena_;
  Spill spill_;
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

TEST(SpillSorter, SortsByPartitionThenKey) {
  TempDir dir;
  SpillBuilder builder;
  builder.add(1, "zebra", "1");
  builder.add(0, "banana", "2");
  builder.add(1, "apple", "3");
  builder.add(0, "apple", "4");
  TaskMetrics metrics;
  const auto info =
      sort_and_spill(builder.spill(), nullptr, dir.file("run").string(), 2,
                     io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(info.records, 4u);

  const auto p0 = test::read_run(info.path, 0);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_EQ(p0[0].key, "apple");
  EXPECT_EQ(p0[1].key, "banana");
  const auto p1 = test::read_run(info.path, 1);
  ASSERT_EQ(p1.size(), 2u);
  EXPECT_EQ(p1[0].key, "apple");
  EXPECT_EQ(p1[1].key, "zebra");
}

TEST(SpillSorter, CombinerCollapsesDuplicates) {
  TempDir dir;
  SpillBuilder builder;
  for (int i = 0; i < 10; ++i) builder.add(0, "dup", varint_value(1));
  builder.add(0, "single", varint_value(7));
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto info =
      sort_and_spill(builder.spill(), &combiner, dir.file("run").string(), 1,
                     io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(info.records, 2u);

  const auto records = test::read_run(info.path, 0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "dup");
  EXPECT_EQ(varint_of(records[0].value), 10u);
  EXPECT_EQ(records[1].key, "single");
  EXPECT_EQ(varint_of(records[1].value), 7u);
}

TEST(SpillSorter, SingleValueGroupsSkipCombiner) {
  // A combiner that would fail on single-value groups never runs on them
  // (the framework short-circuits; Hadoop behaves the same way).
  class ThrowingCombiner final : public Reducer {
   public:
    void reduce(std::string_view key, ValueStream& values,
                EmitSink& out) override {
      int n = 0;
      std::string last;
      while (auto v = values.next()) {
        ++n;
        last.assign(*v);
      }
      ASSERT_GE(n, 2) << "combiner invoked on single-value group";
      out.emit(key, last);
    }
  };
  TempDir dir;
  SpillBuilder builder;
  builder.add(0, "solo", "x");
  builder.add(0, "pair", "y");
  builder.add(0, "pair", "z");
  TaskMetrics metrics;
  ThrowingCombiner combiner;
  const auto info =
      sort_and_spill(builder.spill(), &combiner, dir.file("run").string(), 1,
                     io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(info.records, 2u);
}

TEST(SpillSorter, EqualKeysInDifferentPartitionsStayApart) {
  TempDir dir;
  SpillBuilder builder;
  builder.add(0, "same", varint_value(1));
  builder.add(1, "same", varint_value(2));
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto info =
      sort_and_spill(builder.spill(), &combiner, dir.file("run").string(), 2,
                     io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(info.records, 2u);  // not combined across partitions
  EXPECT_EQ(varint_of(test::read_run(info.path, 0).at(0).value), 1u);
  EXPECT_EQ(varint_of(test::read_run(info.path, 1).at(0).value), 2u);
}

TEST(SpillSorter, MetricsAreAccumulated) {
  TempDir dir;
  SpillBuilder builder;
  for (int i = 0; i < 1000; ++i) {
    builder.add(0, "k" + std::to_string(i % 37), varint_value(1));
  }
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto info =
      sort_and_spill(builder.spill(), &combiner, dir.file("run").string(), 1,
                     io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(metrics.spilled_records, info.records);
  EXPECT_EQ(metrics.spilled_bytes, info.bytes);
  EXPECT_EQ(metrics.spill_count, 1u);
  EXPECT_GT(metrics.op_ns(Op::kSort), 0u);
  EXPECT_GT(metrics.op_ns(Op::kCombine), 0u);
  EXPECT_GT(metrics.op_ns(Op::kSpillWrite), 0u);
}

TEST(SpillSorter, RandomizedAgainstReferenceGroupBy) {
  TempDir dir;
  Xoshiro256 rng(7);
  SpillBuilder builder;
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t p = static_cast<std::uint32_t>(rng.next_below(3));
    const std::string key = "w" + std::to_string(rng.next_below(100));
    const std::uint64_t count = 1 + rng.next_below(5);
    expected[{p, key}] += count;
    builder.add(p, key, varint_value(count));
  }
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto info =
      sort_and_spill(builder.spill(), &combiner, dir.file("run").string(), 3,
                     io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(info.records, expected.size());

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> actual;
  for (std::uint32_t p = 0; p < 3; ++p) {
    std::string previous;
    bool first = true;
    for (const auto& record : test::read_run(info.path, p)) {
      actual[{p, record.key}] += varint_of(record.value);
      if (!first) { EXPECT_LE(previous, record.key); }
      previous = record.key;
      first = false;
    }
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace textmr::mr
