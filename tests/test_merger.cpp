#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "apps/wordcount.hpp"
#include "mr/merger.hpp"
#include "run_helpers.hpp"

namespace textmr::mr {
namespace {

std::string varint_value(std::uint64_t v) {
  std::string out;
  put_varint(out, v);
  return out;
}

std::uint64_t varint_of(std::string_view bytes) {
  std::size_t pos = 0;
  return get_varint(bytes, pos);
}

io::SpillRunInfo write_run(const std::filesystem::path& path,
                           std::uint32_t partitions,
                           const std::vector<std::tuple<std::uint32_t,
                                                        std::string,
                                                        std::string>>& recs) {
  io::SpillRunWriter writer(path.string(), partitions);
  for (const auto& [p, k, v] : recs) writer.append(p, k, v);
  return writer.finish();
}

TEST(MergeStream, MergesSortedVectorsGlobally) {
  const std::vector<FetchedRun> runs = {
      test::framed_run({{"apple", "1"}, {"mango", "2"}}),
      test::framed_run({{"banana", "3"}, {"zebra", "4"}}),
      test::framed_run({{"apple", "5"}}),
  };
  MergeStream stream(runs);

  std::vector<std::pair<std::string, std::string>> out;
  while (auto record = stream.next()) {
    out.emplace_back(std::string(record->key), std::string(record->value));
  }
  // Equal keys ordered by run index (stable across runs).
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"apple", "1"}, {"apple", "5"}, {"banana", "3"},
      {"mango", "2"}, {"zebra", "4"},
  };
  EXPECT_EQ(out, expected);
}

TEST(MergeStream, EmptyCursorsAreFine) {
  const std::vector<FetchedRun> runs = {test::framed_run({})};
  MergeStream stream(runs);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(MergeStream, NoCursorsAtAll) {
  MergeStream stream({});
  EXPECT_FALSE(stream.next().has_value());
}

TEST(KeyGroups, GroupsConsecutiveEqualKeys) {
  const std::vector<FetchedRun> runs = {
      test::framed_run({{"a", "1"}, {"a", "2"}, {"b", "3"}}),
      test::framed_run({{"a", "4"}, {"c", "5"}}),
  };
  MergeStream stream(runs);
  KeyGroups groups(stream);

  std::map<std::string, std::vector<std::string>> seen;
  while (auto key = groups.next_group()) {
    auto& list = seen[std::string(*key)];
    while (auto value = groups.values().next()) {
      list.emplace_back(*value);
    }
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["a"], (std::vector<std::string>{"1", "2", "4"}));
  EXPECT_EQ(seen["b"], (std::vector<std::string>{"3"}));
  EXPECT_EQ(seen["c"], (std::vector<std::string>{"5"}));
}

TEST(KeyGroups, UnconsumedValuesAreDrained) {
  const std::vector<FetchedRun> runs = {
      test::framed_run({{"a", "1"}, {"a", "2"}, {"b", "3"}})};
  MergeStream stream(runs);
  KeyGroups groups(stream);

  auto first = groups.next_group();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "a");
  // Skip the values entirely; next_group must still land on "b".
  auto second = groups.next_group();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "b");
  EXPECT_EQ(*groups.values().next(), "3");
  EXPECT_FALSE(groups.next_group().has_value());
}

TEST(MergeRuns, CombinesAcrossRuns) {
  TempDir dir;
  std::vector<io::SpillRunInfo> runs;
  runs.push_back(write_run(dir.file("r0"), 2,
                           {{0, "apple", varint_value(2)},
                            {1, "pear", varint_value(1)}}));
  runs.push_back(write_run(dir.file("r1"), 2,
                           {{0, "apple", varint_value(3)},
                            {0, "cherry", varint_value(4)}}));
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto merged = merge_runs(runs, &combiner, dir.file("out").string(), 2,
                                 io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(merged.records, 3u);

  const auto p0 = test::read_run(merged.path, 0);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_EQ(p0[0].key, "apple");
  EXPECT_EQ(varint_of(p0[0].value), 5u);
  EXPECT_EQ(p0[1].key, "cherry");
  EXPECT_EQ(varint_of(p0[1].value), 4u);
  const auto p1 = test::read_run(merged.path, 1);
  ASSERT_EQ(p1.size(), 1u);
  EXPECT_EQ(p1[0].key, "pear");
  EXPECT_GT(metrics.op_ns(Op::kMerge), 0u);
  EXPECT_EQ(metrics.merged_records, 3u);
}

TEST(MergeRuns, WithoutCombinerKeepsAllRecords) {
  TempDir dir;
  std::vector<io::SpillRunInfo> runs;
  runs.push_back(write_run(dir.file("r0"), 1, {{0, "k", "a"}, {0, "k", "b"}}));
  runs.push_back(write_run(dir.file("r1"), 1, {{0, "k", "c"}}));
  TaskMetrics metrics;
  const auto merged = merge_runs(runs, nullptr, dir.file("out").string(), 1,
                                 io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(merged.records, 3u);
  std::vector<std::string> values;
  for (const auto& record : test::read_run(merged.path, 0)) {
    values.push_back(record.value);
  }
  EXPECT_EQ(values, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MergeRuns, RandomizedManyRunsMatchReference) {
  TempDir dir;
  Xoshiro256 rng(17);
  constexpr std::uint32_t kPartitions = 3;
  std::vector<io::SpillRunInfo> runs;
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> expected;
  for (int run = 0; run < 6; ++run) {
    // Each run: per-partition sorted unique keys (post-combine shape).
    std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> local;
    const int keys = 1 + static_cast<int>(rng.next_below(60));
    for (int i = 0; i < keys; ++i) {
      const std::uint32_t p = static_cast<std::uint32_t>(rng.next_below(kPartitions));
      const std::string key = "w" + std::to_string(rng.next_below(40));
      const std::uint64_t count = 1 + rng.next_below(9);
      local[{p, key}] += count;
      expected[{p, key}] += count;
    }
    io::SpillRunWriter writer(dir.file("run" + std::to_string(run)).string(),
                              kPartitions);
    for (const auto& [pk, count] : local) {
      writer.append(pk.first, pk.second, varint_value(count));
    }
    runs.push_back(writer.finish());
  }
  TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  const auto merged =
      merge_runs(runs, &combiner, dir.file("out").string(), kPartitions,
                 io::SpillFormat::kCompactVarint, metrics);
  EXPECT_EQ(merged.records, expected.size());

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> actual;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    std::string previous;
    bool first = true;
    for (const auto& record : test::read_run(merged.path, p)) {
      actual[{p, record.key}] = varint_of(record.value);
      if (!first) { EXPECT_LT(previous, record.key); }  // unique + sorted
      previous = record.key;
      first = false;
    }
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace textmr::mr
