#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>

#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "apps/wordcount.hpp"
#include "mr/reduce_task.hpp"

namespace textmr::mr {
namespace {

std::string varint_value(std::uint64_t v) {
  std::string out;
  put_varint(out, v);
  return out;
}

io::SpillRunInfo write_map_output(
    const std::filesystem::path& path, std::uint32_t partitions,
    const std::vector<std::tuple<std::uint32_t, std::string, std::uint64_t>>&
        records) {
  io::SpillRunWriter writer(path.string(), partitions);
  for (const auto& [p, key, count] : records) {
    writer.append(p, key, varint_value(count));
  }
  return writer.finish();
}

std::map<std::string, std::string> read_part(
    const std::filesystem::path& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    out.emplace(line.substr(0, tab), line.substr(tab + 1));
  }
  return out;
}

ReduceTaskConfig base_config(const TempDir& dir,
                             std::vector<io::SpillRunInfo> map_outputs,
                             std::uint32_t partition = 0) {
  ReduceTaskConfig config;
  config.partition = partition;
  config.map_outputs = std::move(map_outputs);
  config.reducer = [] { return std::make_unique<apps::WordCountReducer>(); };
  config.output_path = dir.file("part-r-00000");
  return config;
}

TEST(ReduceTask, MergesAcrossMapOutputsAndSums) {
  TempDir dir;
  std::vector<io::SpillRunInfo> outputs;
  outputs.push_back(write_map_output(dir.file("m0"), 2,
                                     {{0, "apple", 2}, {0, "cherry", 1}}));
  outputs.push_back(write_map_output(dir.file("m1"), 2,
                                     {{0, "apple", 3}, {0, "banana", 7}}));
  const auto result = run_reduce_task(base_config(dir, outputs));
  const auto part = read_part(result.output_path);
  EXPECT_EQ(part.size(), 3u);
  EXPECT_EQ(part.at("apple"), "5");
  EXPECT_EQ(part.at("banana"), "7");
  EXPECT_EQ(part.at("cherry"), "1");
}

TEST(ReduceTask, OnlyRequestedPartitionIsRead) {
  TempDir dir;
  std::vector<io::SpillRunInfo> outputs;
  outputs.push_back(write_map_output(dir.file("m0"), 2,
                                     {{0, "p0key", 1}, {1, "p1key", 2}}));
  const auto result = run_reduce_task(base_config(dir, outputs, 1));
  const auto part = read_part(result.output_path);
  EXPECT_EQ(part.size(), 1u);
  EXPECT_EQ(part.at("p1key"), "2");
}

TEST(ReduceTask, OutputIsKeySorted) {
  TempDir dir;
  std::vector<io::SpillRunInfo> outputs;
  outputs.push_back(write_map_output(
      dir.file("m0"), 1, {{0, "a", 1}, {0, "m", 1}, {0, "z", 1}}));
  outputs.push_back(write_map_output(dir.file("m1"), 1,
                                     {{0, "b", 1}, {0, "n", 1}}));
  const auto result = run_reduce_task(base_config(dir, outputs));
  std::ifstream in(result.output_path);
  std::string line;
  std::string previous;
  while (std::getline(in, line)) {
    const std::string key = line.substr(0, line.find('\t'));
    EXPECT_LT(previous, key);
    previous = key;
  }
}

TEST(ReduceTask, EmptyPartitionYieldsEmptyFile) {
  TempDir dir;
  std::vector<io::SpillRunInfo> outputs;
  outputs.push_back(write_map_output(dir.file("m0"), 2, {{1, "k", 1}}));
  const auto result = run_reduce_task(base_config(dir, outputs, 0));
  EXPECT_TRUE(read_part(result.output_path).empty());
  EXPECT_TRUE(std::filesystem::exists(result.output_path));
}

TEST(ReduceTask, MetricsCountShuffleAndGroups) {
  TempDir dir;
  std::vector<io::SpillRunInfo> outputs;
  outputs.push_back(write_map_output(
      dir.file("m0"), 1, {{0, "a", 1}, {0, "b", 1}, {0, "c", 1}}));
  outputs.push_back(write_map_output(dir.file("m1"), 1, {{0, "a", 1}}));
  const auto result = run_reduce_task(base_config(dir, outputs));
  EXPECT_EQ(result.metrics.reduce_input_records, 4u);
  EXPECT_EQ(result.metrics.reduce_groups, 3u);
  EXPECT_EQ(result.metrics.output_records, 3u);
  EXPECT_GT(result.metrics.shuffled_bytes, 0u);
  EXPECT_GT(result.metrics.op_ns(Op::kShuffle), 0u);
}

TEST(ReduceTask, SampledGroupTimingKeepsOpsWithinWall) {
  // One key group in kTimingSamplePeriod is timed; reduce() and sink time
  // are scaled by the exact record counts, the rest of the loop is merge.
  // Skewed group sizes, so scaling by group count would be visibly off.
  TempDir dir;
  std::vector<std::tuple<std::uint32_t, std::string, std::uint64_t>> records;
  std::uint64_t input_records = 0;
  for (int k = 0; k < 2000; ++k) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", k);
    for (int v = 0; v < 1 + 200 / (k + 1); ++v, ++input_records) {
      records.emplace_back(0, key, 1);
    }
  }
  std::vector<io::SpillRunInfo> outputs;
  outputs.push_back(write_map_output(dir.file("m0"), 1, records));
  const auto result = run_reduce_task(base_config(dir, outputs));
  EXPECT_EQ(result.metrics.reduce_input_records, input_records);
  EXPECT_EQ(result.metrics.reduce_groups, 2000u);
  EXPECT_EQ(result.metrics.output_records, 2000u);
  EXPECT_EQ(read_part(result.output_path).at("k00000"), "201");
  EXPECT_GT(result.metrics.op_ns(Op::kReduceUser), 0u);
  EXPECT_GT(result.metrics.op_ns(Op::kOutputWrite), 0u);
  EXPECT_GT(result.metrics.op_ns(Op::kReduceMerge), 0u);
  EXPECT_LE(result.metrics.total_ns(), result.wall_ns);
}

TEST(ReduceTask, ReducerSeesValuesFromAllMapOutputs) {
  TempDir dir;
  std::vector<io::SpillRunInfo> outputs;
  for (int m = 0; m < 5; ++m) {
    outputs.push_back(write_map_output(
        dir.file("m" + std::to_string(m)), 1,
        {{0, "key", static_cast<std::uint64_t>(m + 1)}}));
  }
  ReduceTaskConfig config = base_config(dir, outputs);
  config.reducer = [] {
    return std::make_unique<LambdaReducer>(
        [](std::string_view key, ValueStream& values, EmitSink& out) {
          int n = 0;
          while (values.next()) ++n;
          out.emit(key, std::to_string(n));
        });
  };
  const auto result = run_reduce_task(config);
  EXPECT_EQ(read_part(result.output_path).at("key"), "5");
}

TEST(ReduceTask, ReducerErrorPropagates) {
  TempDir dir;
  std::vector<io::SpillRunInfo> outputs;
  outputs.push_back(write_map_output(dir.file("m0"), 1, {{0, "k", 1}}));
  ReduceTaskConfig config = base_config(dir, outputs);
  config.reducer = [] {
    return std::make_unique<LambdaReducer>(
        [](std::string_view, ValueStream&, EmitSink&) {
          throw std::runtime_error("user reduce bug");
        });
  };
  EXPECT_THROW(run_reduce_task(config), std::runtime_error);
}

}  // namespace
}  // namespace textmr::mr
