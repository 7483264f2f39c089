#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "apps/wordcount.hpp"
#include "common/error.hpp"
#include "run_helpers.hpp"
#include "mr/map_task.hpp"
#include "mr/partitioner.hpp"
#include "mr/task_runner.hpp"

namespace textmr::mr {
namespace {

std::uint64_t varint_of(std::string_view bytes) {
  std::size_t pos = 0;
  return get_varint(bytes, pos);
}

io::InputSplit write_corpus(const TempDir& dir, const std::string& name,
                            int lines) {
  const auto path = dir.file(name);
  std::ofstream out(path);
  std::uint64_t size = 0;
  for (int i = 0; i < lines; ++i) {
    const std::string line =
        "alpha beta gamma alpha delta alpha beta line" + std::to_string(i);
    out << line << "\n";
    size += line.size() + 1;
  }
  out.close();
  return io::InputSplit{path.string(), 0, size};
}

MapTaskConfig base_config(const TempDir& dir, io::InputSplit split) {
  MapTaskConfig config;
  config.task_id = 0;
  config.split = std::move(split);
  config.num_partitions = 2;
  config.mapper = [] { return std::make_unique<apps::WordCountMapper>(); };
  config.combiner = [] { return std::make_unique<apps::WordCountCombiner>(); };
  config.spill_buffer_bytes = 64 * 1024;  // small: forces several spills
  config.scratch_dir = dir.file("scratch");
  return config;
}

std::map<std::string, std::uint64_t> read_output_counts(
    const io::SpillRunInfo& output, std::uint32_t partitions) {
  std::map<std::string, std::uint64_t> counts;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    for (const auto& record : test::read_run(output.path, p)) {
      counts[record.key] += varint_of(record.value);
    }
  }
  return counts;
}

TEST(MapTask, ProducesCombinedSortedOutput) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 3000));
  const auto result = run_map_task(config);

  const auto counts = read_output_counts(result.output, 2);
  EXPECT_EQ(counts.at("alpha"), 9000u);
  EXPECT_EQ(counts.at("beta"), 6000u);
  EXPECT_EQ(counts.at("gamma"), 3000u);
  EXPECT_EQ(counts.at("delta"), 3000u);
  EXPECT_EQ(counts.at("line42"), 1u);

  EXPECT_GT(result.spills, 1u);
  EXPECT_EQ(result.map_thread.input_records, 3000u);
  EXPECT_EQ(result.map_thread.map_output_records, 8u * 3000u);
  EXPECT_GT(result.map_thread.op_ns(Op::kMapUser), 0u);
  EXPECT_GT(result.support_thread.op_ns(Op::kSort), 0u);
}

TEST(MapTask, OutputKeysAreSortedWithinPartitions) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 2000));
  const auto result = run_map_task(config);
  for (std::uint32_t p = 0; p < 2; ++p) {
    std::string previous;
    bool first = true;
    for (const auto& record : test::read_run(result.output.path, p)) {
      if (!first) { EXPECT_LT(previous, record.key); }  // sorted and combined
      previous = record.key;
      first = false;
    }
  }
}

TEST(MapTask, PartitionAssignmentMatchesPartitioner) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 200));
  const auto result = run_map_task(config);
  HashPartitioner partitioner(2);
  for (std::uint32_t p = 0; p < 2; ++p) {
    for (const auto& record : test::read_run(result.output.path, p)) {
      EXPECT_EQ(partitioner(record.key), p) << record.key;
    }
  }
}

TEST(MapTask, SingleSpillIsAdoptedWithoutMerge) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 50));
  config.spill_buffer_bytes = 4 << 20;  // everything fits in one spill
  const auto result = run_map_task(config);
  EXPECT_EQ(result.spills, 1u);
  EXPECT_EQ(result.map_thread.op_ns(Op::kMerge), 0u);
  const auto counts = read_output_counts(result.output, 2);
  EXPECT_EQ(counts.at("alpha"), 150u);
}

TEST(MapTask, WithoutCombinerEveryRecordSurvives) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 500));
  config.combiner = nullptr;
  const auto result = run_map_task(config);
  EXPECT_EQ(result.output.records, 8u * 500u);
}

TEST(MapTask, FreqBufferingReducesSpilledRecords) {
  TempDir dir;
  const auto split = write_corpus(dir, "in.txt", 4000);

  auto baseline_config = base_config(dir, split);
  const auto baseline = run_map_task(baseline_config);

  auto freq_config = base_config(dir, split);
  freq_config.scratch_dir = dir.file("scratch2");
  freq_config.freqbuf.enabled = true;
  freq_config.freqbuf.top_k = 8;
  freq_config.freqbuf.sampling_fraction = 0.05;
  freq_config.freq_table_budget_bytes = 16 * 1024;
  const auto freq = run_map_task(freq_config);

  // Same final answer...
  EXPECT_EQ(read_output_counts(baseline.output, 2),
            read_output_counts(freq.output, 2));
  // ...but far fewer records entered the sort-spill machinery.
  EXPECT_LT(freq.map_thread.spill_input_records,
            baseline.map_thread.spill_input_records / 2);
  EXPECT_GT(freq.map_thread.freq_hits, 0u);
}

TEST(MapTask, SpillMatcherKeepsAnswerIdentical) {
  TempDir dir;
  const auto split = write_corpus(dir, "in.txt", 3000);
  auto fixed_config = base_config(dir, split);
  const auto fixed = run_map_task(fixed_config);

  auto adaptive_config = base_config(dir, split);
  adaptive_config.scratch_dir = dir.file("scratch3");
  adaptive_config.spill_policy = [] {
    return std::make_unique<spillmatch::SpillMatcher>();
  };
  const auto adaptive = run_map_task(adaptive_config);
  EXPECT_EQ(read_output_counts(fixed.output, 2),
            read_output_counts(adaptive.output, 2));
  // The matcher must actually have moved the threshold off the default.
  EXPECT_NE(adaptive.final_spill_threshold, 0.8);
}

TEST(MapTask, EmptyInputYieldsEmptyOutputRun) {
  TempDir dir;
  const auto path = dir.file("empty.txt");
  std::ofstream(path).close();
  auto config = base_config(dir, io::InputSplit{path.string(), 0, 0});
  const auto result = run_map_task(config);
  EXPECT_EQ(result.output.records, 0u);
  EXPECT_TRUE(test::read_run(result.output.path, 0).empty());
}

TEST(MapTask, MapperErrorPropagates) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 10));
  config.mapper = [] {
    return std::make_unique<LambdaMapper>(
        [](std::uint64_t, std::string_view, EmitSink&) {
          throw std::runtime_error("user map bug");
        });
  };
  EXPECT_THROW(run_map_task(config), std::runtime_error);
}

TEST(MapTask, CombinerErrorInSupportThreadPropagates) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 2000));
  config.combiner = [] {
    return std::make_unique<LambdaReducer>(
        [](std::string_view, ValueStream&, EmitSink&) {
          throw std::runtime_error("user combine bug");
        });
  };
  EXPECT_THROW(run_map_task(config), std::runtime_error);
}

TEST(MapTask, CombinerErrorUnblocksProducerAndPropagates) {
  // A 16 KiB ring under 4000 lines keeps the map thread parked on a full
  // ring; the support thread's combine failure must abort the buffer,
  // wake the producer and surface as the task's error (not a hang and not
  // the producer's secondary "aborted" error).
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 4000));
  config.spill_buffer_bytes = 16 * 1024;
  config.combiner = [] {
    return std::make_unique<LambdaReducer>(
        [](std::string_view, ValueStream&, EmitSink&) {
          throw std::runtime_error("boom");
        });
  };
  EXPECT_THROW(run_map_task(config), std::runtime_error);
}

TEST(MapTask, IdleTimeIsMeasured) {
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 3000));
  const auto result = run_map_task(config);
  // At least one of the two threads must have waited at some point (the
  // pipeline cannot be perfectly matched), and wall clock covers both.
  EXPECT_GT(result.map_thread.op_ns(Op::kMapIdle) +
                result.support_thread.op_ns(Op::kSupportIdle),
            0u);
  EXPECT_GT(result.wall_ns, 0u);
  EXPECT_GE(result.wall_ns, result.pipeline_wall_ns);
}

/// Every volume counter of `metrics` against `expected` (absent = 0).
void expect_volumes(const TaskMetrics& metrics,
                    const std::map<std::string, std::uint64_t>& expected) {
  for (const VolumeCounter& counter : kVolumeCounters) {
    const auto it = expected.find(counter.name);
    EXPECT_EQ(metrics.*counter.member, it == expected.end() ? 0u : it->second)
        << counter.name;
  }
}

TEST(MapTask, SampledTimingKeepsCountsExactAndOpsWithinWall) {
  // The map thread reads the clock on one line in kTimingSamplePeriod and
  // splits the loop's wall by the sampled shares. The counters must not
  // notice: the expected values are those of per-record timing. One 4 MiB
  // spill keeps every counter independent of thread scheduling.
  struct Case {
    CombineMode mode;
    bool freq;
    std::map<std::string, std::uint64_t> map_thread;
    std::map<std::string, std::uint64_t> support_thread;
  };
  const std::map<std::string, std::uint64_t> sort_map_thread = {
      {"input_records", 3000},       {"input_bytes", 145890},
      {"map_output_records", 24000}, {"map_output_bytes", 145890},
      {"freq_hits", 19922},          {"freq_flushes", 4},
      {"spill_input_records", 4082}, {"spill_input_bytes", 32077},
      {"merged_records", 3004},      {"merged_bytes", 31925},
  };
  const std::map<std::string, std::uint64_t> sort_support_thread = {
      {"spilled_records", 3004}, {"spilled_bytes", 31925}, {"spill_count", 1}};
  const std::map<std::string, std::uint64_t> hash_map_thread = {
      {"input_records", 3000},        {"input_bytes", 145890},
      {"map_output_records", 24000},  {"map_output_bytes", 145890},
      {"spill_input_records", 24000}, {"spill_input_bytes", 145890},
      {"merged_records", 3004},       {"merged_bytes", 31925},
      {"spilled_records", 3004},      {"spilled_bytes", 31925},
      {"spill_count", 1},             {"hash_combine_hits", 20996},
      {"hash_combine_flushes", 0},    {"hash_combine_demotions", 0},
  };
  const Case cases[] = {
      {CombineMode::kSort, true, sort_map_thread, sort_support_thread},
      {CombineMode::kHash, false, hash_map_thread, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.mode == CombineMode::kSort ? "sort" : "hash");
    TempDir dir;
    auto config = base_config(dir, write_corpus(dir, "in.txt", 3000));
    config.spill_buffer_bytes = 4 << 20;
    config.combine_mode = c.mode;
    if (c.freq) {
      config.freqbuf.enabled = true;
      config.freqbuf.top_k = 8;
      config.freqbuf.sampling_fraction = 0.05;
      config.freq_table_budget_bytes = 16 * 1024;
    }
    const auto result = run_map_task(config);

    EXPECT_LE(result.map_thread.total_ns(/*include_idle=*/true),
              result.wall_ns);
    EXPECT_GT(result.map_thread.op_ns(Op::kMapUser), 0u);
    EXPECT_GT(result.map_thread.op_ns(Op::kEmit), 0u);
    EXPECT_GT(result.map_thread.op_ns(Op::kMapRead), 0u);
    expect_volumes(result.map_thread, c.map_thread);
    expect_volumes(result.support_thread, c.support_thread);
  }
}

TEST(Validate, FreqWithHashCombineIsAConfigError) {
  // Hash mode admits every key to its combine table, so a frequent set
  // could only shrink what it combines: both the job check and the map
  // task itself refuse the pair, naming both settings.
  TempDir dir;
  auto config = base_config(dir, write_corpus(dir, "in.txt", 10));
  config.combine_mode = CombineMode::kHash;
  config.freqbuf.enabled = true;
  try {
    run_map_task(config);
    ADD_FAILURE() << "run_map_task accepted freqbuf with hash-combine";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("freqbuf.enabled"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("kHash"), std::string::npos);
  }

  JobSpec spec;
  spec.inputs = {config.split};
  spec.mapper = config.mapper;
  spec.reducer = config.combiner;
  spec.combiner = config.combiner;
  spec.scratch_dir = dir.file("s");
  spec.output_dir = dir.file("o");
  spec.freqbuf.enabled = true;
  EXPECT_NO_THROW(validate_job(spec));
  spec.combine_mode = CombineMode::kHash;
  EXPECT_THROW(validate_job(spec), ConfigError);
}

}  // namespace
}  // namespace textmr::mr
