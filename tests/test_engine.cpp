#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mr/task_runner.hpp"

namespace textmr {
namespace {

using test::make_job;
using test::part_files_sorted;
using test::read_outputs;

struct Fixture {
  TempDir dir;
  std::filesystem::path corpus;
  std::vector<io::InputSplit> splits;

  explicit Fixture(std::uint64_t words = 60000, double alpha = 1.0) {
    textgen::CorpusSpec spec;
    spec.total_words = words;
    spec.vocabulary = 2000;
    spec.alpha = alpha;
    spec.seed = 2024;
    corpus = dir.file("corpus.txt");
    textgen::generate_corpus(spec, corpus.string());
    splits = io::make_splits(corpus.string(), 64 * 1024);
  }
};

TEST(Engine, WordCountMatchesReference) {
  Fixture fx;
  auto spec = make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                       fx.dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);

  const auto expected = test::reference_wordcount(fx.corpus.string());
  const auto actual = read_outputs(result.outputs);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [word, count] : expected) {
    ASSERT_EQ(actual.at(word), std::to_string(count)) << word;
  }
  EXPECT_TRUE(part_files_sorted(result.outputs));
  EXPECT_GT(fx.splits.size(), 1u);  // exercised multiple map tasks
  EXPECT_EQ(result.metrics.map_tasks, fx.splits.size());
}

class WordCountSettingsTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(WordCountSettingsTest, AllOptimizationSettingsAgree) {
  const auto [freq, matcher] = GetParam();
  Fixture fx;
  auto spec = make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                       fx.dir.file("o"));
  spec.use_spill_matcher = matcher;
  if (freq) {
    spec.freqbuf.enabled = true;
    spec.freqbuf.top_k = 50;
    spec.freqbuf.sampling_fraction = 0.05;
  }
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  const auto expected = test::reference_wordcount(fx.corpus.string());
  const auto actual = read_outputs(result.outputs);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [word, count] : expected) {
    ASSERT_EQ(actual.at(word), std::to_string(count)) << word;
  }
  if (freq) {
    EXPECT_GT(result.metrics.work.freq_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Settings, WordCountSettingsTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Engine, InvertedIndexMatchesReference) {
  Fixture fx(30000);
  auto spec = make_job(apps::inverted_index_app(), fx.splits, fx.dir.file("s"),
                       fx.dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);

  const auto expected = test::reference_inverted_index(fx.splits);
  const auto actual = read_outputs(result.outputs);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [word, locations] : expected) {
    std::string text = std::to_string(locations.size()) + ":";
    for (std::size_t i = 0; i < locations.size(); ++i) {
      if (i > 0) text.push_back(',');
      text += std::to_string(locations[i]);
    }
    ASSERT_EQ(actual.at(word), text) << word;
  }
}

TEST(Engine, InvertedIndexWithFreqBufferingAgrees) {
  Fixture fx(30000);
  auto base_spec = make_job(apps::inverted_index_app(), fx.splits,
                            fx.dir.file("s1"), fx.dir.file("o1"));
  auto freq_spec = make_job(apps::inverted_index_app(), fx.splits,
                            fx.dir.file("s2"), fx.dir.file("o2"));
  freq_spec.freqbuf.enabled = true;
  freq_spec.freqbuf.top_k = 30;
  freq_spec.freqbuf.sampling_fraction = 0.05;
  mr::LocalEngine engine;
  EXPECT_EQ(read_outputs(engine.run(base_spec).outputs),
            read_outputs(engine.run(freq_spec).outputs));
}

TEST(Engine, AccessLogSumMatchesReference) {
  TempDir dir;
  textgen::AccessLogSpec log_spec;
  log_spec.num_visits = 20000;
  log_spec.num_urls = 500;
  const auto visits = dir.file("visits.log");
  const auto rankings = dir.file("rankings.txt");
  textgen::generate_access_log(log_spec, visits.string(), rankings.string());

  auto spec = make_job(apps::access_log_sum_app(),
                       io::make_splits(visits.string(), 256 * 1024),
                       dir.file("s"), dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);

  const auto expected = test::reference_access_log_sum(visits.string());
  const auto actual = read_outputs(result.outputs);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [url, cents] : expected) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%02llu",
                  static_cast<unsigned long long>(cents / 100),
                  static_cast<unsigned long long>(cents % 100));
    ASSERT_EQ(actual.at(url), buf) << url;
  }
}

TEST(Engine, AccessLogJoinProducesInnerJoin) {
  TempDir dir;
  textgen::AccessLogSpec log_spec;
  log_spec.num_visits = 5000;
  log_spec.num_urls = 200;
  const auto visits = dir.file("visits.log");
  const auto rankings = dir.file("rankings.txt");
  const auto stats =
      textgen::generate_access_log(log_spec, visits.string(), rankings.string());

  auto splits = io::make_splits(visits.string(), 256 * 1024);
  const auto ranking_splits = io::make_splits(rankings.string(), 256 * 1024);
  splits.insert(splits.end(), ranking_splits.begin(), ranking_splits.end());

  auto spec = make_job(apps::access_log_join_app(), splits, dir.file("s"),
                       dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);

  // Every visit joins (rankings cover all URLs): one output row per visit.
  std::uint64_t rows = 0;
  for (const auto& part : result.outputs) {
    std::ifstream in(part);
    std::string line;
    while (std::getline(in, line)) {
      ++rows;
      // Row shape: sourceIP \t revenue|pageRank
      const auto tab = line.find('\t');
      ASSERT_NE(tab, std::string::npos);
      EXPECT_NE(line.find('|', tab), std::string::npos);
    }
  }
  EXPECT_EQ(rows, stats.visit_records);
}

TEST(Engine, PageRankConservesRankMass) {
  TempDir dir;
  textgen::WebGraphSpec graph_spec;
  graph_spec.num_pages = 2000;
  graph_spec.seed = 5;
  const auto graph = dir.file("graph.txt");
  textgen::generate_web_graph(graph_spec, graph.string());

  auto spec = make_job(apps::pagerank_app(),
                       io::make_splits(graph.string(), 128 * 1024),
                       dir.file("s"), dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);

  // Sum of ranks after one iteration with damping d over N emitting pages:
  // sum' = (1-d)*N' + d*sum_in, where every page starts at rank 1 and all
  // mass is redistributed; N' >= N because link-only pages materialize.
  double total_rank = 0.0;
  std::uint64_t pages = 0;
  for (const auto& part : result.outputs) {
    std::ifstream in(part);
    std::string line;
    while (std::getline(in, line)) {
      const auto tab1 = line.find('\t');
      const auto tab2 = line.find('\t', tab1 + 1);
      total_rank += std::stod(line.substr(tab1 + 1, tab2 - tab1 - 1));
      ++pages;
    }
  }
  EXPECT_GE(pages, graph_spec.num_pages);
  const double expected =
      0.15 * static_cast<double>(pages) +
      0.85 * static_cast<double>(graph_spec.num_pages) * 1.0;
  EXPECT_NEAR(total_rank, expected, expected * 0.01);
}

TEST(Engine, ParallelWorkersMatchSerialExecution) {
  Fixture fx(40000);
  auto serial_spec = make_job(apps::wordcount_app(), fx.splits,
                              fx.dir.file("s1"), fx.dir.file("o1"));
  auto parallel_spec = make_job(apps::wordcount_app(), fx.splits,
                                fx.dir.file("s2"), fx.dir.file("o2"));
  parallel_spec.map_parallelism = 4;
  parallel_spec.reduce_parallelism = 3;
  mr::LocalEngine engine;
  EXPECT_EQ(read_outputs(engine.run(serial_spec).outputs),
            read_outputs(engine.run(parallel_spec).outputs));
}

TEST(Engine, ValidatesSpec) {
  mr::LocalEngine engine;
  mr::JobSpec spec;
  EXPECT_THROW(engine.run(spec), ConfigError);  // no inputs

  Fixture fx(1000);
  spec = test::make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                        fx.dir.file("o"));
  spec.num_reducers = 0;
  EXPECT_THROW(engine.run(spec), ConfigError);

  spec = test::make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                        fx.dir.file("o"));
  spec.spill_threshold = 1.5;
  EXPECT_THROW(engine.run(spec), ConfigError);

  spec = test::make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                        fx.dir.file("o"));
  spec.mapper = nullptr;
  EXPECT_THROW(engine.run(spec), ConfigError);

  // Records are indexed by u32 offsets into the spill ring, so the ring
  // must stay below 4 GiB. Checked on the spec alone: a job that accepted
  // the value would allocate the whole ring.
  spec = test::make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                        fx.dir.file("o"));
  spec.spill_buffer_bytes = std::size_t{4} << 30;
  EXPECT_THROW(mr::validate_job(spec), ConfigError);
  spec.spill_buffer_bytes = (std::size_t{4} << 30) - 1;
  EXPECT_NO_THROW(mr::validate_job(spec));
}

TEST(Engine, MetricsVolumesAreConsistent) {
  Fixture fx(30000);
  auto spec = make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                       fx.dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  const auto& work = result.metrics.work;
  // Map output flows through the spill buffer (no freqbuf).
  EXPECT_EQ(work.spill_input_records, work.map_output_records);
  // Combining can only shrink.
  EXPECT_LE(work.spilled_records, work.spill_input_records);
  EXPECT_LE(work.merged_records, work.spilled_records);
  // Reduce input equals the merged map output.
  EXPECT_EQ(work.reduce_input_records, work.merged_records);
  // Each distinct word appears exactly once in the final output.
  EXPECT_EQ(work.output_records,
            test::reference_wordcount(fx.corpus.string()).size());
  // The serialized view is nonzero and dominated by measured ops.
  EXPECT_GT(work.total_ns(), 0u);
}

TEST(Engine, IntermediateFilesAreCleanedUp) {
  Fixture fx(5000);
  auto spec = make_job(apps::wordcount_app(), fx.splits, fx.dir.file("s"),
                       fx.dir.file("o"));
  mr::LocalEngine engine;
  engine.run(spec);
  std::size_t leftover = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(fx.dir.file("s"))) {
    (void)entry;
    ++leftover;
  }
  EXPECT_EQ(leftover, 0u);
}

}  // namespace
}  // namespace textmr
