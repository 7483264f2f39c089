#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mr/report.hpp"
#include "mr/task_runner.hpp"
#include "obs/json.hpp"

namespace textmr {
namespace {

TEST(Counters, BasicIncrementAndMerge) {
  mr::Counters a;
  a.increment("x");
  a.increment("x", 4);
  a.increment("y", 2);
  EXPECT_EQ(a.value("x"), 5u);
  EXPECT_EQ(a.value("y"), 2u);
  EXPECT_EQ(a.value("missing"), 0u);

  mr::Counters b;
  b.increment("x", 10);
  b.increment("z");
  a += b;
  EXPECT_EQ(a.value("x"), 15u);
  EXPECT_EQ(a.value("z"), 1u);
  EXPECT_EQ(a.all().size(), 3u);
}

TEST(Counters, EmptyByDefault) {
  mr::Counters counters;
  EXPECT_TRUE(counters.empty());
  counters.increment("a");
  EXPECT_FALSE(counters.empty());
}

TEST(Counters, AggregatedAcrossMapAndReduceTasks) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 10000;
  corpus_spec.vocabulary = 200;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());

  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 64 * 1024),
                             dir.file("s"), dir.file("o"));
  // Counting mapper + counting reducer via lambdas.
  spec.mapper = [] {
    class CountingMapper final : public mr::Mapper {
     public:
      void begin_task(const mr::TaskInfo& info) override {
        counters_ = info.counters;
      }
      void map(std::uint64_t, std::string_view line,
               mr::EmitSink& out) override {
        counters_->increment("lines_seen");
        std::string scratch;
        apps::for_each_token(line, scratch, [&](std::string_view token) {
          std::string value;
          put_varint(value, 1);
          out.emit(token, value);
        });
      }

     private:
      mr::Counters* counters_ = nullptr;
    };
    return std::make_unique<CountingMapper>();
  };
  spec.reducer = [] {
    class CountingReducer final : public mr::Reducer {
     public:
      void begin_task(const mr::TaskInfo& info) override {
        counters_ = info.counters;
      }
      void reduce(std::string_view key, mr::ValueStream& values,
                  mr::EmitSink& out) override {
        counters_->increment("groups_reduced");
        std::uint64_t total = 0;
        while (auto v = values.next()) {
          std::size_t pos = 0;
          total += get_varint(*v, pos);
        }
        out.emit(key, std::to_string(total));
      }

     private:
      mr::Counters* counters_ = nullptr;
    };
    return std::make_unique<CountingReducer>();
  };
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  EXPECT_EQ(result.counters.value("lines_seen"),
            result.metrics.work.input_records);
  EXPECT_EQ(result.counters.value("groups_reduced"),
            result.metrics.work.output_records);
}

TEST(Counters, AccessLogAppsCountMalformedAndJoinedRows) {
  TempDir dir;
  const auto path = dir.file("mixed.log");
  {
    std::ofstream out(path);
    out << "1.2.3.4|http://a.com|2008-1-1|5.00|ua|US|en|q|10\n";
    out << "1.2.3.5|http://a.com|2008-1-1|1.00|ua|US|en|q|10\n";
    out << "definitely not a record\n";
    out << "http://a.com|42|60\n";                          // ranking
    out << "9.9.9.9|http://orphan.com|2008-1-1|1.00|ua|US|en|q|10\n";
  }
  auto spec = test::make_job(apps::access_log_join_app(),
                             io::make_splits(path.string(), 1 << 20),
                             dir.file("s"), dir.file("o"), 1);
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  EXPECT_EQ(result.counters.value(apps::log_counters::kVisits), 3u);
  EXPECT_EQ(result.counters.value(apps::log_counters::kRankings), 1u);
  EXPECT_EQ(result.counters.value(apps::log_counters::kMalformed), 1u);
  EXPECT_EQ(result.counters.value(apps::log_counters::kJoinedRows), 2u);
  EXPECT_EQ(result.counters.value(apps::log_counters::kOrphanVisits), 1u);
}

TEST(Counters, CombinerCountersAreMergedFromBothThreads) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 30000;
  corpus_spec.vocabulary = 100;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());

  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  spec.spill_buffer_bytes = 16 * 1024;  // several spills -> support combines
  spec.combiner = [] {
    class CountingCombiner final : public mr::Reducer {
     public:
      void begin_task(const mr::TaskInfo& info) override {
        counters_ = info.counters;
      }
      void reduce(std::string_view key, mr::ValueStream& values,
                  mr::EmitSink& out) override {
        if (counters_ != nullptr) counters_->increment("combines");
        std::uint64_t total = 0;
        while (auto v = values.next()) {
          std::size_t pos = 0;
          total += get_varint(*v, pos);
        }
        std::string value;
        put_varint(value, total);
        out.emit(key, value);
      }

     private:
      mr::Counters* counters_ = nullptr;
    };
    return std::make_unique<CountingCombiner>();
  };
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  EXPECT_GT(result.counters.value("combines"), 0u);
}

TEST(Report, ContainsKeySections) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 5000;
  corpus_spec.vocabulary = 100;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  mr::LocalEngine engine;
  const auto result = engine.run(spec);

  const auto report = mr::format_job_report(result, "unit-test-job");
  EXPECT_NE(report.find("unit-test-job"), std::string::npos);
  EXPECT_NE(report.find("serialized work by operation"), std::string::npos);
  EXPECT_NE(report.find("map_user"), std::string::npos);
  EXPECT_NE(report.find("[user code]"), std::string::npos);
  EXPECT_NE(report.find("abstraction cost"), std::string::npos);
  EXPECT_NE(report.find("volumes:"), std::string::npos);

  const auto summary = mr::format_job_summary(result);
  EXPECT_NE(summary.find("wall"), std::string::npos);
  EXPECT_NE(summary.find("map + "), std::string::npos);
}

TEST(Report, ShowsFreqTableHitsWhenEnabled) {
  TempDir dir;
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 20000;
  corpus_spec.vocabulary = 100;
  const auto corpus = dir.file("c.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());
  auto spec = test::make_job(apps::wordcount_app(),
                             io::make_splits(corpus.string(), 1 << 20),
                             dir.file("s"), dir.file("o"));
  spec.freqbuf.enabled = true;
  spec.freqbuf.top_k = 20;
  spec.freqbuf.sampling_fraction = 0.05;
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  const auto report = mr::format_job_report(result);
  EXPECT_NE(report.find("freq-table hits"), std::string::npos);
}

TEST(Report, UnattributedIsThreadWallLessItsOps) {
  // A sort-mode task: both threads, idle included in their ops.
  mr::MapTaskResult sort_task;
  sort_task.wall_ns = 1000;
  sort_task.pipeline_wall_ns = 900;
  sort_task.map_thread.op_ns(mr::Op::kMapUser) = 600;
  sort_task.map_thread.op_ns(mr::Op::kMapIdle) = 350;
  sort_task.support_thread.op_ns(mr::Op::kSort) = 500;
  sort_task.support_thread.op_ns(mr::Op::kSupportIdle) = 300;
  // A hash-mode task has no support thread, so nothing to leave out.
  mr::MapTaskResult hash_task;
  hash_task.wall_ns = 500;
  hash_task.pipeline_wall_ns = 500;
  hash_task.map_thread.op_ns(mr::Op::kEmit) = 480;
  mr::JobResult result;
  mr::fold_map_result(sort_task, result);
  mr::fold_map_result(hash_task, result);

  ASSERT_EQ(result.map_tasks.size(), 2u);
  EXPECT_EQ(result.map_tasks[0].map_unattributed_ns, 50u);
  EXPECT_EQ(result.map_tasks[0].support_unattributed_ns, 100u);
  EXPECT_EQ(result.map_tasks[1].map_unattributed_ns, 20u);
  EXPECT_EQ(result.map_tasks[1].support_unattributed_ns, 0u);

  const auto json = obs::JsonValue::parse(mr::format_job_metrics_json(result));
  ASSERT_TRUE(json.has_value());
  const obs::JsonValue* lost = json->get("unattributed");
  ASSERT_NE(lost, nullptr);
  EXPECT_EQ(lost->get("map_thread_ns")->number_or(-1), 70.0);
  EXPECT_NEAR(lost->get("map_thread_fraction")->number_or(-1), 70.0 / 1500.0,
              1e-9);
  EXPECT_EQ(lost->get("support_thread_ns")->number_or(-1), 100.0);
  EXPECT_NEAR(lost->get("support_thread_fraction")->number_or(-1),
              100.0 / 1400.0, 1e-9);
  const obs::JsonValue& task = json->get("map_task_details")->array()[0];
  EXPECT_EQ(task.get("map_unattributed_ns")->number_or(-1), 50.0);
  EXPECT_EQ(task.get("support_unattributed_ns")->number_or(-1), 100.0);

  EXPECT_NE(mr::format_job_report(result).find(
                "unattributed: map thread 4.7% of task wall, "
                "support thread 7.1% of pipeline wall"),
            std::string::npos);
}

}  // namespace
}  // namespace textmr
