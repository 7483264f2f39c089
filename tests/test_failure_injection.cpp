#include <gtest/gtest.h>

// Failure-injection tests: user-code exceptions, pipeline aborts, and
// malformed data must surface as clean errors without hangs, leaks of
// blocked threads, or partial-output confusion.

#include <atomic>
#include <thread>

#include "helpers.hpp"

namespace textmr {
namespace {

class ThrowAfterN final : public mr::Mapper {
 public:
  explicit ThrowAfterN(std::uint64_t n) : n_(n) {}
  void map(std::uint64_t offset, std::string_view line,
           mr::EmitSink& out) override {
    if (offset >= n_) throw std::runtime_error("injected map failure");
    std::string scratch;
    apps::for_each_token(line, scratch, [&](std::string_view token) {
      std::string value;
      put_varint(value, 1);
      out.emit(token, value);
    });
  }

 private:
  std::uint64_t n_;
};

struct FailFixture {
  TempDir dir;
  std::filesystem::path corpus;
  std::vector<io::InputSplit> splits;

  FailFixture() {
    textgen::CorpusSpec spec;
    spec.total_words = 20000;
    spec.vocabulary = 500;
    corpus = dir.file("corpus.txt");
    textgen::generate_corpus(spec, corpus.string());
    splits = io::make_splits(corpus.string(), 1 << 20);
  }
};

TEST(FailureInjection, MapFailureAfterManySpillsDoesNotHang) {
  FailFixture fx;
  mr::JobSpec spec = test::make_job(apps::wordcount_app(), fx.splits,
                                    fx.dir.file("s"), fx.dir.file("o"));
  spec.spill_buffer_bytes = 8 * 1024;  // many in-flight spills before failure
  spec.mapper = [] { return std::make_unique<ThrowAfterN>(500); };
  mr::LocalEngine engine;
  EXPECT_THROW(engine.run(spec), std::runtime_error);
}

TEST(FailureInjection, MapFailureOnFirstRecord) {
  FailFixture fx;
  mr::JobSpec spec = test::make_job(apps::wordcount_app(), fx.splits,
                                    fx.dir.file("s"), fx.dir.file("o"));
  spec.mapper = [] { return std::make_unique<ThrowAfterN>(0); };
  mr::LocalEngine engine;
  EXPECT_THROW(engine.run(spec), std::runtime_error);
}

TEST(FailureInjection, CombinerFailureSurfacesFromSupportThread) {
  FailFixture fx;
  mr::JobSpec spec = test::make_job(apps::wordcount_app(), fx.splits,
                                    fx.dir.file("s"), fx.dir.file("o"));
  spec.spill_buffer_bytes = 8 * 1024;
  std::atomic<int> calls{0};
  spec.combiner = [&calls] {
    return std::make_unique<mr::LambdaReducer>(
        [&calls](std::string_view key, mr::ValueStream& values,
                 mr::EmitSink& out) {
          if (calls.fetch_add(1) > 50) {
            throw std::runtime_error("injected combine failure");
          }
          std::uint64_t total = 0;
          while (auto v = values.next()) {
            std::size_t pos = 0;
            total += get_varint(*v, pos);
          }
          std::string value;
          put_varint(value, total);
          out.emit(key, value);
        });
  };
  mr::LocalEngine engine;
  EXPECT_THROW(engine.run(spec), std::runtime_error);
}

TEST(FailureInjection, FreqBufCombinerFailurePropagates) {
  FailFixture fx;
  mr::JobSpec spec = test::make_job(apps::wordcount_app(), fx.splits,
                                    fx.dir.file("s"), fx.dir.file("o"));
  spec.freqbuf.enabled = true;
  spec.freqbuf.top_k = 20;
  spec.freqbuf.sampling_fraction = 0.02;
  // A tiny table budget flushes the table mid-stream, so combines run
  // at flush time as well as on every hit.
  spec.freqbuf.table_budget_fraction = 0.01;
  std::atomic<int> calls{0};
  spec.combiner = [&calls] {
    return std::make_unique<mr::LambdaReducer>(
        [&calls](std::string_view key, mr::ValueStream& values,
                 mr::EmitSink& out) {
          if (calls.fetch_add(1) > 20) {
            throw std::runtime_error("injected table-combine failure");
          }
          std::uint64_t total = 0;
          while (auto v = values.next()) {
            std::size_t pos = 0;
            total += get_varint(*v, pos);
          }
          std::string value;
          put_varint(value, total);
          out.emit(key, value);
        });
  };
  mr::LocalEngine engine;
  EXPECT_THROW(engine.run(spec), std::runtime_error);
}

TEST(FailureInjection, NonKeyPreservingCombinerIsRejected) {
  FailFixture fx;
  mr::JobSpec spec = test::make_job(apps::wordcount_app(), fx.splits,
                                    fx.dir.file("s"), fx.dir.file("o"));
  spec.combiner = [] {
    return std::make_unique<mr::LambdaReducer>(
        [](std::string_view, mr::ValueStream& values, mr::EmitSink& out) {
          while (values.next()) {
          }
          out.emit("WRONG_KEY", "v");  // violates the contract
        });
  };
  mr::LocalEngine engine;
  EXPECT_THROW(engine.run(spec), InternalError);
}

TEST(FailureInjection, SpillBufferAbortUnblocksProducer) {
  mr::SpillBuffer buffer(8 * 1024, 0.5);
  std::thread producer([&] {
    EXPECT_THROW(
        {
          for (int i = 0; i < 100000; ++i) {
            buffer.put(0, "key", std::string(64, 'v'));
          }
        },
        InternalError);
  });
  // Let the producer fill the buffer and block, then abort.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  buffer.abort();
  producer.join();
  EXPECT_FALSE(buffer.take().has_value());
}

TEST(FailureInjection, SpillBufferAbortUnblocksConsumer) {
  mr::SpillBuffer buffer(8 * 1024, 0.5);
  std::thread consumer([&] { EXPECT_FALSE(buffer.take().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  buffer.abort();
  consumer.join();
}

TEST(FailureInjection, MalformedLogLinesAreSkippedNotFatal) {
  TempDir dir;
  const auto path = dir.file("mixed.log");
  {
    std::ofstream out(path);
    out << "1.2.3.4|http://ok.com|2008-1-1|5.00|ua|US|en|q|10\n";
    out << "garbage line with no separators\n";
    out << "a|b\n";
    out << "ip|url|date|NOTANUMBER|ua|cc|ll|sw|1\n";
    out << "5.6.7.8|http://ok2.com|2008-1-1|2.50|ua|US|en|q|10\n";
  }
  auto spec = test::make_job(apps::access_log_sum_app(),
                             io::make_splits(path.string(), 1 << 20),
                             dir.file("s"), dir.file("o"), 1);
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  const auto outputs = test::read_outputs(result.outputs);
  EXPECT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs.at("http://ok.com"), "5.00");
  EXPECT_EQ(outputs.at("http://ok2.com"), "2.50");
}

TEST(FailureInjection, TruncatedRunFileIsDetected) {
  TempDir dir;
  const auto path = dir.file("run").string();
  {
    io::SpillRunWriter writer(path, 1);
    for (int i = 0; i < 100; ++i) {
      writer.append(0, "key" + std::to_string(i), std::string(100, 'v'));
    }
    writer.finish();
  }
  // Truncate in the middle of the record stream (footer lost).
  std::filesystem::resize_file(path, 500);
  EXPECT_THROW(io::SpillRunReader reader(path), FormatError);
}

TEST(FailureInjection, ReduceTaskMissingMapOutputThrows) {
  TempDir dir;
  mr::ReduceTaskConfig config;
  config.partition = 0;
  config.map_outputs.push_back(
      io::SpillRunInfo{(dir.path() / "missing.run").string(), 0, 0,
                       {io::PartitionExtent{0, 10, 1}}});
  config.reducer = [] { return std::make_unique<apps::WordCountReducer>(); };
  config.output_path = dir.file("part");
  EXPECT_THROW(run_reduce_task(config), IoError);
}

}  // namespace
}  // namespace textmr
