// google-benchmark microbenchmarks for the framework's hot components:
// the Space-Saving sketch, the frequent-key table, the spill buffer, the
// spill sorter+combiner, the tokenizer, the Zipf sampler and the cluster
// transport (frame checksum, one shuffle fetch over loopback). These
// back the per-operation costs that the figure-level harnesses measure.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/shuffle_client.hpp"
#include "cluster/shuffle_server.hpp"
#include "common/tempdir.hpp"
#include "textmr.hpp"

using namespace textmr;

namespace {

std::vector<std::string> zipf_keys(std::size_t n, double alpha,
                                   std::uint64_t vocab = 50000) {
  Xoshiro256 rng(42);
  ZipfDistribution zipf(vocab, alpha);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(textgen::word_for_rank(zipf(rng)));
  }
  return keys;
}

void BM_SpaceSavingOffer(benchmark::State& state) {
  const auto keys = zipf_keys(1 << 16, 1.0);
  sketch::SpaceSaving sketch(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.offer(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingOffer)->Arg(1000)->Arg(12000)->Arg(40000);

void BM_ExactCounterOffer(benchmark::State& state) {
  const auto keys = zipf_keys(1 << 16, 1.0);
  sketch::ExactCounter counter;
  std::size_t i = 0;
  for (auto _ : state) {
    counter.offer(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactCounterOffer);

void BM_LruOffer(benchmark::State& state) {
  const auto keys = zipf_keys(1 << 16, 1.0);
  sketch::LruTracker lru(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    lru.offer(keys[i++ & (keys.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruOffer)->Arg(1000)->Arg(10000);

void BM_FreqTableHit(benchmark::State& state) {
  // FreqOpt's path after the freeze: the controller offers each record to
  // the combine table, which holds the frozen top-3000 set pinned and
  // combines WordCount's counters in place. Timed like the map thread
  // drives it: one offer in kTimingSamplePeriod reads the clock.
  class NullTarget final : public mr::HashCombineShards::FlushTarget {
    void put(std::uint32_t, std::string_view, std::string_view) override {}
    void seal() override {}
  } target;
  mr::TaskMetrics metrics;
  apps::WordCountCombiner combiner;
  mr::HashCombineConfig config;
  config.memory_budget_bytes = (16u << 20) * 3 / 10;  // the §V-B2 30% share
  mr::HashCombineShards table(config, &combiner, target, metrics, nullptr);
  freqbuf::FreqBufConfig freq_config;
  freq_config.enabled = true;
  mr::OpSampler sampler;
  freqbuf::NodeKeyCache cache;
  std::vector<std::string> hot;
  for (int i = 1; i <= 3000; ++i) hot.push_back(textgen::word_for_rank(i));
  cache.put(hot);  // frozen set: the controller starts in kOptimize
  const mr::HashPartitioner partitioner{1};
  freqbuf::FreqBufferController controller(freq_config, table, partitioner,
                                           metrics, &cache, nullptr, &sampler);
  const auto keys = zipf_keys(1 << 16, 1.0);
  std::string value;
  put_varint(value, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.next();
    benchmark::DoNotOptimize(
        controller.offer(0, keys[i++ & (keys.size() - 1)], value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreqTableHit);

void BM_SpillBufferPipeline(benchmark::State& state) {
  // Producer/consumer throughput of the circular buffer at a given spill
  // threshold; the consumer just releases.
  const double threshold = static_cast<double>(state.range(0)) / 100.0;
  const auto keys = zipf_keys(1 << 14, 1.0);
  for (auto _ : state) {
    mr::SpillBuffer buffer(1 << 20, threshold);
    std::thread consumer([&] {
      while (auto spill = buffer.take()) {
        benchmark::DoNotOptimize(spill->records.size());
        buffer.release(*spill, 1000);
      }
    });
    for (int rep = 0; rep < 4; ++rep) {
      for (const auto& key : keys) buffer.put(0, key, "12345678");
    }
    buffer.close();
    consumer.join();
  }
  state.SetItemsProcessed(state.iterations() * 4 * keys.size());
}
BENCHMARK(BM_SpillBufferPipeline)->Arg(20)->Arg(50)->Arg(80);

void BM_SortAndSpill(benchmark::State& state) {
  const auto keys = zipf_keys(static_cast<std::size_t>(state.range(0)), 1.0);
  TempDir dir("textmr-microbench");
  apps::WordCountCombiner combiner;
  std::string value;
  put_varint(value, 1);
  int run_id = 0;
  mr::RecordArena arena;
  for (auto _ : state) {
    state.PauseTiming();
    // Rebuild the spill (framed records live in the reused arena).
    arena.clear();
    mr::Spill spill;
    spill.records.reserve(keys.size());
    for (const auto& key : keys) {
      spill.records.push_back(arena.append(0, key, value));
    }
    spill.frames = arena.frames();
    mr::TaskMetrics metrics;
    const auto path = dir.file("run" + std::to_string(run_id++)).string();
    state.ResumeTiming();
    auto info = sort_and_spill(spill, &combiner, path, 1,
                               io::SpillFormat::kCompactVarint, metrics);
    benchmark::DoNotOptimize(info.records);
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_SortAndSpill)->Arg(10000)->Arg(100000);

void BM_Tokenizer(benchmark::State& state) {
  textgen::CorpusSpec spec;
  spec.total_words = 2000;
  textgen::CorpusStream stream(spec);
  std::string text;
  std::string line;
  while (stream.next_line(line)) {
    text += line;
    text.push_back('\n');
  }
  std::string scratch;
  for (auto _ : state) {
    std::uint64_t tokens = 0;
    apps::for_each_token(text, scratch, [&](std::string_view) { ++tokens; });
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_Tokenizer);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::uint64_t>(state.range(0)), 1.0);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000)->Arg(1000000000);

void BM_PosTaggerSentence(benchmark::State& state) {
  apps::PosTagger tagger(static_cast<std::uint32_t>(state.range(0)));
  std::vector<std::string> tokens;
  for (int i = 1; i <= 12; ++i) tokens.push_back(textgen::word_for_rank(i * 7));
  std::vector<apps::PosTag> tags;
  for (auto _ : state) {
    tagger.tag_sentence(tokens, tags);
    benchmark::DoNotOptimize(tags.data());
  }
  state.SetItemsProcessed(state.iterations() * tokens.size());
}
BENCHMARK(BM_PosTaggerSentence)->Arg(1)->Arg(16)->Arg(64);

std::string pseudo_random_bytes(std::size_t n) {
  Xoshiro256 rng(7);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng() & 0xff);
  return out;
}

void BM_FrameCrc32(benchmark::State& state) {
  // The checksum every frame pays on send and again on receive.
  const std::string data =
      pseudo_random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameCrc32)->Arg(64 << 10)->Arg(4 << 20);

void BM_ShuffleFetchLoopback(benchmark::State& state) {
  // One reducer pulling one 4 MiB partition from a worker's shuffle
  // server over loopback TCP: disk read, frame send, receive, checksums.
  TempDir dir;
  const std::string run_path = dir.file("map0_a0_final").string();
  io::SpillRunWriter writer(run_path, 1);
  const std::string value = pseudo_random_bytes(100);
  std::uint64_t written = 0;
  for (std::uint64_t i = 0; written < (4u << 20); ++i) {
    const std::string key = "http://www.site" + std::to_string(i);
    writer.append(0, key, value);
    written += key.size() + value.size() + 2;
  }
  const io::SpillRunInfo run = writer.finish();
  cluster::ShuffleServer::Options options;
  options.root = dir.path().string();
  cluster::ShuffleServer server(options);
  const cluster::ShuffleClient client;
  for (auto _ : state) {
    const auto bytes = client.fetch(server.endpoint(), run, 0);
    if (!bytes.has_value()) {
      state.SkipWithError("shuffle fetch failed");
      break;
    }
    benchmark::DoNotOptimize(bytes->data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.partitions[0].bytes));
}
BENCHMARK(BM_ShuffleFetchLoopback)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Like BENCHMARK_MAIN(), but defaults the JSON artifact so every bench
// harness in this repo leaves a BENCH_<name>.json behind. Explicit
// --benchmark_out flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_components.json";
  if (const char* dir = std::getenv("TEXTMR_BENCH_OUT")) {
    out_flag = std::string("--benchmark_out=") + dir +
               "/BENCH_micro_components.json";
  }
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
