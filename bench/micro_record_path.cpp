// Record-path microbenchmark (DESIGN.md §8): per-record cost of the
// map-side pipeline — emit -> spill ring -> sort -> combine -> spill write
// -> merge — on WordCount over a Zipf(1.0) corpus, the workload the
// paper's Fig. 2 identifies as dominated by serialization/buffering
// abstraction costs.
//
// A second hash-mode case runs over a 500k-word vocabulary whose combine
// table outgrows L2, the regime of perfbench's wordcount-hash. A third
// case times sort_records alone over the URL keys of the access-log join.
//
// Emits BENCH_micro_record_path.json with ns/record notes; the CI build
// job fails if the artifact is missing or a gated note regresses (see
// .github/workflows/ci.yml). Compare the map_side_ns_per_record note
// across builds to quantify record-path changes.

#include <cstdio>
#include <string>

#include "bench_util.hpp"

using namespace textmr;

namespace {

struct MapSideRun {
  std::uint64_t records = 0;
  std::uint64_t framework_ns = 0;  // emit+sort+combine+write+merge
  std::uint64_t wall_ns = 0;       // framework + user map + read
};

/// One full map task on the corpus; the framework component is the record
/// path proper — everything except user map() code, input read and idle
/// time. In kSort mode the task runs map thread + support thread (sort /
/// combine / write land on the support metrics); in kHash mode the
/// sharded hash-combine runs everything on the map thread (flush time
/// lands in its kSort/kSpillWrite buckets) — summing the op buckets over
/// both structs measures the two modes with one formula.
MapSideRun run_map_side(const std::filesystem::path& corpus,
                        const TempDir& scratch, mr::CombineMode mode,
                        std::size_t buffer_bytes, int round) {
  auto splits = io::make_splits(corpus.string(), 64u << 20);
  mr::MapTaskConfig config;
  config.split = splits.front();
  config.num_partitions = 4;
  config.mapper = [] { return std::make_unique<apps::WordCountMapper>(); };
  config.combiner = [] { return std::make_unique<apps::WordCountCombiner>(); };
  config.spill_buffer_bytes = buffer_bytes;
  config.combine_mode = mode;
  config.scratch_dir =
      scratch.file((mode == mr::CombineMode::kHash ? "hmap-" : "map-") +
                   std::to_string(round));

  const auto result = mr::run_map_task(config);
  const auto framework = [](const mr::TaskMetrics& m) {
    return m.op_ns(mr::Op::kEmit) + m.op_ns(mr::Op::kSort) +
           m.op_ns(mr::Op::kCombine) + m.op_ns(mr::Op::kSpillWrite) +
           m.op_ns(mr::Op::kMerge) + m.op_ns(mr::Op::kMergeCombine);
  };
  MapSideRun run;
  run.records = result.map_thread.map_output_records;
  run.framework_ns =
      framework(result.map_thread) + framework(result.support_thread);
  run.wall_ns = result.wall_ns;
  return run;
}

double ns_per(std::uint64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

}  // namespace

int main() {
  bench::JsonReport report("micro_record_path");

  TempDir dir("textmr-micro-record");
  textgen::CorpusSpec corpus_spec;
  corpus_spec.total_words = 400'000;
  corpus_spec.vocabulary = 20'000;
  corpus_spec.alpha = 1.0;  // the paper's text-typical Zipf exponent
  corpus_spec.seed = 7;
  const auto corpus = dir.file("corpus.txt");
  textgen::generate_corpus(corpus_spec, corpus.string());

  // ---- map-side pipeline: sort-spill baseline vs hash-combine ----------
  // Steady-state: 1 warmup run, min of 3 measured (see run_until_steady).
  const auto cost = [](const MapSideRun& r) { return r.framework_ns; };
  int round = 0;
  const auto measure = [&](const std::filesystem::path& input,
                           mr::CombineMode mode, std::size_t buffer_bytes) {
    return bench::run_until_steady(
        [&] {
          return run_map_side(input, dir, mode, buffer_bytes, round++);
        },
        cost);
  };
  // A 1 MB buffer: many spills and a deep final merge.
  constexpr std::size_t kSmallBuffer = 1u << 20;
  const MapSideRun best = measure(corpus, mr::CombineMode::kSort, kSmallBuffer);
  const double fw_ns = ns_per(best.framework_ns, best.records);
  const double wall_ns = ns_per(best.wall_ns, best.records);
  std::printf("map-side record path: %llu records\n",
              static_cast<unsigned long long>(best.records));
  std::printf("  sort  framework %8.1f ns/record "
              "(emit+sort+combine+write+merge)\n",
              fw_ns);
  std::printf("  sort  wall      %8.1f ns/record (incl. user map + read)\n",
              wall_ns);
  report.add_note("map_side_records", static_cast<double>(best.records));
  report.add_note("map_side_ns_per_record", fw_ns);
  report.add_note("map_side_wall_ns_per_record", wall_ns);

  const MapSideRun hash = measure(corpus, mr::CombineMode::kHash, kSmallBuffer);
  const double hash_fw_ns = ns_per(hash.framework_ns, hash.records);
  const double hash_wall_ns = ns_per(hash.wall_ns, hash.records);
  std::printf("  hash  framework %8.1f ns/record "
              "(emit+combine-on-insert+flush)\n",
              hash_fw_ns);
  std::printf("  hash  wall      %8.1f ns/record (incl. user map + read)\n",
              hash_wall_ns);
  report.add_note("hash_map_side_ns_per_record", hash_fw_ns);
  report.add_note("hash_map_side_wall_ns_per_record", hash_wall_ns);

  // ---- hash mode over a keyspace that outgrows L2 ------------------------
  // 1M words over a 500k vocabulary under perfbench's 16 MB budget: the
  // table holds a few hundred thousand keys, several MB of slots and
  // entries, so a combine hit pays for its cache misses.
  textgen::CorpusSpec large_spec = corpus_spec;
  large_spec.total_words = 1'000'000;
  large_spec.vocabulary = 500'000;
  const auto large_corpus = dir.file("corpus-large-vocab.txt");
  textgen::generate_corpus(large_spec, large_corpus.string());
  const MapSideRun large =
      measure(large_corpus, mr::CombineMode::kHash, 16u << 20);
  const double large_fw_ns = ns_per(large.framework_ns, large.records);
  std::printf("  hash  framework %8.1f ns/record over a 500k vocabulary "
              "(%llu records)\n",
              large_fw_ns, static_cast<unsigned long long>(large.records));
  report.add_note("hash_map_side_large_vocab_ns_per_record", large_fw_ns);

  // ---- sort_records over URL keys ---------------------------------------
  // The join's map output: textgen::url_for_rank keys under Zipf(0.8)
  // ranks share their first 15 bytes, so the (partition, prefix) radix
  // decides only the partition and the tie pass orders the rest. 100k
  // records is about one 8 MB split of UserVisits, one spill.
  {
    constexpr int kN = 100'000;
    const ZipfDistribution zipf(100'000, 0.8);
    Xoshiro256 rng(7);
    const mr::HashPartitioner partition(4);
    mr::RecordArena arena;
    for (int i = 0; i < kN; ++i) {
      const std::string url = textgen::url_for_rank(zipf(rng));
      arena.append(partition(url), url, "V10.0.0.1|\x05");
    }
    const mr::FrameStore frames = arena.frames();
    const std::uint64_t sort_ns = bench::run_until_steady(
        [&] {
          std::vector<mr::RecordRef> refs = arena.records();
          const std::uint64_t t0 = monotonic_ns();
          mr::sort_records(refs, [&frames](const mr::RecordRef& ref) {
            return frames.key(ref);
          });
          return monotonic_ns() - t0;
        },
        [](std::uint64_t ns) { return ns; }, 1, 5);
    std::printf("url sort: %.1f ns/record (%d URL keys, Zipf 0.8)\n",
                ns_per(sort_ns, kN), kN);
    report.add_note("url_sort_ns_per_record", ns_per(sort_ns, kN));
  }

  // ---- packed-record primitives in isolation ---------------------------
  {
    constexpr int kN = 1'000'000;
    mr::RecordArena arena;
    std::string key = "benchmark";
    const std::string value = "12345678";
    const std::uint64_t t0 = monotonic_ns();
    for (int i = 0; i < kN; ++i) {
      key[0] = static_cast<char>('a' + (i & 15));
      arena.append(static_cast<std::uint32_t>(i & 3), key, value);
    }
    const std::uint64_t append_ns = monotonic_ns() - t0;

    const std::uint64_t t1 = monotonic_ns();
    std::uint64_t payload = 0;
    const mr::FrameStore frames = arena.frames();
    for (const mr::RecordRef& ref : arena.records()) {
      const mr::Frame frame = frames.frame(ref);
      payload += frame.key.size() + frame.value.size();
    }
    const std::uint64_t iterate_ns = monotonic_ns() - t1;
    std::printf("arena: append %.1f ns/record, iterate %.1f ns/record "
                "(%llu payload bytes)\n",
                ns_per(append_ns, kN), ns_per(iterate_ns, kN),
                static_cast<unsigned long long>(payload));
    report.add_note("arena_append_ns_per_record", ns_per(append_ns, kN));
    report.add_note("arena_iterate_ns_per_record", ns_per(iterate_ns, kN));
  }

  // ---- one end-to-end job so the artifact carries a full JobResult ------
  const apps::AppBundle app = apps::wordcount_app();
  mr::JobSpec spec;
  spec.name = "micro_record_path";
  spec.inputs = io::make_splits(corpus.string(), 1u << 20);
  spec.mapper = app.mapper;
  spec.reducer = app.reducer;
  spec.combiner = app.combiner;
  spec.num_reducers = 4;
  spec.spill_buffer_bytes = 1u << 20;
  spec.scratch_dir = dir.file("scratch");
  spec.output_dir = dir.file("out");
  mr::LocalEngine engine;
  report.add_job(app.name, "Baseline", engine.run(spec));

  std::printf("wrote %s\n", report.path().string().c_str());
  return 0;
}
