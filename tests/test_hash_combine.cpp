#include <gtest/gtest.h>

// Unit battery for the map side's one combine table (DESIGN.md §15):
// combine-equivalence against an exact oracle, adversarial prefix-
// collision keys (equal 8-byte prefixes, short keys that prefix longer
// ones, embedded NULs) and watermark flushes under pressure — all checked
// for exact (partition, key) run order and byte-identical output against
// the sort-spill baseline — plus the in-place-or-chain combine rule
// (FreqOpt's admission set is covered in test_freq_table).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "run_helpers.hpp"
#include "io/spill_file.hpp"
#include "mr/hash_combine.hpp"
#include "mr/map_task.hpp"
#include "mr/merger.hpp"
#include "mr/partitioner.hpp"
#include "mr/record_arena.hpp"
#include "mr/spill_sorter.hpp"
#include "mr/types.hpp"

namespace textmr::mr {
namespace {

/// Counting combiner: sums decimal values per key (WordCount's shape).
std::unique_ptr<Reducer> make_summing_combiner() {
  return std::make_unique<LambdaReducer>(
      [](std::string_view key, ValueStream& values, EmitSink& out) {
        std::uint64_t total = 0;
        while (auto v = values.next()) {
          total += std::strtoull(std::string(*v).c_str(), nullptr, 10);
        }
        out.emit(key, std::to_string(total));
      });
}

struct FlatRecord {
  std::uint32_t partition;
  std::string key;
  std::string value;

  friend bool operator==(const FlatRecord&, const FlatRecord&) = default;
};

/// Reads every record of a run, partition by partition, in file order.
std::vector<FlatRecord> read_run(const io::SpillRunInfo& info) {
  std::vector<FlatRecord> records;
  const io::SpillRunReader reader(info.path);
  for (std::uint32_t p = 0; p < reader.num_partitions(); ++p) {
    for (auto& record : test::read_run(info.path, p)) {
      records.push_back(
          FlatRecord{p, std::move(record.key), std::move(record.value)});
    }
  }
  return records;
}

/// Asserts the run respects spill order: within each partition keys are
/// nondecreasing (sort_records order projected onto files).
void expect_run_sorted(const std::vector<FlatRecord>& records) {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].partition == records[i - 1].partition) {
      EXPECT_LE(records[i - 1].key, records[i].key)
          << "run order violated at record " << i;
    } else {
      EXPECT_LT(records[i - 1].partition, records[i].partition);
    }
  }
}

struct TableHarness {
  TempDir dir;
  TaskMetrics metrics;
  std::unique_ptr<Reducer> combiner;
  std::unique_ptr<HashCombineShards> table;

  explicit TableHarness(HashCombineConfig config, bool with_combiner = true)
      : TableHarness(config,
                     with_combiner ? make_summing_combiner() : nullptr) {}

  TableHarness(HashCombineConfig config, std::unique_ptr<Reducer> reducer)
      : combiner(std::move(reducer)) {
    table = std::make_unique<HashCombineShards>(
        config, combiner.get(),
        [this](std::uint64_t sequence) {
          return (dir.path() / ("run" + std::to_string(sequence) + ".run"))
              .string();
        },
        metrics, nullptr);
  }
};

TEST(HashCombine, CombineEquivalenceVsExactOracle) {
  // A zipf-ish word stream: the table must produce exactly the oracle's
  // per-key totals, in one globally sorted run (no watermark pressure).
  HashCombineConfig config;
  config.num_shards = 4;
  config.num_partitions = 3;
  TableHarness h(config);

  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> oracle;
  Xoshiro256 rng(0x68617368ULL);  // "hash"
  for (std::size_t i = 0; i < 20000; ++i) {
    const std::string word = "w" + std::to_string(rng.next_below(700));
    const std::uint32_t partition =
        static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t weight = 1 + rng.next_below(3);
    h.table->insert(partition, word, std::to_string(weight));
    oracle[{partition, word}] += weight;
  }

  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u) << "no-pressure case must emit exactly one run";
  const auto records = read_run(runs[0]);
  expect_run_sorted(records);
  ASSERT_EQ(records.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [pk, total] : oracle) {
    EXPECT_EQ(records[i].partition, pk.first);
    EXPECT_EQ(records[i].key, pk.second);
    EXPECT_EQ(records[i].value, std::to_string(total));
    ++i;
  }
  EXPECT_GT(h.table->stats().hits, 0u);
  EXPECT_EQ(h.table->stats().records, 20000u);
  EXPECT_EQ(h.table->stats().flushes, 0u);
  EXPECT_EQ(h.metrics.spilled_records, records.size());
}

TEST(HashCombine, PrefixCollisionAdversarialKeys) {
  // Keys engineered to tie on the 8-byte big-endian prefix: identical
  // first 8 bytes with divergent tails (including NULs), short keys that
  // are prefixes of longer ones, and empty keys. Equality must confirm on
  // the full key; the radix fallback must order the tails correctly.
  HashCombineConfig config;
  config.num_shards = 2;
  config.num_partitions = 1;
  TableHarness h(config);

  std::vector<std::string> keys = {
      "",
      std::string(1, '\0'),
      std::string("prefix00", 8),
      std::string("prefix00a", 9),
      std::string("prefix00b", 9),
      std::string("prefix00\0x", 10),
      std::string("prefix00\0y", 10),
      "prefix00aaaaaaaaaaaaaaaa",
      "pre",
      "prefix",
      "prefix0",
  };
  std::map<std::string, std::uint64_t> oracle;
  for (std::size_t round = 0; round < 7; ++round) {
    for (const auto& key : keys) {
      h.table->insert(0, key, "1");
      oracle[key] += 1;
    }
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0]);
  ASSERT_EQ(records.size(), oracle.size())
      << "prefix-colliding keys must not merge";
  std::size_t i = 0;
  for (const auto& [key, total] : oracle) {
    EXPECT_EQ(records[i].key, key) << "at " << i;
    EXPECT_EQ(records[i].value, std::to_string(total));
    ++i;
  }
}

TEST(HashCombine, NoCombinerChainsAllValues) {
  // Without a combiner the table degrades to grouping: every value
  // survives, chained per key in insertion order.
  HashCombineConfig config;
  config.num_shards = 2;
  config.num_partitions = 1;
  TableHarness h(config, /*with_combiner=*/false);
  for (int i = 0; i < 5; ++i) {
    h.table->insert(0, "alpha", "a" + std::to_string(i));
    h.table->insert(0, "beta", "b" + std::to_string(i));
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0]);
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[static_cast<std::size_t>(i)].key, "alpha");
    EXPECT_EQ(records[static_cast<std::size_t>(i)].value,
              "a" + std::to_string(i));
    EXPECT_EQ(records[static_cast<std::size_t>(5 + i)].key, "beta");
    EXPECT_EQ(records[static_cast<std::size_t>(5 + i)].value,
              "b" + std::to_string(i));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(HashCombine, WatermarkFlushes) {
  // A tiny watermark forces a flush every few dozen inserts, every one a
  // run of its own. Merged, the runs must equal byte for byte what the
  // sort path writes for the same stream (one spill, combined per key),
  // and the table must stay under its bound after every insert.
  HashCombineConfig config;
  config.num_shards = 2;
  config.num_partitions = 2;
  config.watermark_bytes = 4096;
  TableHarness h(config);
  const std::size_t bound = config.num_shards * config.watermark_bytes;

  RecordArena arena;
  Spill spill;
  Xoshiro256 rng(0x64656d6fULL);
  for (std::size_t i = 0; i < 30000; ++i) {
    const std::string word = "key" + std::to_string(rng.next_below(4000));
    const std::uint32_t partition =
        static_cast<std::uint32_t>(rng.next_below(2));
    h.table->insert(partition, word, "1");
    ASSERT_LE(h.table->resident_bytes(), bound) << "after insert " << i;
    spill.records.push_back(arena.append(partition, word, "1"));
  }
  const auto runs = h.table->finish();
  ASSERT_GT(runs.size(), 1u) << "pressure must produce several runs";
  EXPECT_GT(h.table->stats().flushes, 0u);
  for (const auto& run : runs) expect_run_sorted(read_run(run));

  TaskMetrics metrics;
  const auto merged =
      merge_runs(runs, h.combiner.get(), h.dir.file("merged.run").string(),
                 config.num_partitions, io::SpillFormat::kCompactVarint,
                 metrics);
  spill.frames = arena.frames();
  const auto sorted =
      sort_and_spill(spill, h.combiner.get(), h.dir.file("sorted.run").string(),
                     config.num_partitions, io::SpillFormat::kCompactVarint,
                     metrics);
  ASSERT_GT(sorted.records, 0u);
  EXPECT_EQ(read_file(merged.path), read_file(sorted.path))
      << "flushed runs differ from the sort path";
}

TEST(HashCombine, FinishedTwiceThrows) {
  HashCombineConfig config;
  TableHarness h(config);
  h.table->insert(0, "k", "1");
  (void)h.table->finish();
  EXPECT_THROW((void)h.table->finish(), InternalError);
}

TEST(HashCombine, HotKeyCombineReadsEachValueBoundedTimes) {
  // A concatenating combiner's result outgrows its block after a few
  // hits; from then on values chain and are combined once, at the flush.
  // Re-combining the whole aggregate on every hit would read ~N^2/2
  // value bytes instead of O(N).
  constexpr std::size_t kInserts = 20000;
  constexpr std::size_t kValueSize = 8;
  std::uint64_t bytes_read = 0;
  HashCombineConfig config;
  config.num_shards = 1;
  TableHarness h(config,
                 std::make_unique<LambdaReducer>(
                     [&bytes_read](std::string_view key, ValueStream& values,
                                   EmitSink& out) {
                       std::string joined;
                       while (auto v = values.next()) {
                         bytes_read += v->size();
                         joined.append(*v);
                       }
                       out.emit(key, joined);
                     }));

  std::string expected;
  for (std::size_t i = 0; i < kInserts; ++i) {
    char value[kValueSize + 1];
    std::snprintf(value, sizeof(value), "%08zu", i);
    h.table->insert(0, "hot", std::string_view(value, kValueSize));
    expected.append(value, kValueSize);
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0]);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].value, expected);
  EXPECT_LE(bytes_read, 4 * kInserts * kValueSize);
}

// ---- entry layout: inline keys and values -------------------------------
//
// A key of up to 8 bytes lives only in the entry's zero-padded 8-byte
// head, so the key's size is all that tells a short key from its
// NUL-extended twins; a value of up to 8 bytes lives in the entry and
// moves to a heap block when it outgrows the entry or a chain starts.

/// Collects what the table flushes, in flush order.
class CollectingTarget final : public HashCombineShards::FlushTarget {
 public:
  void put(std::uint32_t partition, std::string_view key,
           std::string_view value) override {
    records.push_back(
        FlatRecord{partition, std::string(key), std::string(value)});
  }
  void seal() override {}

  std::vector<FlatRecord> records;
};

/// The table's slot tag: the high half of the key hash remixed with the
/// partition. Only keys whose tags match reach the entry compare.
std::uint32_t slot_tag(std::string_view key, std::uint32_t partition) {
  return static_cast<std::uint32_t>(
      mix64(hash_key(key) + partition * 0x9e3779b97f4a7c15ULL) >> 32);
}

/// Inserts `keys` round after round (value "1") into `partition` of one
/// shard and checks the flush against the per-key counts. `partition` is
/// one where the first two keys share a slot tag (found by search), so
/// the entry compare, not the tag, must tell them apart.
void expect_keys_counted_apart(const std::vector<std::string>& keys,
                               std::uint32_t partition) {
  ASSERT_EQ(slot_tag(keys[0], partition), slot_tag(keys[1], partition))
      << "the slot hash changed: search a new colliding partition";
  HashCombineConfig config;
  config.num_shards = 1;
  TaskMetrics metrics;
  CollectingTarget target;
  const auto combiner = make_summing_combiner();
  HashCombineShards table(config, combiner.get(), target, metrics, nullptr);
  std::map<std::string, std::uint64_t> oracle;
  for (std::size_t round = 0; round < 5; ++round) {
    for (std::size_t k = 0; k <= round && k < keys.size(); ++k) {
      table.insert(partition, keys[k], "1");
      oracle[keys[k]] += 1;
    }
  }
  (void)table.finish();
  ASSERT_EQ(target.records.size(), oracle.size())
      << "keys sharing a head merged";
  std::size_t i = 0;
  for (const auto& [key, total] : oracle) {
    EXPECT_EQ(target.records[i],
              (FlatRecord{partition, key, std::to_string(total)}))
        << "at " << i;
    ++i;
  }
}

TEST(HashCombineLayout, KeysOfZeroSevenEightNineBytesShareAHead) {
  // Zero-padded, all four NUL keys read the same 8-byte head; only the
  // key size tells them apart.
  const std::string nul0, nul7(7, '\0'), nul8(8, '\0'), nul9(9, '\0');
  expect_keys_counted_apart({nul0, nul7, nul8, nul9}, 1796680839u);
  expect_keys_counted_apart({nul7, nul8, nul0, nul9}, 3103014128u);
  // A long key inserted before the short key that shares its head.
  expect_keys_counted_apart({nul9, nul8, nul7, nul0}, 1061177027u);
}

TEST(HashCombineLayout, ZeroPadMeetsARealNul) {
  expect_keys_counted_apart({"ab", std::string("ab\0", 3),
                             std::string("ab\0\0", 4), "a"},
                            3519836519u);
}

TEST(HashCombineLayout, GrowingValueCrossesTheInlineLimit) {
  // Summed counts cross from 8 digits to 9, and a concatenation grows
  // from 3 bytes past 8 into a chain: each value leaves the entry for a
  // block exactly once, and every total must match the oracle.
  HashCombineConfig config;
  config.num_shards = 1;
  TableHarness sums(config);
  sums.table->insert(0, "big", "99999998");
  sums.table->insert(0, "big", "1");  // 99999999: still 8 bytes
  sums.table->insert(0, "big", "1");  // 100000000: 9 bytes
  sums.table->insert(0, "big", "5");
  sums.table->insert(0, "small", "7");
  auto runs = sums.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  auto records = read_run(runs[0]);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (FlatRecord{0, "big", "100000005"}));
  EXPECT_EQ(records[1], (FlatRecord{0, "small", "7"}));

  TableHarness joins(config, std::make_unique<LambdaReducer>(
                                 [](std::string_view key, ValueStream& values,
                                    EmitSink& out) {
                                   std::string joined;
                                   while (auto v = values.next()) {
                                     joined.append(*v);
                                   }
                                   out.emit(key, joined);
                                 }));
  std::string expected;
  for (int i = 0; i < 6; ++i) {
    const std::string value = "ab" + std::to_string(i);
    joins.table->insert(0, "k", value);
    expected += value;
  }
  runs = joins.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  records = read_run(runs[0]);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (FlatRecord{0, "k", expected}));
}

TEST(HashCombineLayout, InlineEntryWhoseCombinerEmitsNothing) {
  // A signed sum that drops zero totals: "+3" then "-3" empties the
  // entry; later values refill it and grow past the entry.
  HashCombineConfig config;
  config.num_shards = 1;
  TableHarness h(config, std::make_unique<LambdaReducer>(
                             [](std::string_view key, ValueStream& values,
                                EmitSink& out) {
                               long long total = 0;
                               while (auto v = values.next()) {
                                 total += std::strtoll(std::string(*v).c_str(),
                                                       nullptr, 10);
                               }
                               if (total != 0) {
                                 out.emit(key, std::to_string(total));
                               }
                             }));
  h.table->insert(0, "gone", "+3");
  h.table->insert(0, "gone", "-3");
  h.table->insert(0, "back", "4");
  h.table->insert(0, "back", "-4");
  h.table->insert(0, "back", "99999999");
  h.table->insert(0, "back", "1");  // 100000000 leaves the entry
  h.table->insert(0, "back", "5");
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  const auto records = read_run(runs[0]);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (FlatRecord{0, "back", "100000005"}));
}

TEST(HashCombineLayout, InlineEntryWhoseCombinerEmitsTwo) {
  // A distinct-set combiner emits its sorted distinct values: the first
  // stays in the entry only until the second arrives, when it moves to
  // the head of a chain.
  HashCombineConfig config;
  config.num_shards = 1;
  TableHarness h(config, std::make_unique<LambdaReducer>(
                             [](std::string_view key, ValueStream& values,
                                EmitSink& out) {
                               std::map<std::string, bool> distinct;
                               while (auto v = values.next()) {
                                 distinct[std::string(*v)] = true;
                               }
                               for (const auto& [value, unused] : distinct) {
                                 out.emit(key, value);
                               }
                             }));
  std::map<std::string, std::map<std::string, bool>> oracle;
  const std::vector<std::pair<std::string, std::string>> inserts = {
      {"d", "b"},  {"d", "a"}, {"d", "b"}, {"d", "c"},
      {"e", "xx"}, {"e", "xx"}, {"f", "longer-than-8"}, {"f", "q"},
  };
  for (const auto& [key, value] : inserts) {
    h.table->insert(0, key, value);
    oracle[key][value] = true;
  }
  const auto runs = h.table->finish();
  ASSERT_EQ(runs.size(), 1u);
  std::vector<FlatRecord> expected;
  for (const auto& [key, values] : oracle) {
    for (const auto& [value, unused] : values) {
      expected.push_back(FlatRecord{0, key, value});
    }
  }
  EXPECT_EQ(read_run(runs[0]), expected);
}

TEST(HashCombineLayout, ResidentBytesCountWhatTheShardsHold) {
  // A mixed load with no flush: short and long keys, inline and heap
  // values, over 2 partitions. The shards must hold at least a 32-byte
  // entry and an 8-byte slot per (partition, key), every long key's
  // bytes and every heap value's bytes (a 12-byte block header each);
  // resident_bytes() must count at least that much.
  HashCombineConfig config;
  config.num_shards = 4;
  config.num_partitions = 2;
  config.memory_budget_bytes = 256u << 20;
  TableHarness h(config, /*with_combiner=*/false);
  std::size_t entries = 0;
  std::size_t long_key_bytes = 0;
  std::size_t heap_value_bytes = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    const std::string key =
        i % 3 == 0 ? std::string(150, static_cast<char>('a' + i % 26)) +
                         std::to_string(i)
                   : "k" + std::to_string(i);
    const std::string value = i % 2 == 0 ? "v" : std::string(40, 'v');
    const std::uint32_t partition = static_cast<std::uint32_t>(i % 2);
    h.table->insert(partition, key, value);
    ++entries;
    if (key.size() > 8) long_key_bytes += key.size();
    if (value.size() > 8) heap_value_bytes += 12 + value.size();
  }
  EXPECT_EQ(h.table->stats().flushes, 0u);
  EXPECT_GE(h.table->resident_bytes(),
            entries * (32 + 8) + long_key_bytes + heap_value_bytes);
}

// ---- whole-map-task byte-identity ----------------------------------------

struct MapOutput {
  std::string bytes;  // the raw output run file
  TaskMetrics map_thread;
};

/// Runs one map task over `input` in the given combine mode.
MapOutput run_map_output(const std::filesystem::path& input,
                         const std::filesystem::path& scratch,
                         CombineMode mode, std::size_t watermark_bytes) {
  MapTaskConfig config;
  config.task_id = 0;
  config.split = io::InputSplit{input.string(), 0,
                                std::filesystem::file_size(input)};
  config.num_partitions = 4;
  config.mapper = [] {
    return std::make_unique<LambdaMapper>(
        [](std::uint64_t, std::string_view line, EmitSink& out) {
          // Whitespace word splitter with per-word unit counts.
          std::size_t start = 0;
          while (start < line.size()) {
            const std::size_t end = line.find(' ', start);
            const std::string_view word = line.substr(
                start, end == std::string_view::npos ? std::string_view::npos
                                                     : end - start);
            if (!word.empty()) out.emit(word, "1");
            if (end == std::string_view::npos) break;
            start = end + 1;
          }
        });
  };
  config.combiner = [] { return make_summing_combiner(); };
  config.spill_buffer_bytes = 64u << 10;  // small: forces sort-path spills
  config.scratch_dir = scratch;
  config.combine_mode = mode;
  config.hash_combine_shards = 4;
  config.hash_combine_watermark_bytes = watermark_bytes;
  const MapTaskResult result = run_map_task(config);
  return MapOutput{read_file(result.output.path), result.map_thread};
}

/// Replays run_map_output's emit stream through a table of the hash
/// task's shape; returns the largest resident_bytes() seen after an
/// insert and the flush count.
std::pair<std::size_t, std::uint64_t> replay_peak_resident(
    const std::filesystem::path& input, const HashCombineConfig& config) {
  TableHarness h(config);
  const HashPartitioner partitioner(config.num_partitions);
  std::size_t peak = 0;
  std::ifstream in(input);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t start = 0;
    while (start < line.size()) {
      std::size_t end = line.find(' ', start);
      if (end == std::string::npos) end = line.size();
      const std::string_view word(line.data() + start, end - start);
      if (!word.empty()) {
        h.table->insert(partitioner(word), word, "1");
        peak = std::max(peak, h.table->resident_bytes());
      }
      start = end + 1;
    }
  }
  (void)h.table->finish();
  return {peak, h.table->stats().flushes};
}

TEST(HashCombine, MapTaskByteIdenticalAcrossModes) {
  TempDir dir;
  const std::filesystem::path input = dir.path() / "input.txt";
  {
    std::ofstream out(input);
    Xoshiro256 rng(0x62797465ULL);  // "byte"
    for (int line = 0; line < 4000; ++line) {
      for (int w = 0; w < 8; ++w) {
        out << "word" << rng.next_below(900) << (w == 7 ? '\n' : ' ');
      }
    }
  }
  const MapOutput sorted =
      run_map_output(input, dir.path() / "s", CombineMode::kSort, 0);
  const MapOutput hashed =
      run_map_output(input, dir.path() / "h", CombineMode::kHash, 0);
  // Forced pressure: a 2 KiB watermark flushes every shard mid-stream,
  // many times over.
  constexpr std::size_t kWatermark = 2048;
  const MapOutput pressured =
      run_map_output(input, dir.path() / "p", CombineMode::kHash, kWatermark);
  ASSERT_FALSE(sorted.bytes.empty());
  EXPECT_EQ(sorted.bytes, hashed.bytes)
      << "hash-combine output differs from sort path";
  EXPECT_EQ(sorted.bytes, pressured.bytes)
      << "watermark-flush output differs from sort path";

  // The table's counters reach the task's metrics.
  EXPECT_GT(hashed.map_thread.hash_combine_hits, 0u);
  EXPECT_EQ(hashed.map_thread.hash_combine_flushes, 0u);
  EXPECT_GT(pressured.map_thread.hash_combine_hits, 0u);
  EXPECT_GT(pressured.map_thread.hash_combine_flushes, 4u);
  EXPECT_EQ(sorted.map_thread.hash_combine_hits, 0u);

  // The pressured task's stream, replayed through a table of its shape,
  // stays within shards x watermark after every insert.
  HashCombineConfig shape;
  shape.num_shards = 4;
  shape.num_partitions = 4;
  shape.watermark_bytes = kWatermark;
  const auto [peak, flushes] = replay_peak_resident(input, shape);
  EXPECT_EQ(flushes, pressured.map_thread.hash_combine_flushes);
  EXPECT_LE(peak, shape.num_shards * kWatermark);
}

}  // namespace
}  // namespace textmr::mr
