#pragma once

// Map-side sharded hash-combine (DESIGN.md §15): the Metis-style
// generalization of frequency-buffering from "top-k keys" to the whole
// keyspace. Each map task owns P shard hash tables; a record is routed to
// a shard by key hash and combined *on insert* (open addressing, 8-byte
// big-endian key-prefix confirm, then full key). Sorting is deferred to
// flush time: a stable LSD radix pass over (partition, key prefix) with a
// full-key fallback comparison on prefix ties — exactly record_ref_less
// order, so the emitted runs are indistinguishable from sort-spill runs.
//
// Memory discipline: every shard has a byte watermark. Breaching it
// flushes the shard to a sorted combined run and keeps hashing; a shard
// that keeps breaching (demote_after_flushes) is *demoted* to the
// existing sort-spill path (RecordArena + sort_and_spill), so behavior
// under pressure is the proven baseline path, not a new one.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/record_arena.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"

namespace textmr::mr {

struct HashCombineConfig {
  std::uint32_t num_shards = 8;
  /// Per-shard resident-byte watermark; 0 derives it from
  /// `memory_budget_bytes / num_shards` (floored at 32 KiB) — the hash
  /// tables replace the spill ring, so they inherit its budget.
  std::size_t watermark_bytes = 0;
  /// A shard that breaches its watermark this many times is demoted to
  /// the sort-spill path for the rest of the task.
  std::uint32_t demote_after_flushes = 4;
  std::size_t memory_budget_bytes = 16u << 20;
  std::uint32_t num_partitions = 1;
  io::SpillFormat format = io::SpillFormat::kCompactVarint;
};

struct HashCombineStats {
  std::uint64_t records = 0;    // inserts seen
  std::uint64_t hits = 0;       // probe hits (combined or chained in place)
  std::uint64_t flushes = 0;    // watermark flushes (hash shards)
  std::uint64_t demotions = 0;  // shards demoted to the sort-spill path
};

/// The per-task shard set. Single-threaded: lives on the map thread and
/// is driven from the emit sink. Inserts read no clock; each flush (radix
/// sort + run write) times itself exactly into kSort/kSpillWrite, which
/// the map task carves out of its sampled emit time (map_task.cpp).
class HashCombineShards {
 public:
  /// `combiner` may be null (values chain per key instead of combining).
  /// `next_run_path` names each flushed run; `metrics` receives
  /// kSort/kCombine/kSpillWrite time and spill volume counters.
  HashCombineShards(const HashCombineConfig& config, Reducer* combiner,
                    std::function<std::string(std::uint64_t sequence)>
                        next_run_path,
                    TaskMetrics& metrics, obs::TraceBuffer* trace);
  ~HashCombineShards();

  HashCombineShards(const HashCombineShards&) = delete;
  HashCombineShards& operator=(const HashCombineShards&) = delete;

  /// Routes one map-output record: combine-on-insert in its shard's
  /// table, or arena append when the shard is demoted. May flush.
  void insert(std::uint32_t partition, std::string_view key,
              std::string_view value);

  /// Flushes all residue and returns every run written over the task's
  /// lifetime, in write order. The common no-pressure case produces
  /// exactly one run: all shards' resident entries globally radix-sorted
  /// into a single file (no merge needed downstream).
  std::vector<io::SpillRunInfo> finish();

  const HashCombineStats& stats() const { return stats_; }

 private:
  struct Entry {
    RecordRef key_ref;  // frame (empty value) in the shard's key arena
    std::uint64_t hash = 0;
    std::uint32_t value_head = kNil;
    std::uint32_t value_tail = kNil;
  };

  struct Shard {
    std::vector<std::uint32_t> slots;  // entry index + 1; 0 = empty
    std::vector<Entry> entries;
    RecordArena keys;            // framed keys, stable addresses
    std::vector<char> values;    // chained value blocks (offset-addressed)
    std::uint64_t flush_count = 0;
    std::uint64_t records = 0;
    std::uint64_t hits = 0;
    bool demoted = false;
    RecordArena spill;  // demoted mode: framed records for sort_and_spill
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  void hash_insert(Shard& shard, std::uint32_t shard_index,
                   std::uint32_t partition, std::string_view key,
                   std::string_view value);
  void demoted_insert(Shard& shard, std::uint32_t partition,
                      std::string_view key, std::string_view value);
  void combine_into(Shard& shard, Entry& entry, std::string_view value);

  std::uint32_t alloc_block(Shard& shard, std::string_view value);
  std::size_t resident_bytes(const Shard& shard) const;
  void grow_slots(Shard& shard);

  /// Sorts `items` into record_ref_less order: stable LSD radix over the
  /// 8-byte key prefix, a stable counting pass over the partition, then a
  /// full-key comparison fallback on equal-(partition, prefix) spans.
  struct FlushItem {
    std::uint64_t prefix;
    std::uint32_t partition;
    std::uint32_t entry;
    std::uint32_t shard;
  };
  void radix_sort(std::vector<FlushItem>& items);
  void write_sorted(const std::vector<FlushItem>& items,
                    io::SpillRunWriter& writer);

  void flush_shard(Shard& shard, std::uint32_t shard_index);
  void flush_demoted(Shard& shard, std::uint32_t shard_index, bool final);

  HashCombineConfig config_;
  std::size_t watermark_;
  Reducer* combiner_;
  std::function<std::string(std::uint64_t)> next_run_path_;
  TaskMetrics& metrics_;
  obs::TraceBuffer* trace_;

  std::vector<Shard> shards_;
  std::vector<io::SpillRunInfo> runs_;
  std::uint64_t run_sequence_ = 0;
  HashCombineStats stats_;
  std::string combine_scratch_;  // staging for combiner output (reused)
  std::vector<FlushItem> flush_items_;      // reused across flushes
  std::vector<FlushItem> flush_scratch_;    // radix ping-pong buffer
  std::vector<std::uint32_t> part_count_;   // partition counting-sort buckets
  bool finished_ = false;
};

}  // namespace textmr::mr
