#pragma once

// The map side's one combine table (DESIGN.md §5, §15), modelled on
// Metis' per-core kvstore. Each map task owns P shard hash tables; a
// record is routed to a shard by key hash (open addressing over 8-byte
// slots holding a 32-bit hash tag and an entry index; a tag match loads
// the entry, which holds the key's first 8 bytes, its size and its
// partition, so a key of 8 bytes or less needs no other compare). Which
// keys the table takes is data: by default every key (hash mode);
// FreqOpt pins the frozen frequent set (paper §III-B) as entries with no
// value, the table takes only those, and the rest go to the ring.
//
// Combine rule: a hit combines in place while the result fits the
// entry's value block — a value of 8 bytes or less lives inside the
// entry, a larger one in a block with slack — so counters never leave
// that path. Once a combined value outgrows its block, the entry chains
// later values instead and the shard combines them once, when it
// flushes — each value is read a bounded number of times however hot
// its key is.
//
// Flushes sort the entries with sort_records, the ring spill's own sort,
// and hand them to a flush target: by default one sorted run file per
// flush, indistinguishable from a sort-spill run; FreqOpt's target is the
// spill ring. Every shard has a byte watermark; breaching it flushes
// the shard — the one path under pressure, however often it breaches.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
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
  /// `memory_budget_bytes / num_shards` (floored at 32 KiB) — hash mode's
  /// tables replace the spill ring, so they inherit its budget. FreqOpt's
  /// table sets it to its share of freq_table_budget_bytes, unfloored.
  /// resident_bytes() is at most num_shards x watermark between inserts.
  std::size_t watermark_bytes = 0;
  std::size_t memory_budget_bytes = 16u << 20;
  std::uint32_t num_partitions = 1;
  /// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
  std::uint32_t demote_after_flushes = 4;
  /// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
  io::SpillFormat format = io::SpillFormat::kCompactVarint;
};

struct HashCombineStats {
  std::uint64_t records = 0;  // inserts taken
  std::uint64_t hits = 0;     // probe hits (combined or chained in place)
  std::uint64_t flushes = 0;  // watermark flushes (hash shards)
};

/// The per-task shard set. Single-threaded: lives on the map thread and
/// is driven from the emit sink. Inserts read no clock; each flush times
/// itself exactly (flush-time combines into kCombine, sort_records into
/// kSort, the run write into kSpillWrite), and the map task carves those
/// out of its sampled emit time (map_task.cpp).
class HashCombineShards {
 public:
  /// Where a flush sends the combined entries, in (partition, key) order.
  class FlushTarget {
   public:
    virtual ~FlushTarget() = default;
    virtual void put(std::uint32_t partition, std::string_view key,
                     std::string_view value) = 0;
    /// Ends one flush.
    virtual void seal() = 0;
  };

  /// Flushes write sorted runs, each named by `next_run_path`.
  /// `combiner` may be null (values chain per key instead of combining).
  /// `metrics` receives kSort/kCombine/kSpillWrite time and spill volume
  /// counters.
  HashCombineShards(const HashCombineConfig& config, Reducer* combiner,
                    std::function<std::string(std::uint64_t sequence)>
                        next_run_path,
                    TaskMetrics& metrics, obs::TraceBuffer* trace);
  /// Flushes go to `target` (not owned) and write no runs of their own.
  HashCombineShards(const HashCombineConfig& config, Reducer* combiner,
                    FlushTarget& target, TaskMetrics& metrics,
                    obs::TraceBuffer* trace);
  ~HashCombineShards();

  HashCombineShards(const HashCombineShards&) = delete;
  HashCombineShards& operator=(const HashCombineShards&) = delete;

  /// Makes `keys` ((partition, key) in rank order: FreqOpt's frozen set)
  /// the only entries the table takes, pinned with no value, while each
  /// shard's floor (entries, long keys and slots, as this pin grows them)
  /// stays within its watermark; a pin that does not fit is left out. A
  /// pinned table never grows. Call once, before any insert; without a
  /// call every key is taken.
  void pin(const std::vector<std::pair<std::uint32_t, std::string>>& keys);

  /// Routes one map-output record into its shard's table. Flushes the
  /// shard when it breaches the watermark. Returns false, and keeps
  /// nothing, when the table is pinned and (partition, key) is not.
  bool insert(std::uint32_t partition, std::string_view key,
              std::string_view value);

  /// Flushes all residue and returns every run written over the task's
  /// lifetime, in write order. The common no-pressure case produces
  /// exactly one run: all shards' resident entries globally radix-sorted
  /// into a single file (no merge needed downstream).
  std::vector<io::SpillRunInfo> finish();

  /// Bytes the shards hold now (keys, values, entries and slots).
  std::size_t resident_bytes() const;

  const HashCombineStats& stats() const { return stats_; }

 private:
  class RunTarget;

  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Longest key and value an entry holds itself.
  static constexpr std::uint32_t kInlineBytes = 8;
  /// Entry::value_size when the value lives in value heap blocks.
  static constexpr std::uint32_t kHeapValue = 0xfffffffeu;

  struct HeapValue {
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// One (partition, key). A key of up to 8 bytes lives in key_head
  /// alone; a longer one also lives whole in the shard's key store at
  /// key_offset. A key view read from key_head points into the entry
  /// table and dangles once the table grows.
  ///
  /// Value state, by value_size: kNil, no values; 0..8, one value inside
  /// the entry (value.bytes, capacity 8) that hits combine in place;
  /// kHeapValue, value heap blocks — one block at value.heap.head that
  /// hits combine in place (tail == kNil), or a chain head..tail that
  /// waits for the flush-time combine.
  struct Entry {
    char key_head[kInlineBytes];  // the key's first 8 bytes, zero-padded
    std::uint32_t key_size;
    std::uint32_t partition;
    std::uint32_t key_offset;  // keys over 8 bytes: where Shard::keys has it
    std::uint32_t value_size;
    union {
      char bytes[kInlineBytes];
      HeapValue heap;
    } value;
  };
  static_assert(sizeof(Entry) == 32);

  /// Probes compare tags here and load an entry only on a match.
  struct Slot {
    std::uint32_t tag;    // high 32 bits of the slot hash
    std::uint32_t entry;  // entry index + 1; 0 = empty
  };
  static_assert(sizeof(Slot) == 8);

  struct Shard {
    std::vector<Slot> slots;
    std::vector<Entry> entries;
    std::vector<char> keys;    // keys over 8 bytes, back to back
    std::vector<char> values;  // value blocks (offset-addressed)
  };

  std::uint32_t shard_of(std::uint64_t key_hash) const;
  /// The entry of (partition, key); when absent, a new one with no value
  /// if `add` (the slot array must have room), else null.
  Entry* lookup(Shard& shard, std::uint64_t key_hash, std::uint32_t partition,
                std::string_view key, bool add);
  /// Runs the combiner over the entry's values (then `incoming`, when
  /// given) and stores the result by the in-place-or-chain rule.
  void combine(Shard& shard, Entry& entry,
               const std::string_view* incoming);
  /// Makes `value` the entry's only value: inside the entry when it fits,
  /// else in a fresh block (with growth slack when `slack`).
  void set_value(Shard& shard, Entry& entry, std::string_view value,
                 bool slack);
  /// Chains `value` behind the entry's values, first moving an inline
  /// value into a block of its own.
  void append_value(Shard& shard, Entry& entry, std::string_view value);
  static std::string_view key_of(const Shard& shard, const Entry& entry);

  std::uint32_t alloc_block(Shard& shard, std::string_view value,
                            bool slack);
  std::size_t shard_bytes(const Shard& shard) const;
  /// The slot count one more entry in `shard` needs: its own, or more.
  static std::size_t slots_needed(const Shard& shard);
  void grow_slots(Shard& shard, std::size_t size);

  /// Combines, sorts and hands shards [first, last) to the target, then
  /// resets them (a pinned table's to its floor).
  void flush(std::size_t first, std::size_t last);

  HashCombineConfig config_;
  std::size_t watermark_;
  Reducer* combiner_;
  std::function<std::string(std::uint64_t)> next_run_path_;
  TaskMetrics& metrics_;
  obs::TraceBuffer* trace_;
  std::unique_ptr<RunTarget> run_target_;  // null with an injected target
  FlushTarget& target_;
  bool pinned_ = false;  // false = every key

  std::vector<Shard> shards_;
  std::vector<io::SpillRunInfo> runs_;
  std::uint64_t run_sequence_ = 0;
  HashCombineStats stats_;
  std::string combine_scratch_;  // staging for combiner output (reused)
  std::vector<RecordRef> flush_refs_;  // one per flushed entry (reused)
  bool finished_ = false;
};

}  // namespace textmr::mr
