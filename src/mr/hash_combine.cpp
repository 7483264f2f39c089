#include "mr/hash_combine.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stopwatch.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {
namespace {

// Value chain block layout inside Shard::values (offset-addressed so heap
// growth never invalidates a reference): [u32 next][u32 size][u32 cap]
// [cap bytes]. Offsets rather than pointers are the point — the decoder-
// bounds and view-escape rules in tools/check treat pointers held across
// arena growth as errors (see tools/check/corpus/hash_combine.cpp).
constexpr std::size_t kBlockHeader = 12;

inline std::uint32_t load_u32(const std::vector<char>& heap,
                              std::size_t offset) {
  TEXTMR_CHECK(offset + sizeof(std::uint32_t) <= heap.size(),
               "value-heap offset out of bounds");
  std::uint32_t v;
  std::memcpy(&v, heap.data() + offset, sizeof(v));
  return v;
}

inline void store_u32(std::vector<char>& heap, std::size_t offset,
                      std::uint32_t v) {
  TEXTMR_CHECK(offset + sizeof(v) <= heap.size(),
               "value-heap offset out of bounds");
  std::memcpy(heap.data() + offset, &v, sizeof(v));
}

inline std::string_view block_value(const std::vector<char>& heap,
                                    std::uint32_t offset) {
  const std::uint32_t size = load_u32(heap, offset + 4);
  TEXTMR_CHECK(offset + kBlockHeader + size <= heap.size(),
               "value-heap block overruns the heap");
  return {heap.data() + offset + kBlockHeader, size};
}

}  // namespace

HashCombineShards::HashCombineShards(
    const HashCombineConfig& config, Reducer* combiner,
    std::function<std::string(std::uint64_t)> next_run_path,
    TaskMetrics& metrics, obs::TraceBuffer* trace)
    : config_(config),
      combiner_(combiner),
      next_run_path_(std::move(next_run_path)),
      metrics_(metrics),
      trace_(trace) {
  TEXTMR_CHECK(config_.num_shards >= 1 && config_.num_shards <= 64,
               "hash-combine shard count out of range");
  watermark_ = config_.watermark_bytes != 0
                   ? config_.watermark_bytes
                   : std::max<std::size_t>(
                         32u << 10,
                         config_.memory_budget_bytes / config_.num_shards);
  shards_.resize(config_.num_shards);
  for (Shard& shard : shards_) {
    shard.keys = RecordArena(config_.format);
    shard.spill = RecordArena(config_.format);
  }
}

HashCombineShards::~HashCombineShards() = default;

std::size_t HashCombineShards::resident_bytes(const Shard& shard) const {
  return shard.keys.payload_bytes() + shard.values.size() +
         shard.entries.capacity() * sizeof(Entry) +
         shard.slots.size() * sizeof(std::uint32_t);
}

std::uint32_t HashCombineShards::alloc_block(Shard& shard,
                                             std::string_view value) {
  // Slack so counter-style combined values can grow a few digits without
  // abandoning the block.
  const std::size_t cap = value.size() + (value.size() >> 1) + 8;
  const std::size_t offset = shard.values.size();
  TEXTMR_CHECK(offset + kBlockHeader + cap < kNil,
               "hash-combine shard value heap overflow");
  shard.values.resize(offset + kBlockHeader + cap);
  store_u32(shard.values, offset, kNil);
  store_u32(shard.values, offset + 4,
            static_cast<std::uint32_t>(value.size()));
  store_u32(shard.values, offset + 8, static_cast<std::uint32_t>(cap));
  std::memcpy(shard.values.data() + offset + kBlockHeader, value.data(),
              value.size());
  return static_cast<std::uint32_t>(offset);
}

void HashCombineShards::grow_slots(Shard& shard) {
  const std::size_t size =
      shard.slots.empty() ? 64 : shard.slots.size() * 2;
  shard.slots.assign(size, 0);
  const std::uint64_t mask = size - 1;
  for (std::size_t e = 0; e < shard.entries.size(); ++e) {
    std::uint64_t j = shard.entries[e].hash & mask;
    while (shard.slots[j] != 0) j = (j + 1) & mask;
    shard.slots[j] = static_cast<std::uint32_t>(e + 1);
  }
}

namespace {

/// ValueStream over an entry's chain followed by the incoming value.
/// Chain values are copied into a reused scratch before being handed out:
/// a combiner may emit() between next() calls, and the emit path can grow
/// or overwrite the very heap these blocks live in — an offset survives
/// that, a view into the heap does not.
class ChainValueStream final : public ValueStream {
 public:
  ChainValueStream(const std::vector<char>& heap, std::uint32_t head,
                   std::string_view incoming, std::uint32_t nil)
      : heap_(heap), cursor_(head), incoming_(incoming), nil_(nil) {}

  std::optional<std::string_view> next() override {
    if (cursor_ != nil_) {
      scratch_.assign(block_value(heap_, cursor_));
      cursor_ = load_u32(heap_, cursor_);
      return std::string_view(scratch_);
    }
    if (!incoming_consumed_) {
      incoming_consumed_ = true;
      return incoming_;
    }
    return std::nullopt;
  }

 private:
  const std::vector<char>& heap_;
  std::uint32_t cursor_;
  std::string_view incoming_;
  std::uint32_t nil_;
  bool incoming_consumed_ = false;
  std::string scratch_;
};

}  // namespace

void HashCombineShards::combine_into(Shard& shard, Entry& entry,
                                     std::string_view value) {
  ChainValueStream values(shard.values, entry.value_head, value, kNil);

  // Sink replacing the entry's chain with whatever the combiner emits.
  // Every emitted value is staged through combine_scratch_ first: the
  // combiner may hand us a view into the chain it just read, and both the
  // in-place overwrite and a heap-growing block allocation would clobber
  // or move those bytes mid-copy.
  class ReplaceSink final : public EmitSink {
   public:
    ReplaceSink(HashCombineShards& table, Shard& shard, Entry& entry,
                std::string_view expected_key)
        : table_(table), shard_(shard), entry_(entry),
          expected_key_(expected_key) {}

    void emit(std::string_view key, std::string_view value) override {
      TEXTMR_CHECK(key == expected_key_,
                   "combiner must be key-preserving (hash-combine path)");
      std::string& scratch = table_.combine_scratch_;
      scratch.assign(value.data(), value.size());
      if (first_) {
        first_ = false;
        const std::uint32_t head = entry_.value_head;
        if (head != kNil &&
            load_u32(shard_.values, head + 8) >= scratch.size()) {
          // Overwrite in place; the old chain tail (if any) becomes heap
          // garbage until the next flush reclaims the shard.
          store_u32(shard_.values, head,
                    kNil);
          store_u32(shard_.values, head + 4,
                    static_cast<std::uint32_t>(scratch.size()));
          std::memcpy(shard_.values.data() + head + kBlockHeader,
                      scratch.data(), scratch.size());
          entry_.value_tail = head;
        } else {
          entry_.value_head = entry_.value_tail =
              table_.alloc_block(shard_, scratch);
        }
      } else {
        const std::uint32_t block = table_.alloc_block(shard_, scratch);
        store_u32(shard_.values, entry_.value_tail, block);
        entry_.value_tail = block;
      }
    }

    bool emitted() const { return !first_; }

   private:
    HashCombineShards& table_;
    Shard& shard_;
    Entry& entry_;
    std::string_view expected_key_;
    bool first_ = true;
  };

  ReplaceSink sink(*this, shard, entry, entry.key_ref.key());
  combiner_->reduce(entry.key_ref.key(), values, sink);
  if (!sink.emitted()) {
    // A combiner may legitimately emit nothing for a key; the entry then
    // holds no values and the flush skips it (exactly what the sort path
    // does when a combined group produces no records).
    entry.value_head = entry.value_tail = kNil;
  }
}

void HashCombineShards::hash_insert(Shard& shard, std::uint32_t shard_index,
                                    std::uint32_t partition,
                                    std::string_view key,
                                    std::string_view value) {
  (void)shard_index;
  if (shard.entries.size() + 1 > shard.slots.size() * 7 / 10) {
    grow_slots(shard);
  }
  // The slot hash remixes the key hash with the partition: entries are
  // keyed by (partition, key) — the skew partitioner round-robins one
  // split key across partitions, and those streams must combine apart.
  const std::uint64_t slot_hash =
      mix64(hash_key(key) + partition * 0x9e3779b97f4a7c15ULL);
  const std::uint64_t prefix = key_prefix8(key);
  const std::uint64_t mask = shard.slots.size() - 1;
  std::uint64_t j = slot_hash & mask;
  while (true) {
    const std::uint32_t idx = shard.slots[j];
    if (idx == 0) break;
    Entry& entry = shard.entries[idx - 1];
    // Cheap rejects first (hash, partition, size, 8-byte prefix); the
    // full-key compare confirms — equal prefixes with differing tails
    // are a first-class case (tests/test_hash_combine.cpp).
    if (entry.hash == slot_hash && entry.key_ref.partition == partition &&
        entry.key_ref.key_size == key.size() &&
        entry.key_ref.key_prefix == prefix && entry.key_ref.key() == key) {
      ++shard.hits;
      ++stats_.hits;
      if (combiner_ != nullptr) {
        combine_into(shard, entry, value);
      } else {
        const std::uint32_t block = alloc_block(shard, value);
        if (entry.value_tail == kNil) {
          entry.value_head = entry.value_tail = block;
        } else {
          store_u32(shard.values, entry.value_tail, block);
          entry.value_tail = block;
        }
      }
      return;
    }
    j = (j + 1) & mask;
  }
  // New key: the frame lives in the shard's key arena (stable addresses);
  // the RecordRef is copied out *by value* — records() can reallocate on
  // the next append, so holding the returned reference is the lifetime
  // bug the static analyzer hunts (DESIGN.md §15).
  Entry entry;
  entry.key_ref = shard.keys.append(partition, key, std::string_view(""));
  entry.hash = slot_hash;
  entry.value_head = entry.value_tail = alloc_block(shard, value);
  shard.entries.push_back(entry);
  shard.slots[j] = static_cast<std::uint32_t>(shard.entries.size());
}

void HashCombineShards::demoted_insert(Shard& shard, std::uint32_t partition,
                                       std::string_view key,
                                       std::string_view value) {
  shard.spill.append(partition, key, value);
  if (shard.spill.payload_bytes() >= watermark_) {
    flush_demoted(shard, static_cast<std::uint32_t>(&shard - shards_.data()),
                  /*final=*/false);
  }
}

void HashCombineShards::insert(std::uint32_t partition, std::string_view key,
                               std::string_view value) {
  ++stats_.records;
  const std::uint64_t h = hash_key(key);
  // Shard from the high bits, slot index (inside hash_insert) from a
  // remix of the low: using the same bits for both would leave every
  // shard's table clustered in 1/P of its slots.
  const std::uint32_t shard_index =
      static_cast<std::uint32_t>((h >> 32) % config_.num_shards);
  Shard& shard = shards_[shard_index];
  ++shard.records;
  if (shard.demoted) {
    demoted_insert(shard, partition, key, value);
    return;
  }
  hash_insert(shard, shard_index, partition, key, value);
  if (resident_bytes(shard) > watermark_) {
    flush_shard(shard, shard_index);
  }
}

void HashCombineShards::radix_sort(std::vector<FlushItem>& items) {
  const std::size_t n = items.size();
  if (n < 2) return;
  flush_scratch_.resize(n);
  FlushItem* a = items.data();
  FlushItem* b = flush_scratch_.data();
  std::array<std::uint32_t, 257> count;

  // Stable LSD over the big-endian key prefix: least-significant byte
  // first, so the final pass (most-significant = first key byte) owns the
  // order and earlier passes break its ties.
  for (unsigned shift = 0; shift < 64; shift += 8) {
    count.fill(0);
    for (std::size_t i = 0; i < n; ++i) {
      ++count[((a[i].prefix >> shift) & 0xff) + 1];
    }
    // Short text keys zero-pad the low prefix bytes; skip uniform passes.
    bool uniform = false;
    for (std::size_t bucket = 1; bucket <= 256; ++bucket) {
      if (count[bucket] == n) {
        uniform = true;
        break;
      }
      if (count[bucket] != 0) break;
    }
    if (uniform) continue;
    for (std::size_t bucket = 1; bucket <= 256; ++bucket) {
      count[bucket] += count[bucket - 1];
    }
    for (std::size_t i = 0; i < n; ++i) {
      b[count[(a[i].prefix >> shift) & 0xff]++] = a[i];
    }
    std::swap(a, b);
  }

  // Most-significant pass: the partition (runs group by partition first).
  part_count_.assign(config_.num_partitions + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++part_count_[a[i].partition + 1];
  for (std::size_t p = 1; p <= config_.num_partitions; ++p) {
    part_count_[p] += part_count_[p - 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    b[part_count_[a[i].partition]++] = a[i];
  }
  std::swap(a, b);
  if (a != items.data()) {
    std::memcpy(items.data(), a, n * sizeof(FlushItem));
  }

  // Fallback comparison on (partition, prefix) ties: equal prefixes decide
  // nothing for >8-byte keys or zero-padded short keys (record_arena.hpp),
  // so those spans fall back to the full-key compare.
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && items[j].partition == items[i].partition &&
           items[j].prefix == items[i].prefix) {
      ++j;
    }
    if (j - i > 1) {
      std::sort(items.begin() + static_cast<std::ptrdiff_t>(i),
                items.begin() + static_cast<std::ptrdiff_t>(j),
                [this](const FlushItem& x, const FlushItem& y) {
                  return shards_[x.shard].entries[x.entry].key_ref.key() <
                         shards_[y.shard].entries[y.entry].key_ref.key();
                });
    }
    i = j;
  }
}

void HashCombineShards::write_sorted(const std::vector<FlushItem>& items,
                                     io::SpillRunWriter& writer) {
  for (const FlushItem& item : items) {
    const Shard& shard = shards_[item.shard];
    const Entry& entry = shard.entries[item.entry];
    std::uint32_t cursor = entry.value_head;
    while (cursor != kNil) {
      writer.append(item.partition, entry.key_ref.key(),
                    block_value(shard.values, cursor));
      cursor = load_u32(shard.values, cursor);
    }
  }
}

void HashCombineShards::flush_shard(Shard& shard, std::uint32_t shard_index) {
  const std::uint64_t t0 = monotonic_ns();
  obs::SpanTimer span(trace_, "spill", "hash_flush");
  span.arg("shard", static_cast<double>(shard_index));
  span.arg("entries", static_cast<double>(shard.entries.size()));

  flush_items_.clear();
  for (std::size_t e = 0; e < shard.entries.size(); ++e) {
    const Entry& entry = shard.entries[e];
    if (entry.value_head == kNil) continue;
    flush_items_.push_back(FlushItem{entry.key_ref.key_prefix,
                                     entry.key_ref.partition,
                                     static_cast<std::uint32_t>(e),
                                     shard_index});
  }
  radix_sort(flush_items_);
  const std::uint64_t sorted_ns = monotonic_ns();

  io::SpillRunWriter writer(next_run_path_(run_sequence_++),
                            config_.num_partitions, config_.format);
  write_sorted(flush_items_, writer);
  io::SpillRunInfo info = writer.finish();
  span.arg("records", static_cast<double>(info.records));

  metrics_.op_ns(Op::kSort) += sorted_ns - t0;
  metrics_.spilled_records += info.records;
  metrics_.spilled_bytes += info.bytes;
  metrics_.spill_count += 1;
  runs_.push_back(std::move(info));
  ++stats_.flushes;
  ++shard.flush_count;

  // Reset the shard but keep every allocation (arena chunks, entry and
  // slot capacity, the value heap) — refills are allocation-free.
  shard.entries.clear();
  shard.keys.clear();
  shard.values.clear();
  std::fill(shard.slots.begin(), shard.slots.end(), 0);
  metrics_.op_ns(Op::kSpillWrite) += monotonic_ns() - sorted_ns;

  if (shard.flush_count >= config_.demote_after_flushes) {
    // Persistent pressure: this keyspace does not fit the watermark, so
    // hashing only adds probe cost on top of the same spill volume. Fall
    // back to the proven sort-spill path for the rest of the task.
    shard.demoted = true;
    ++stats_.demotions;
    obs::record_instant(trace_, "spill", "hash_demote", "shard",
                        static_cast<double>(shard_index), "flushes",
                        static_cast<double>(shard.flush_count));
  }
}

void HashCombineShards::flush_demoted(Shard& shard, std::uint32_t shard_index,
                                      bool final) {
  if (shard.spill.size() == 0) return;
  // The demoted path *is* the existing sort path: build a Spill over the
  // arena's refs and reuse sort_and_spill (same sort, same combiner
  // grouping, same frame blits) so pressured shards write byte-identical
  // runs to what the ring pipeline would have produced.
  Spill spill;
  spill.records = shard.spill.records();
  spill.format = config_.format;
  spill.data_bytes = shard.spill.payload_bytes();
  spill.sequence = run_sequence_;
  spill.is_final = final;
  io::SpillRunInfo info =
      sort_and_spill(spill, combiner_, next_run_path_(run_sequence_++),
                     config_.num_partitions, config_.format, metrics_, trace_);
  runs_.push_back(std::move(info));
  shard.spill.clear();
  (void)shard_index;
}

std::vector<io::SpillRunInfo> HashCombineShards::finish() {
  TEXTMR_CHECK(!finished_, "hash-combine table finished twice");
  finished_ = true;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].demoted) {
      flush_demoted(shards_[s], static_cast<std::uint32_t>(s),
                    /*final=*/true);
    }
  }

  // Residue fast path: all live shards' entries globally sorted into ONE
  // run. In the common no-pressure case this is the task's only run, so
  // the final merge degenerates to a rename.
  flush_items_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t e = 0; e < shard.entries.size(); ++e) {
      const Entry& entry = shard.entries[e];
      if (entry.value_head == kNil) continue;
      flush_items_.push_back(FlushItem{entry.key_ref.key_prefix,
                                       entry.key_ref.partition,
                                       static_cast<std::uint32_t>(e),
                                       static_cast<std::uint32_t>(s)});
    }
  }
  if (!flush_items_.empty()) {
    const std::uint64_t t0 = monotonic_ns();
    obs::SpanTimer span(trace_, "spill", "hash_flush");
    span.arg("entries", static_cast<double>(flush_items_.size()));
    span.arg("final", 1.0);
    radix_sort(flush_items_);
    const std::uint64_t sorted_ns = monotonic_ns();
    io::SpillRunWriter writer(next_run_path_(run_sequence_++),
                              config_.num_partitions, config_.format);
    write_sorted(flush_items_, writer);
    io::SpillRunInfo info = writer.finish();
    span.arg("records", static_cast<double>(info.records));
    metrics_.op_ns(Op::kSort) += sorted_ns - t0;
    metrics_.op_ns(Op::kSpillWrite) += monotonic_ns() - sorted_ns;
    metrics_.spilled_records += info.records;
    metrics_.spilled_bytes += info.bytes;
    metrics_.spill_count += 1;
    runs_.push_back(std::move(info));
  }

  metrics_.hash_combine_hits += stats_.hits;
  metrics_.hash_combine_flushes += stats_.flushes;
  metrics_.hash_combine_demotions += stats_.demotions;
  return runs_;
}

}  // namespace textmr::mr
