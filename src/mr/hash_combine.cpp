#include "mr/hash_combine.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/stopwatch.hpp"

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

/// The key's first 8 bytes, zero-padded: the entry's key_head.
inline std::uint64_t load_key_head(std::string_view key) {
  std::uint64_t head = 0;
  if (!key.empty()) {
    std::memcpy(&head, key.data(), std::min<std::size_t>(key.size(), 8));
  }
  return head;
}

/// The slot hash remixes the key hash with the partition: entries are
/// keyed by (partition, key), because the table takes each record's
/// partition from its caller and does not assume one partition per key.
/// Its high half is the tag; a probe starts at the tag's low bits.
inline std::uint32_t slot_tag(std::uint64_t key_hash,
                              std::uint32_t partition) {
  return static_cast<std::uint32_t>(
      mix64(key_hash + partition * 0x9e3779b97f4a7c15ULL) >> 32);
}

/// ValueStream over an entry's values — the one held inside the entry, or
/// its block chain — then `incoming` when given. Held values are copied
/// into a reused scratch before being handed out: a combiner may emit()
/// between next() calls, and the emit path can grow or overwrite the very
/// entry or heap these values live in — an offset survives that, a view
/// does not.
class ChainValueStream final : public ValueStream {
 public:
  ChainValueStream(const std::vector<char>& heap,
                   std::optional<std::string_view> held, std::uint32_t head,
                   const std::string_view* incoming, std::uint32_t nil)
      : heap_(heap), held_(held), cursor_(head), incoming_(incoming),
        nil_(nil) {}

  std::optional<std::string_view> next() override {
    if (held_.has_value()) {
      scratch_.assign(*held_);
      held_.reset();
      return std::string_view(scratch_);
    }
    if (cursor_ != nil_) {
      scratch_.assign(block_value(heap_, cursor_));
      cursor_ = load_u32(heap_, cursor_);
      return std::string_view(scratch_);
    }
    if (incoming_ != nullptr) {
      const std::string_view value = *incoming_;
      incoming_ = nullptr;
      return value;
    }
    return std::nullopt;
  }

 private:
  const std::vector<char>& heap_;
  std::optional<std::string_view> held_;
  std::uint32_t cursor_;
  const std::string_view* incoming_;
  std::uint32_t nil_;
  std::string scratch_;
};

}  // namespace

/// The default flush target: each flush becomes one sorted run file,
/// timed from its first record to its footer into kSpillWrite.
class HashCombineShards::RunTarget final : public FlushTarget {
 public:
  explicit RunTarget(HashCombineShards& table) : table_(table) {}

  void put(std::uint32_t partition, std::string_view key,
           std::string_view value) override {
    if (writer_ == nullptr) {
      start_ns_ = monotonic_ns();
      writer_ = std::make_unique<io::SpillRunWriter>(
          table_.next_run_path_(table_.run_sequence_++),
          table_.config_.num_partitions);
    }
    writer_->append(partition, key, value);
  }

  void seal() override {
    if (writer_ == nullptr) return;
    io::SpillRunInfo info = writer_->finish();
    writer_.reset();
    TaskMetrics& metrics = table_.metrics_;
    metrics.op_ns(Op::kSpillWrite) += monotonic_ns() - start_ns_;
    metrics.spilled_records += info.records;
    metrics.spilled_bytes += info.bytes;
    metrics.spill_count += 1;
    table_.runs_.push_back(std::move(info));
  }

 private:
  HashCombineShards& table_;
  std::unique_ptr<io::SpillRunWriter> writer_;
  std::uint64_t start_ns_ = 0;
};

namespace {

std::size_t derive_watermark(const HashCombineConfig& config) {
  TEXTMR_CHECK(config.num_shards >= 1 && config.num_shards <= 64,
               "hash-combine shard count out of range");
  return config.watermark_bytes != 0
             ? config.watermark_bytes
             : std::max<std::size_t>(
                   32u << 10, config.memory_budget_bytes / config.num_shards);
}

}  // namespace

HashCombineShards::HashCombineShards(
    const HashCombineConfig& config, Reducer* combiner,
    std::function<std::string(std::uint64_t)> next_run_path,
    TaskMetrics& metrics, obs::TraceBuffer* trace)
    : config_(config),
      watermark_(derive_watermark(config)),
      combiner_(combiner),
      next_run_path_(std::move(next_run_path)),
      metrics_(metrics),
      trace_(trace),
      run_target_(std::make_unique<RunTarget>(*this)),
      target_(*run_target_),
      shards_(config.num_shards) {}

HashCombineShards::HashCombineShards(const HashCombineConfig& config,
                                     Reducer* combiner, FlushTarget& target,
                                     TaskMetrics& metrics,
                                     obs::TraceBuffer* trace)
    : config_(config),
      watermark_(derive_watermark(config)),
      combiner_(combiner),
      metrics_(metrics),
      trace_(trace),
      target_(target),
      shards_(config.num_shards) {}

HashCombineShards::~HashCombineShards() = default;

std::uint32_t HashCombineShards::shard_of(std::uint64_t key_hash) const {
  // Shard from the high bits, slot index from a remix of the low: using
  // the same bits for both would leave every shard's table clustered in
  // 1/P of its slots.
  return static_cast<std::uint32_t>((key_hash >> 32) % config_.num_shards);
}

void HashCombineShards::pin(
    const std::vector<std::pair<std::uint32_t, std::string>>& keys) {
  TEXTMR_CHECK(!pinned_ && stats_.records == 0,
               "a hash-combine table is pinned once, before any insert");
  pinned_ = true;
  for (const auto& [partition, key] : keys) {
    const std::uint64_t h = hash_key(key);
    Shard& shard = shards_[shard_of(h)];
    const std::size_t slots = slots_needed(shard);
    const std::size_t floor =
        (shard.entries.size() + 1) * sizeof(Entry) + shard.keys.size() +
        (key.size() > kInlineBytes ? key.size() : 0) + slots * sizeof(Slot);
    if (floor > watermark_) continue;  // its records go to the ring
    if (slots != shard.slots.size()) grow_slots(shard, slots);
    lookup(shard, h, partition, key, /*add=*/true);
  }
  // The floor counts entry capacity: drop what push_back over-reserved.
  for (Shard& shard : shards_) shard.entries.shrink_to_fit();
}

std::size_t HashCombineShards::shard_bytes(const Shard& shard) const {
  return shard.keys.size() + shard.values.size() +
         shard.entries.capacity() * sizeof(Entry) +
         shard.slots.size() * sizeof(Slot);
}

std::size_t HashCombineShards::resident_bytes() const {
  std::size_t bytes = 0;
  for (const Shard& shard : shards_) bytes += shard_bytes(shard);
  return bytes;
}

std::uint32_t HashCombineShards::alloc_block(Shard& shard,
                                             std::string_view value,
                                             bool slack) {
  // Slack so counter-style combined values can grow a few digits without
  // abandoning the block; chained blocks are never rewritten.
  const std::size_t cap =
      slack ? value.size() + (value.size() >> 1) + 8 : value.size();
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

std::string_view HashCombineShards::key_of(const Shard& shard,
                                           const Entry& entry) {
  if (entry.key_size <= kInlineBytes) return {entry.key_head, entry.key_size};
  TEXTMR_CHECK(std::size_t{entry.key_offset} + entry.key_size <=
                   shard.keys.size(),
               "hash-combine key offset out of bounds");
  return {shard.keys.data() + entry.key_offset, entry.key_size};
}

void HashCombineShards::set_value(Shard& shard, Entry& entry,
                                  std::string_view value, bool slack) {
  if (value.size() <= kInlineBytes) {
    entry.value_size = static_cast<std::uint32_t>(value.size());
    if (!value.empty()) {
      std::memcpy(entry.value.bytes, value.data(), value.size());
    }
    return;
  }
  entry.value_size = kHeapValue;
  entry.value.heap = HeapValue{alloc_block(shard, value, slack), kNil};
}

void HashCombineShards::append_value(Shard& shard, Entry& entry,
                                     std::string_view value) {
  if (entry.value_size != kHeapValue) {
    // A chain starts in the heap: the held value moves to the first block.
    const std::uint32_t head = alloc_block(
        shard, std::string_view(entry.value.bytes, entry.value_size), false);
    entry.value_size = kHeapValue;
    entry.value.heap = HeapValue{head, kNil};
  }
  const std::uint32_t block = alloc_block(shard, value, false);
  HeapValue& heap = entry.value.heap;
  store_u32(shard.values, heap.tail == kNil ? heap.head : heap.tail, block);
  heap.tail = block;
}

std::size_t HashCombineShards::slots_needed(const Shard& shard) {
  const std::size_t size = shard.slots.size();
  if (shard.entries.size() + 1 <= size * 7 / 10) return size;
  return size == 0 ? 8 : size * 2;  // small: a FreqOpt shard pins a few
}

void HashCombineShards::grow_slots(Shard& shard, std::size_t size) {
  // A probe starts at the tag's low bits, so the tags alone rehash.
  std::vector<Slot> slots(size, Slot{0, 0});
  const std::uint64_t mask = size - 1;
  for (const Slot& slot : shard.slots) {
    if (slot.entry == 0) continue;
    std::uint64_t j = slot.tag & mask;
    while (slots[j].entry != 0) j = (j + 1) & mask;
    slots[j] = slot;
  }
  shard.slots = std::move(slots);
}

void HashCombineShards::combine(Shard& shard, Entry& entry,
                                const std::string_view* incoming) {
  std::optional<std::string_view> held;
  std::uint32_t head = kNil;
  if (entry.value_size == kHeapValue) {
    head = entry.value.heap.head;
  } else {
    held.emplace(entry.value.bytes, entry.value_size);
  }
  ChainValueStream values(shard.values, held, head, incoming, kNil);

  // Sink replacing the entry's values with whatever the combiner emits:
  // the first value overwrites the entry's own bytes or its head block
  // when it fits, anything else goes to fresh blocks and leaves the entry
  // chained. Every emitted value is staged through combine_scratch_
  // first: the combiner may hand us a view into the chain it just read,
  // and both the in-place overwrite and a heap-growing block allocation
  // would clobber or move those bytes mid-copy.
  class ResultSink final : public EmitSink {
   public:
    ResultSink(HashCombineShards& table, Shard& shard, Entry& entry,
               std::string_view expected_key)
        : table_(table), shard_(shard), entry_(entry),
          expected_key_(expected_key) {}

    void emit(std::string_view key, std::string_view value) override {
      TEXTMR_CHECK(key == expected_key_,
                   "combiner must be key-preserving (hash-combine path)");
      std::string& scratch = table_.combine_scratch_;
      scratch.assign(value.data(), value.size());
      if (!first_) {
        table_.append_value(shard_, entry_, scratch);
        return;
      }
      first_ = false;
      // Overwrite in place — inside the entry, or in a head block with
      // room; the rest of an old chain becomes heap garbage until the
      // next flush reclaims the shard.
      if (scratch.size() <= kInlineBytes) {
        table_.set_value(shard_, entry_, scratch, false);
        return;
      }
      if (entry_.value_size == kHeapValue &&
          load_u32(shard_.values, entry_.value.heap.head + 8) >=
              scratch.size()) {
        const std::uint32_t head = entry_.value.heap.head;
        store_u32(shard_.values, head, kNil);
        store_u32(shard_.values, head + 4,
                  static_cast<std::uint32_t>(scratch.size()));
        std::memcpy(shard_.values.data() + head + kBlockHeader,
                    scratch.data(), scratch.size());
        entry_.value.heap.tail = kNil;
      } else {
        // Outgrown: later values chain behind this one until the flush.
        const std::uint32_t block =
            table_.alloc_block(shard_, scratch, false);
        entry_.value_size = kHeapValue;
        entry_.value.heap = HeapValue{block, block};
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

  // The key's view outlives the combine: only the value heap and the
  // entry's value bytes change here, never the entry table or key store.
  const std::string_view key = key_of(shard, entry);
  ResultSink sink(*this, shard, entry, key);
  combiner_->reduce(key, values, sink);
  if (!sink.emitted()) {
    // A combiner may legitimately emit nothing for a key; the entry then
    // holds no values and the flush skips it (exactly what the sort path
    // does when a combined group produces no records).
    entry.value_size = kNil;
  }
}

HashCombineShards::Entry* HashCombineShards::lookup(Shard& shard,
                                                   std::uint64_t key_hash,
                                                   std::uint32_t partition,
                                                   std::string_view key,
                                                   bool add) {
  if (shard.slots.empty()) return nullptr;  // a pinned shard with no pins
  const std::uint32_t tag = slot_tag(key_hash, partition);
  const std::uint64_t head = load_key_head(key);
  const std::uint64_t mask = shard.slots.size() - 1;
  std::uint64_t j = tag & mask;
  for (;; j = (j + 1) & mask) {
    const Slot slot = shard.slots[j];
    if (slot.entry == 0) break;
    if (slot.tag != tag) continue;
    Entry& entry = shard.entries[slot.entry - 1];
    // The entry decides a key of up to 8 bytes alone; a longer one needs
    // its tail compared too — equal heads with differing tails, and a
    // zero pad against a real NUL, are first-class cases
    // (tests/test_hash_combine.cpp).
    std::uint64_t entry_head = 0;
    std::memcpy(&entry_head, entry.key_head, sizeof(entry_head));
    if (entry_head == head && entry.key_size == key.size() &&
        entry.partition == partition &&
        (key.size() <= kInlineBytes ||
         std::memcmp(shard.keys.data() + entry.key_offset + kInlineBytes,
                     key.data() + kInlineBytes,
                     key.size() - kInlineBytes) == 0)) {
      return &entry;
    }
  }
  if (!add) return nullptr;
  // New key. A long key goes whole to the shard's key store; the entry
  // keeps its offset, never a view — the next insert may reallocate the
  // store (the lifetime bug the static analyzer hunts, DESIGN.md §15).
  Entry entry{};
  std::memcpy(entry.key_head, &head, sizeof(head));
  entry.key_size = static_cast<std::uint32_t>(key.size());
  entry.partition = partition;
  entry.value_size = kNil;
  if (key.size() > kInlineBytes) {
    TEXTMR_CHECK(shard.keys.size() + key.size() < kNil,
                 "hash-combine shard key store overflow");
    entry.key_offset = static_cast<std::uint32_t>(shard.keys.size());
    shard.keys.insert(shard.keys.end(), key.begin(), key.end());
  }
  shard.entries.push_back(entry);
  shard.slots[j] = Slot{tag, static_cast<std::uint32_t>(shard.entries.size())};
  return &shard.entries.back();
}

bool HashCombineShards::insert(std::uint32_t partition, std::string_view key,
                               std::string_view value) {
  const std::uint64_t h = hash_key(key);
  const std::uint32_t shard_index = shard_of(h);
  Shard& shard = shards_[shard_index];
  if (!pinned_ && slots_needed(shard) != shard.slots.size()) {
    grow_slots(shard, slots_needed(shard));
  }
  Entry* entry = lookup(shard, h, partition, key, !pinned_);
  if (entry == nullptr) return false;
  ++stats_.records;
  if (entry->value_size == kNil) {
    // A new key's first value, or a pinned key's first since the flush.
    set_value(shard, *entry, value, combiner_ != nullptr);
  } else {
    ++stats_.hits;
    if (combiner_ != nullptr && (entry->value_size != kHeapValue ||
                                 entry->value.heap.tail == kNil)) {
      combine(shard, *entry, &value);
    } else {
      append_value(shard, *entry, value);
    }
  }
  if (shard_bytes(shard) > watermark_) {
    flush(shard_index, shard_index + 1);
    ++stats_.flushes;
    // So the table holds at most num_shards x watermark between inserts.
    TEXTMR_CHECK(shard_bytes(shard) <= watermark_,
                 "a flushed shard still exceeds its watermark");
  }
  return true;
}

void HashCombineShards::flush(std::size_t first, std::size_t last) {
  obs::SpanTimer span(trace_, "spill", "hash_flush");
  const std::uint64_t t0 = monotonic_ns();
  // A flush ref's offset names its entry: entry index x width + shard
  // index counted from `first`.
  const std::size_t width = last - first;
  auto entry_of = [&](const RecordRef& ref) -> std::pair<Shard&, Entry&> {
    Shard& shard = shards_[first + ref.offset % width];
    return {shard, shard.entries[ref.offset / width]};
  };
  flush_refs_.clear();
  for (std::size_t s = first; s < last; ++s) {
    Shard& shard = shards_[s];
    TEXTMR_CHECK(shard.entries.size() * width <= kNil,
                 "hash-combine flush outgrew u32 entry ids");
    for (std::size_t e = 0; e < shard.entries.size(); ++e) {
      Entry& entry = shard.entries[e];
      // The one combine a chain gets.
      if (combiner_ != nullptr && entry.value_size == kHeapValue &&
          entry.value.heap.tail != kNil) {
        combine(shard, entry, nullptr);
      }
      if (entry.value_size == kNil) continue;
      // The zero pad makes the head's prefix the key's own key_prefix8.
      flush_refs_.push_back(RecordRef{
          key_prefix8(std::string_view(entry.key_head, kInlineBytes)),
          static_cast<std::uint32_t>(e * width + (s - first)),
          entry.partition});
    }
  }
  const std::uint64_t combined_ns = monotonic_ns();
  sort_records(flush_refs_, [&](const RecordRef& ref) {
    const auto [shard, entry] = entry_of(ref);
    return key_of(shard, entry);
  });
  const std::uint64_t sorted_ns = monotonic_ns();
  metrics_.op_ns(Op::kCombine) += combined_ns - t0;
  metrics_.op_ns(Op::kSort) += sorted_ns - combined_ns;
  span.arg("entries", static_cast<double>(flush_refs_.size()));

  std::uint64_t records = 0;
  for (const RecordRef& ref : flush_refs_) {
    const auto [shard, entry] = entry_of(ref);
    const std::string_view key = key_of(shard, entry);
    if (entry.value_size != kHeapValue) {
      target_.put(ref.partition, key,
                  std::string_view(entry.value.bytes, entry.value_size));
      ++records;
      continue;
    }
    for (std::uint32_t cursor = entry.value.heap.head; cursor != kNil;
         cursor = load_u32(shard.values, cursor)) {
      target_.put(ref.partition, key, block_value(shard.values, cursor));
      ++records;
    }
  }
  span.arg("records", static_cast<double>(records));

  // A pinned shard keeps its floor (entries, key store, slots) and loses
  // its values. Any other is reset but keeps every allocation — refills
  // are allocation-free — unless the entry and slot capacity alone
  // outgrew half the watermark: kept, they would leave the shard
  // flushing on almost every insert.
  for (std::size_t s = first; s < last; ++s) {
    Shard& shard = shards_[s];
    shard.values.clear();
    if (pinned_) {
      for (Entry& entry : shard.entries) entry.value_size = kNil;
      continue;
    }
    shard.entries.clear();
    shard.keys.clear();
    if (shard_bytes(shard) > watermark_ / 2) {
      shard.entries = std::vector<Entry>();
      shard.slots = std::vector<Slot>();
    } else {
      std::fill(shard.slots.begin(), shard.slots.end(), Slot{0, 0});
    }
  }
  target_.seal();
}

std::vector<io::SpillRunInfo> HashCombineShards::finish() {
  TEXTMR_CHECK(!finished_, "hash-combine table finished twice");
  finished_ = true;
  // Residue: every shard's entries globally sorted into ONE flush. In the
  // common no-pressure case this is the task's only run, so the final
  // merge degenerates to a rename.
  flush(0, shards_.size());
  return runs_;
}

}  // namespace textmr::mr
