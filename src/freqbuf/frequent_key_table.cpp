#include "freqbuf/frequent_key_table.hpp"

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/varint.hpp"

namespace textmr::freqbuf {
namespace {

/// Streams the length-prefixed values of an entry buffer.
class BufferValueStream final : public mr::ValueStream {
 public:
  explicit BufferValueStream(std::string_view buffer) : buffer_(buffer) {}

  std::optional<std::string_view> next() override {
    if (pos_ >= buffer_.size()) return std::nullopt;
    return get_length_prefixed(buffer_, pos_);
  }

 private:
  std::string_view buffer_;
  std::size_t pos_ = 0;
};

/// Captures combiner output values into a caller-owned buffer, asserting
/// the key-preserving contract. The caller provides the buffer so its
/// capacity can be recycled across combines (no per-combine allocation).
class CaptureSink final : public mr::EmitSink {
 public:
  CaptureSink(std::string_view expected_key, std::string& out)
      : buffer(out), expected_key_(expected_key) {}

  void emit(std::string_view key, std::string_view value) override {
    TEXTMR_CHECK(key == expected_key_,
                 "combiner must be key-preserving (frequency-buffering)");
    put_length_prefixed(buffer, value);
    ++count;
    bytes += value.size();
  }

  std::string& buffer;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;

 private:
  std::string_view expected_key_;
};

}  // namespace

FrequentKeyTable::FrequentKeyTable(std::vector<std::string> frequent_keys,
                                   Options options, mr::Reducer* combiner,
                                   mr::EmitSink& spill_sink,
                                   mr::TaskMetrics& metrics,
                                   mr::OpSampler* sampler)
    : options_(options),
      combiner_(combiner),
      spill_sink_(spill_sink),
      metrics_(metrics),
      sampler_(sampler) {
  table_.reserve(frequent_keys.size());
  for (auto& key : frequent_keys) {
    table_.emplace(std::move(key), Entry{});
  }
  // Effective per-key combine trigger: no single key may claim more than
  // its fair share of the budget (otherwise k keys at the configured
  // limit overshoot the budget and every hit churns through the
  // combine/evict slow path). Floor of 64 bytes keeps combining batchy.
  if (!table_.empty()) {
    const std::uint64_t fair_share =
        std::max<std::uint64_t>(64, options_.budget_bytes / table_.size());
    per_key_limit_ = std::min(options_.per_key_limit_bytes, fair_share);
  } else {
    per_key_limit_ = options_.per_key_limit_bytes;
  }
}

bool FrequentKeyTable::offer(std::string_view key, std::string_view value) {
  // The fast path (lookup + append) is timed to kFreqTable on the map
  // thread's timed lines only (mr::OpSampler). The slow paths below are
  // outside that interval: combines time themselves exactly to kCombine
  // and evictions are emits, so no interval is counted twice.
  const bool timed = mr::timing(sampler_);
  const std::uint64_t t0 = timed ? monotonic_ns() : 0;
  auto it = table_.find(key);
  if (it == table_.end()) {
    if (timed) {
      mr::add_timed(sampler_, metrics_, mr::Op::kFreqTable,
                    monotonic_ns() - t0);
    }
    return false;
  }

  Entry& entry = it->second;
  put_length_prefixed(entry.buffer, value);
  entry.count += 1;
  entry.bytes += value.size();
  buffered_bytes_ += value.size();
  metrics_.freq_hits += 1;
  if (timed) {
    mr::add_timed(sampler_, metrics_, mr::Op::kFreqTable, monotonic_ns() - t0);
  }

  if (entry.bytes > per_key_limit_) {
    if (combiner_ != nullptr) {
      combine_entry(it->first, entry);
      if (entry.bytes > per_key_limit_ ||
          buffered_bytes_ > options_.budget_bytes) {
        // "In the case where there is not enough space to store the
        // aggregated record, it is written to disk using the original
        // dataflow" (§III-A). This also bounds the work per hit for
        // storage-intensive combiners (InvertedIndex) whose aggregates
        // never shrink below the limit — without the eviction, every
        // subsequent hit would re-combine the whole aggregate.
        evict_entry(it->first, entry);
      }
    } else {
      evict_entry(it->first, entry);
    }
  } else if (buffered_bytes_ > options_.budget_bytes) {
    // Total budget exceeded by growth of this key: combine it first if
    // possible, evict if that is not enough.
    if (combiner_ != nullptr) combine_entry(it->first, entry);
    if (buffered_bytes_ > options_.budget_bytes) evict_entry(it->first, entry);
  }
  return true;
}

void FrequentKeyTable::combine_entry(std::string_view key, Entry& entry) {
  if (entry.count <= 1) return;
  mr::ScopedTimer timer(metrics_, mr::Op::kCombine);
  BufferValueStream stream(entry.buffer);
  combine_scratch_.clear();  // keeps capacity from previous combines
  CaptureSink capture(key, combine_scratch_);
  combiner_->reduce(key, stream, capture);
  buffered_bytes_ -= entry.bytes;
  // Swap, don't move: the entry's old buffer becomes next combine's
  // scratch, so steady-state combining allocates nothing.
  entry.buffer.swap(combine_scratch_);
  entry.count = capture.count;
  entry.bytes = capture.bytes;
  buffered_bytes_ += entry.bytes;
}

void FrequentKeyTable::evict_entry(std::string_view key, Entry& entry) {
  BufferValueStream stream(entry.buffer);
  while (auto value = stream.next()) {
    spill_sink_.emit(key, *value);
    metrics_.freq_flushes += 1;
  }
  buffered_bytes_ -= entry.bytes;
  entry.buffer.clear();
  entry.buffer.shrink_to_fit();
  entry.count = 0;
  entry.bytes = 0;
}

void FrequentKeyTable::flush() {
  for (auto& [key, entry] : table_) {
    if (entry.count == 0) continue;
    if (combiner_ != nullptr) combine_entry(key, entry);
    evict_entry(key, entry);
  }
}

}  // namespace textmr::freqbuf
