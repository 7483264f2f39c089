#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mr/metrics.hpp"
#include "mr/types.hpp"

namespace textmr::freqbuf {

/// The in-memory hash table of frequent keys (paper §III-A, Fig. 4).
///
/// Tuples whose key is in the frequent set are buffered here instead of
/// entering the sort-spill path. When one key's buffered values exceed a
/// per-key space limit, the user's combine() is applied to collapse them
/// (usually to a single much smaller tuple). If even after combining the
/// table is over its total memory budget, the aggregated record overflows
/// to the standard dataflow via the spill sink. At end of input `flush()`
/// combines every resident key once more and emits the results through
/// the standard dataflow, preserving the sorted-run invariants downstream.
///
/// Without a combiner the table still absorbs duplicates into per-key
/// buffers but can only delay (not shrink) the data; jobs without a
/// combiner gain nothing from frequency-buffering, exactly as in the
/// paper.
class FrequentKeyTable {
 public:
  struct Options {
    std::uint64_t budget_bytes = 1 << 20;      // total buffered-value budget
    std::uint64_t per_key_limit_bytes = 4096;  // combine trigger per key
  };

  /// `combiner` may be null. `spill_sink` receives overflow / flush
  /// records and must route them into the normal spill path. `metrics`
  /// receives kCombine time and the freq_* counters. `sampler` (optional,
  /// the map thread's) limits fast-path timing to its timed lines;
  /// without one every offer is timed into `metrics`.
  FrequentKeyTable(std::vector<std::string> frequent_keys, Options options,
                   mr::Reducer* combiner, mr::EmitSink& spill_sink,
                   mr::TaskMetrics& metrics, mr::OpSampler* sampler = nullptr);

  /// Offers one tuple; returns true if it was absorbed (key is frequent),
  /// false if the caller must send it down the standard path.
  bool offer(std::string_view key, std::string_view value);

  /// Combines and emits everything still resident. Idempotent.
  void flush();

  std::size_t num_keys() const { return table_.size(); }
  std::uint64_t buffered_bytes() const { return buffered_bytes_; }

  /// The combine trigger actually in effect: the configured per-key limit
  /// capped at each key's fair share of the budget (>= 64 bytes).
  std::uint64_t effective_per_key_limit() const { return per_key_limit_; }

 private:
  /// Buffered values are stored length-prefixed in one contiguous buffer
  /// (not a vector<string>): absorbing a tuple is then a single amortized
  /// append, which keeps the table's per-hit cost far below the sort +
  /// serialize cost it saves on the spill path.
  struct Entry {
    std::string buffer;          // length-prefixed concatenated values
    std::uint64_t count = 0;     // number of buffered values
    std::uint64_t bytes = 0;     // payload bytes (excluding prefixes)
  };

  /// Applies the combiner to an entry's buffered values in place.
  void combine_entry(std::string_view key, Entry& entry);

  /// Emits an entry's buffered values through the spill sink and empties it.
  void evict_entry(std::string_view key, Entry& entry);

  struct ShHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct ShEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  Options options_;
  std::uint64_t per_key_limit_ = 0;
  mr::Reducer* combiner_;
  mr::EmitSink& spill_sink_;
  mr::TaskMetrics& metrics_;
  mr::OpSampler* sampler_;
  std::unordered_map<std::string, Entry, ShHash, ShEq> table_;
  std::uint64_t buffered_bytes_ = 0;
  // Recycled combiner-output buffer; swapped with the combined entry's
  // buffer each combine_entry so neither side reallocates in steady state.
  std::string combine_scratch_;
};

}  // namespace textmr::freqbuf
