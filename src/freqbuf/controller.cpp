#include "freqbuf/controller.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace textmr::freqbuf {

FreqBufferController::FreqBufferController(
    const FreqBufConfig& config, mr::HashCombineShards& table,
    const mr::HashPartitioner& partitioner, mr::TaskMetrics& metrics,
    NodeKeyCache* node_cache, obs::TraceBuffer* trace, mr::OpSampler* sampler)
    : config_(config),
      table_(table),
      partitioner_(partitioner),
      metrics_(metrics),
      node_cache_(node_cache),
      trace_(trace),
      sampler_(sampler) {
  TEXTMR_CHECK(config.enabled, "controller built with freqbuf disabled");
  TEXTMR_CHECK(config.top_k >= 1, "freqbuf needs top_k >= 1");

  if (node_cache_ != nullptr) {
    if (auto cached = node_cache_->get(); cached.has_value()) {
      // A sibling task on this node already froze the set: skip straight
      // to the optimization stage (paper §III-B).
      obs::record_instant(trace_, "freq", "freq_cached_keys", "keys",
                          static_cast<double>(cached->size()));
      start_optimize(std::move(*cached));
      return;
    }
  }
  if (config_.sampling_fraction > 0.0) {
    // Fixed s: no pre-profiling step needed.
    effective_s_ = std::min(config_.sampling_fraction, 1.0);
    enter_profile_stage();
  }
  // Otherwise start in kPreProfile with the exact counter.
}

void FreqBufferController::set_progress(double fraction) {
  progress_ = std::clamp(fraction, 0.0, 1.0);
  switch (stage_) {
    case Stage::kPreProfile:
      if (progress_ >= kPreProfileFraction && records_seen_ > 0) {
        // Fit alpha from the exact pre-profile counts (paper §III-C).
        auto top = pre_counts_.top(pre_counts_.distinct());
        std::vector<std::uint64_t> freqs;
        freqs.reserve(top.size());
        for (const auto& [key, count] : top) freqs.push_back(count);
        fit_ = sketch::fit_zipf(freqs);

        // n: expected total intermediate records, extrapolated from the
        // records-per-progress rate seen so far. m: distinct keys,
        // linearly extrapolated (an upper-bound-ish heuristic; H_{m,a}
        // is only logarithmically sensitive to it for a ~ 1).
        const double n_estimate =
            static_cast<double>(records_seen_) / std::max(progress_, 1e-9);
        const double m_estimate =
            static_cast<double>(pre_counts_.distinct()) /
            std::max(progress_, 1e-9);
        effective_s_ = sketch::sampling_fraction(
            config_.top_k, fit_->alpha,
            static_cast<std::uint64_t>(std::max(1.0, m_estimate)),
            static_cast<std::uint64_t>(std::max(1.0, n_estimate)));
        // The pre-profiled records count toward the sample.
        effective_s_ = std::max(effective_s_, kPreProfileFraction);
        enter_profile_stage();
        // Seed the Space-Saving sketch with what the exact counter knows,
        // so the pre-profiled prefix is not wasted.
        for (const auto& [key, count] : top) {
          if (sketch_->size() < sketch_->capacity()) {
            for (std::uint64_t i = 0; i < count; ++i) sketch_->offer(key);
          }
        }
      }
      break;
    case Stage::kProfile:
      if (progress_ >= effective_s_) freeze_keys();
      break;
    case Stage::kOptimize:
      break;
  }
}

void FreqBufferController::enter_profile_stage() {
  // Space-Saving with 4 * top_k counters: a realistic budget that is below
  // the algorithm's exactness guarantee, as in §V-B1.
  sketch_ = std::make_unique<sketch::SpaceSaving>(config_.top_k * 4);
  stage_ = Stage::kProfile;
  obs::record_instant(trace_, "freq", "freq_profile_begin", "sampling_fraction",
                      effective_s_, "alpha",
                      fit_.has_value() ? fit_->alpha : 0.0);
}

void FreqBufferController::freeze_keys() {
  auto entries = sketch_->top(config_.top_k);
  std::vector<std::string> keys;
  keys.reserve(entries.size());
  for (auto& entry : entries) keys.push_back(std::move(entry.key));
  obs::record_instant(trace_, "freq", "freq_freeze", "keys",
                      static_cast<double>(keys.size()), "records_profiled",
                      static_cast<double>(records_seen_));
  if (node_cache_ != nullptr) node_cache_->put(keys);
  sketch_.reset();
  start_optimize(std::move(keys));
}

void FreqBufferController::start_optimize(std::vector<std::string> keys) {
  // In rank order, each under the partition the map sink routes it to.
  std::vector<std::pair<std::uint32_t, std::string>> pins;
  pins.reserve(keys.size());
  for (std::string& key : keys) {
    const std::uint32_t partition = partitioner_(key);
    pins.emplace_back(partition, std::move(key));
  }
  table_.pin(pins);
  stage_ = Stage::kOptimize;
}

bool FreqBufferController::offer(std::uint32_t partition, std::string_view key,
                                 std::string_view value) {
  ++records_seen_;
  const bool timed = mr::timing(sampler_);
  const std::uint64_t t0 = timed ? monotonic_ns() : 0;
  if (stage_ != Stage::kOptimize) {
    if (stage_ == Stage::kPreProfile) {
      pre_counts_.offer(key);
    } else {
      sketch_->offer(key);
    }
    if (timed) {
      mr::add_timed(sampler_, metrics_, mr::Op::kProfile, monotonic_ns() - t0);
    }
    return false;
  }
  // Sampled time-series of the table's occupancy and hit rate (one point
  // per 1024 records; a single branch when tracing is off).
  if (trace_ != nullptr && (records_seen_ & 1023u) == 0) {
    obs::record_counter(trace_, "freq", "freq_buffered_bytes",
                        static_cast<double>(table_.resident_bytes()));
    obs::record_counter(trace_, "freq", "freq_hit_rate",
                        static_cast<double>(metrics_.freq_hits) /
                            static_cast<double>(records_seen_));
  }
  const std::uint64_t flushes = table_.stats().flushes;
  const bool absorbed = table_.insert(partition, key, value);
  if (absorbed) metrics_.freq_hits += 1;
  // The table's time is kFreqTable, except on the rare insert that
  // flushes: a flush times its own combine and sort, and its ring puts
  // are emits, so no interval is counted twice.
  if (timed && table_.stats().flushes == flushes) {
    mr::add_timed(sampler_, metrics_, mr::Op::kFreqTable, monotonic_ns() - t0);
  }
  return absorbed;
}

void FreqBufferController::finish() {
  if (stage_ != Stage::kOptimize) {
    // Input ended before profiling completed (tiny split): freeze now so
    // the node cache is still populated for sibling tasks.
    if (stage_ == Stage::kPreProfile) {
      if (records_seen_ == 0) return;
      enter_profile_stage();
      for (const auto& [key, count] : pre_counts_.top(pre_counts_.distinct())) {
        for (std::uint64_t i = 0; i < count; ++i) sketch_->offer(key);
      }
    }
    freeze_keys();
  }
  obs::record_instant(trace_, "freq", "freq_flush", "buffered_bytes",
                      static_cast<double>(table_.resident_bytes()));
  table_.finish();
}

}  // namespace textmr::freqbuf
