#include "freqbuf/controller.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "io/dfs.hpp"

namespace textmr::freqbuf {

namespace {

void append_u32(std::string& out, std::uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  out.append(buf, 4);
}

bool read_u32(std::string_view& in, std::uint32_t& value) {
  if (in.size() < 4) return false;
  value = static_cast<std::uint8_t>(in[0]) |
          (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[1])) << 8) |
          (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[2])) << 16) |
          (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[3])) << 24);
  in.remove_prefix(4);
  return true;
}

constexpr char kKeyCacheMagic[4] = {'T', 'M', 'R', 'K'};

}  // namespace

std::string NodeKeyCache::encode_keys(const std::vector<std::string>& keys) {
  std::string out(kKeyCacheMagic, sizeof(kKeyCacheMagic));
  append_u32(out, static_cast<std::uint32_t>(keys.size()));
  for (const std::string& key : keys) {
    append_u32(out, static_cast<std::uint32_t>(key.size()));
    out.append(key);
  }
  return out;
}

std::optional<std::vector<std::string>> NodeKeyCache::decode_keys(
    std::string_view bytes) {
  if (bytes.size() < sizeof(kKeyCacheMagic) ||
      std::memcmp(bytes.data(), kKeyCacheMagic, sizeof(kKeyCacheMagic)) != 0) {
    return std::nullopt;
  }
  bytes.remove_prefix(sizeof(kKeyCacheMagic));
  std::uint32_t count = 0;
  // Each key takes at least its 4-byte length; never reserve more keys.
  if (!read_u32(bytes, count) || count > bytes.size() / 4) return std::nullopt;
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    if (!read_u32(bytes, len) || bytes.size() < len) return std::nullopt;
    keys.emplace_back(bytes.substr(0, len));
    bytes.remove_prefix(len);
  }
  if (!bytes.empty()) return std::nullopt;
  return keys;
}

void NodeKeyCache::put(std::vector<std::string> keys) {
  textmr::MutexLock lock(mu_);
  if (keys_.has_value()) return;
  keys_ = std::move(keys);
  if (file_.empty()) return;
  // Persist the winning set so a replacement worker process for this node
  // skips profiling (DESIGN.md §10). tmp+rename means a concurrent reader
  // sees either nothing or a complete file; a write failure only costs
  // the optimization, so it is logged rather than propagated.
  try {
    io::atomic_write_file(file_, encode_keys(*keys_));
  } catch (const IoError& err) {
    TEXTMR_LOG(kWarn) << "node key cache write failed: " << err.what();
  }
}

void NodeKeyCache::attach_file(std::filesystem::path path) {
  textmr::MutexLock lock(mu_);
  file_ = std::move(path);
  if (keys_.has_value()) return;
  std::ifstream in(file_, std::ios::binary);
  if (!in) return;  // no prior worker persisted a set
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  if (auto keys = decode_keys(bytes); keys.has_value()) {
    keys_ = std::move(*keys);
  } else {
    TEXTMR_LOG(kWarn) << "ignoring corrupt node key cache " << file_.string();
  }
}

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
  if (!table_.has_combiner()) {
    // Without a combiner the table could only delay data, not shrink it
    // (pure overhead); keep the profiling cost honest but pin nothing,
    // matching the paper's ~100% runtime for AccessLogJoin (Table III).
    keys.clear();
  }
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
