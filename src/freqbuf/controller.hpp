#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "mr/hash_combine.hpp"
#include "mr/metrics.hpp"
#include "mr/partitioner.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"
#include "sketch/exact_counter.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/zipf_estimator.hpp"

namespace textmr::freqbuf {

/// Configuration of frequency-buffering for a job (paper §III).
struct FreqBufConfig {
  bool enabled = false;

  /// Size of the frequent-key set (paper's k; 3000 for text apps,
  /// 10000 for the log apps in §V-B2).
  std::size_t top_k = 3000;

  /// Fraction of input records to profile before freezing the key set
  /// (paper's s). 0 enables the §III-C auto-tuner, which pre-profiles
  /// kPreProfileFraction of the records, fits a Zipf alpha and derives
  /// s from  n*s >= k^alpha * H_{m,alpha}.
  double sampling_fraction = 0.0;

  /// Fraction of the spill buffer's capacity handed to the frequent-key
  /// table ("we devoted 30% of the baseline's spill buffer", §V-B2).
  /// The engine shrinks the spill buffer accordingly, keeping the total
  /// memory fixed.
  double table_budget_fraction = 0.3;
};

/// Fraction of records the auto-tuner pre-profiles ("about 1%", §III-C).
inline constexpr double kPreProfileFraction = 0.01;

/// Per-node cache of the frozen frequent-key set. Shared by every map
/// task a worker ("node") runs, hence the lock: concurrent tasks race to
/// publish their frozen set and the first writer wins (paper §III-B).
///
/// In cluster mode the cache is additionally backed by a node-local file
/// (attach_file): the first frozen set is persisted via tmp+rename, and a
/// replacement worker process for the same node reloads it, so the top-k
/// set is still found only once per node across worker restarts
/// (DESIGN.md §10).
class NodeKeyCache {
 public:
  std::optional<std::vector<std::string>> get() const {
    textmr::MutexLock lock(mu_);
    return keys_;
  }

  /// First writer wins; later tasks keep the established set. With an
  /// attached file, the winning set is persisted exactly once.
  void put(std::vector<std::string> keys);

  /// Attaches the node-local cache file, loading a previously persisted
  /// set if one exists (a corrupt or unreadable file is treated as
  /// absent — the cache is an optimization, never a correctness
  /// dependency). Call before the first task runs.
  void attach_file(std::filesystem::path path);

  /// Serialized form of a key set (the cache-file format): used by the
  /// persistence path and by tests asserting file contents.
  static std::string encode_keys(const std::vector<std::string>& keys);
  static std::optional<std::vector<std::string>> decode_keys(
      std::string_view bytes);

 private:
  mutable textmr::Mutex mu_{textmr::LockRank::kFreqBuf,
                            "freqbuf.node_key_cache"};
  std::optional<std::vector<std::string>> keys_ TEXTMR_GUARDED_BY(mu_);
  std::filesystem::path file_ TEXTMR_GUARDED_BY(mu_);
};

/// Map-side frequency-buffering state machine. One instance per map task,
/// living on the map thread's emit path:
///
///   kPreProfile --(kPreProfileFraction reached)--> kProfile
///   kProfile    --(sampling fraction s reached)--> kOptimize
///
/// During the first two stages every record continues down the standard
/// spill path (offer() returns false) while being counted. At the freeze
/// the controller pins the top-k keys (paper §III-B) in the task's combine
/// table, each under its hash partition, and in kOptimize
/// offers every record to that table, which absorbs the pinned ones. With
/// a NodeKeyCache holding a frozen set (sibling tasks on this node,
/// §III-B: "our system finds the top-k frequent-key set just once for all
/// the tasks that run on a single node"), a task starts directly in
/// kOptimize.
class FreqBufferController {
 public:
  enum class Stage { kPreProfile, kProfile, kOptimize };

  /// `table` (not owned) is the combine table the frozen set is pinned
  /// in; a table without a combiner pins nothing. `partitioner` (not
  /// owned, the map task's) names each frozen key's partition. `trace`
  /// (optional, owned by the map thread) receives stage transitions and
  /// sampled occupancy / hit-rate counters. `sampler` (optional, the map
  /// thread's) limits profile and table timing to its timed lines;
  /// without one every offer is timed into `metrics`.
  FreqBufferController(const FreqBufConfig& config,
                       mr::HashCombineShards& table,
                       const mr::HashPartitioner& partitioner,
                       mr::TaskMetrics& metrics,
                       NodeKeyCache* node_cache = nullptr,
                       obs::TraceBuffer* trace = nullptr,
                       mr::OpSampler* sampler = nullptr);

  /// Must be called (cheaply) as input is consumed: fraction in [0,1] of
  /// the task's input processed so far. Drives stage transitions.
  void set_progress(double fraction);

  /// Routes one partitioned map-output tuple. Returns true if the table
  /// absorbed it.
  bool offer(std::uint32_t partition, std::string_view key,
             std::string_view value);

  /// Freezes the set if input ended first, then flushes the table. Call
  /// once at end of input.
  void finish();

  Stage stage() const { return stage_; }

  /// The sampling fraction in effect (fixed or auto-tuned); meaningful
  /// once the controller leaves kPreProfile.
  double effective_sampling_fraction() const { return effective_s_; }

  /// The auto-tuner's fitted Zipf parameter (nullopt for fixed s or
  /// before the fit happens).
  std::optional<sketch::ZipfFit> zipf_fit() const { return fit_; }

 private:
  void enter_profile_stage();
  void freeze_keys();
  void start_optimize(std::vector<std::string> keys);

  FreqBufConfig config_;
  mr::HashCombineShards& table_;
  const mr::HashPartitioner& partitioner_;
  mr::TaskMetrics& metrics_;
  NodeKeyCache* node_cache_;
  obs::TraceBuffer* trace_;
  mr::OpSampler* sampler_;

  Stage stage_ = Stage::kPreProfile;
  double progress_ = 0.0;
  double effective_s_ = 0.0;
  std::uint64_t records_seen_ = 0;

  sketch::ExactCounter pre_counts_;   // pre-profiling (exact over ~1%)
  std::optional<sketch::ZipfFit> fit_;
  std::unique_ptr<sketch::SpaceSaving> sketch_;
};

}  // namespace textmr::freqbuf
