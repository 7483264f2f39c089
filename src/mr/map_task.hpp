#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "freqbuf/controller.hpp"
#include "io/line_reader.hpp"
#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"

namespace textmr::mr {

/// Everything a single map task needs. The engine builds one of these per
/// input split.
struct MapTaskConfig {
  std::uint32_t task_id = 0;
  /// Execution attempt of this task (0-based). Every scratch file the
  /// attempt writes is prefixed with map_attempt_prefix(task_id, attempt),
  /// so a retry never reads — and the engine can cleanly delete — a dead
  /// attempt's runs.
  std::uint32_t attempt = 0;
  io::InputSplit split;
  /// Partition count the task spills (the job's num_reducers).
  std::uint32_t num_partitions = 1;

  MapperFactory mapper;
  ReducerFactory combiner;  // may be null

  std::size_t spill_buffer_bytes = 16u << 20;

  /// Map-side combine strategy (DESIGN.md §15). kSort runs the classic
  /// ring/sort/spill pipeline below; kHash combines on insert into
  /// per-task shard hash tables on the map thread itself (no support
  /// thread, no ring) and radix-sorts at flush time. The two modes
  /// produce byte-identical task output. The hash_combine_* knobs shape
  /// the combine table of either mode: hash mode's, and FreqOpt's.
  CombineMode combine_mode = CombineMode::kSort;
  std::uint32_t hash_combine_shards = 8;
  /// Per-shard resident-byte watermark; 0 derives it from the memory
  /// budget (spill_buffer_bytes, which the hash tables inherit).
  std::size_t hash_combine_watermark_bytes = 0;
  std::filesystem::path scratch_dir;

  /// Sort mode's spill threshold (JobSpec::spill_threshold): fixed, or
  /// under the spill-matcher the first region's, after which each
  /// consumed spill sets the next by spillmatch::next_threshold.
  double spill_threshold = 0.8;
  bool use_spill_matcher = false;

  /// Frequency-buffering (sort mode only); `freqbuf.enabled` gates it,
  /// and a task without a combiner skips it. When it runs, the engine has already carved `freq_table_budget_bytes`
  /// out of the memory budget (spill_buffer_bytes excludes it).
  freqbuf::FreqBufConfig freqbuf;
  std::uint64_t freq_table_budget_bytes = 0;
  freqbuf::NodeKeyCache* node_cache = nullptr;  // may be null

  bool keep_spill_runs = false;  // keep intermediate spill files on disk

  /// When non-null the task registers per-thread trace rings (map thread,
  /// support thread, spill buffer) and records lifecycle events.
  obs::TraceCollector* trace = nullptr;
};

/// Result of one map task: its merged, partition-indexed output run plus
/// both threads' metrics.
struct MapTaskResult {
  io::SpillRunInfo output;
  TaskMetrics map_thread;      // includes Op::kMapIdle
  TaskMetrics support_thread;  // includes Op::kSupportIdle
  Counters counters;           // user counters from mapper + combiners
  std::uint64_t wall_ns = 0;   // task wall time (map phase incl. merge)
  std::uint64_t pipeline_wall_ns = 0;  // wall time of the produce/consume pipeline
  std::uint64_t spills = 0;
  double final_spill_threshold = 0.8;
  freqbuf::FreqBufferController::Stage freq_stage_at_end =
      freqbuf::FreqBufferController::Stage::kPreProfile;
  double freq_sampling_fraction = 0.0;
};

/// Why frequency-buffering and hash mode are exclusive: hash mode's table
/// already admits every key, so a frequent set could only shrink what it
/// combines. validate_job and run_map_task throw it as a ConfigError.
inline constexpr char kFreqWithHashError[] =
    "freqbuf.enabled cannot be combined with combine_mode kHash: "
    "hash-combine already admits every key to its combine table";

/// Scratch-file name prefix for one (task, attempt) pair — e.g.
/// "map3_a1_". Shared by the task (file creation) and the engine
/// (failed-attempt cleanup by prefix scan).
std::string map_attempt_prefix(std::uint32_t task_id, std::uint32_t attempt);

/// Runs one map task: map thread (caller's thread) + one support thread,
/// exactly Hadoop's 1-map 1-support structure that the paper instruments
/// (§II-C2) and optimizes (§III, §IV).
MapTaskResult run_map_task(const MapTaskConfig& config);

}  // namespace textmr::mr
