#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "freqbuf/controller.hpp"
#include "io/line_reader.hpp"
#include "io/spill_file.hpp"
#include "mr/map_task.hpp"
#include "mr/metrics.hpp"
#include "mr/reduce_task.hpp"
#include "mr/types.hpp"
#include "obs/trace.hpp"
#include "spillmatch/spill_matcher.hpp"

namespace textmr::mr {

/// Complete description of one MapReduce job. This is the library's main
/// public configuration surface; see examples/quickstart.cpp.
struct JobSpec {
  std::string name = "job";

  /// Input splits (one map task each). Use io::make_splits to build
  /// them.
  std::vector<io::InputSplit> inputs;

  MapperFactory mapper;
  ReducerFactory reducer;
  /// Optional combiner (empty = none). Must be key-preserving and
  /// associative/commutative over values.
  ReducerFactory combiner;

  std::uint32_t num_reducers = 1;

  /// Total map-side memory budget per task. When frequency-buffering is
  /// enabled and the job has a combiner, `freqbuf.table_budget_fraction`
  /// of this is carved out for the frequent-key table and the spill
  /// buffer gets the rest, keeping the total fixed (paper §V-B2).
  std::size_t spill_buffer_bytes = 16u << 20;

  /// Spill threshold (Hadoop's io.sort.spill.percent, default 0.8). It
  /// holds for the whole task, or, under the spill-matcher, until the
  /// first spill is consumed.
  double spill_threshold = 0.8;

  /// Enable the spill-matcher: after each spill the threshold becomes
  /// spillmatch::next_threshold of that spill's times (paper §IV).
  bool use_spill_matcher = false;

  /// Map-side combine strategy (DESIGN.md §15). kHash replaces the
  /// ring/sort/spill pipeline with per-task shard hash tables that
  /// combine on insert and radix-sort at flush time; spill_threshold and
  /// use_spill_matcher are then inert (there is no ring to seal). Output
  /// stays byte-identical to kSort.
  CombineMode combine_mode = CombineMode::kSort;
  std::uint32_t hash_combine_shards = 8;
  /// Per-shard resident-byte watermark; 0 derives it from
  /// spill_buffer_bytes / hash_combine_shards (the tables inherit the
  /// ring's memory budget).
  std::size_t hash_combine_watermark_bytes = 0;
  /// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
  std::uint32_t hash_combine_demote_flushes = 4;

  /// Frequency-buffering configuration (paper §III).
  freqbuf::FreqBufConfig freqbuf;

  /// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
  io::SpillFormat spill_format = io::SpillFormat::kCompactVarint;

  /// Concurrent map tasks / reduce tasks. Each concurrent map worker
  /// models one node's map slot and gets its own NodeKeyCache.
  std::uint32_t map_parallelism = 1;
  std::uint32_t reduce_parallelism = 1;

  std::filesystem::path scratch_dir;  // required; intermediate runs live here
  std::filesystem::path output_dir;   // required; part-r-* files land here

  bool keep_intermediates = false;

  /// Task-level fault recovery (DESIGN.md §6): a map or reduce task that
  /// throws is cleaned up and re-executed on a fresh attempt id, up to
  /// this many attempts total; only then does the job abort (with
  /// TaskFailedError). 1 restores fail-fast behaviour.
  std::uint32_t max_task_attempts = 3;

  /// Base of the exponential backoff between attempts of one task:
  /// attempt k (1-based retry) sleeps base * 2^(k-1) milliseconds.
  /// 0 disables the sleep (tests).
  std::uint32_t retry_backoff_base_ms = 10;

  /// Structured tracing (see src/obs/trace.hpp). Off by default; when off
  /// every instrumentation hook is a single null-pointer check. When on,
  /// JobResult::trace carries the merged events for Chrome-trace export.
  obs::TraceConfig trace;
};

/// Everything a job run produced.
struct JobResult {
  std::vector<std::filesystem::path> outputs;  // part-r-00000 ... in order
  JobMetrics metrics;
  Counters counters;  // user counters aggregated over all tasks

  /// Per-task details (for the instrumentation figures).
  struct MapTaskSummary {
    std::uint64_t wall_ns = 0;
    std::uint64_t pipeline_wall_ns = 0;
    std::uint64_t map_idle_ns = 0;
    std::uint64_t support_idle_ns = 0;
    std::uint64_t spills = 0;
    double final_spill_threshold = 0.0;
    double freq_sampling_fraction = 0.0;
    /// Derived, not measured: the task wall less the map thread's ops
    /// (idle included), and the pipeline wall less the support thread's
    /// ops (0 without a support thread, as in hash mode).
    std::uint64_t map_unattributed_ns = 0;
    std::uint64_t support_unattributed_ns = 0;
  };
  std::vector<MapTaskSummary> map_tasks;

  /// Per-reduce-task details, in partition order (the partition-skew
  /// ratio and textmr-analyze's straggler table read these).
  struct ReduceTaskSummary {
    std::uint32_t partition = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t shuffled_bytes = 0;
    std::uint64_t output_bytes = 0;
  };
  std::vector<ReduceTaskSummary> reduce_tasks;

  /// Trace events collected when JobSpec::trace.enabled was set
  /// (trace.enabled is false otherwise). Export with
  /// obs::format_chrome_trace.
  obs::TraceData trace;
};

}  // namespace textmr::mr
