#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"

namespace textmr::mr {

/// Fine-grained operation taxonomy, mirroring the paper's Table I
/// instrumentation of Hadoop. Everything except kMapUser / kCombine /
/// kReduceUser is pure abstraction cost.
enum class Op : std::size_t {
  kMapRead = 0,     // reading + splitting input records
  kMapUser,         // user map() code (excluding time inside emit())
  kEmit,            // serializing records into the spill buffer
  kProfile,         // frequency-buffering profiling overhead (sketch updates)
  kFreqTable,       // frequency-buffering hash-table path (hits + flushes)
  kSort,            // sorting spill regions
  kCombine,         // user combine() code (spill and freq-table paths)
  kSpillWrite,      // writing sorted spill runs to disk
  kMerge,           // map-side k-way merge (read + heap + write)
  kMergeCombine,    // user combine() code invoked from the merge path
  kShuffle,         // reduce-side fetch of map output partitions
  kReduceMerge,     // reduce-side merge/group of fetched runs
  kReduceUser,      // user reduce() code
  kOutputWrite,     // writing final output
  kMapIdle,         // map thread blocked on a full ring or the final drain
  kSupportIdle,     // support thread blocked waiting for a sealed spill
  kNumOps,
};

constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kNumOps);

const char* op_name(Op op);

/// True for operations that are user code rather than framework overhead.
constexpr bool is_user_code(Op op) {
  return op == Op::kMapUser || op == Op::kCombine ||
         op == Op::kMergeCombine || op == Op::kReduceUser;
}

/// Per-task (or per-thread) metrics. Owned by exactly one thread while a
/// task runs; merged without locks afterwards.
struct TaskMetrics {
  std::array<std::uint64_t, kNumOps> ns{};

  // Volume counters.
  std::uint64_t input_records = 0;
  std::uint64_t input_bytes = 0;
  std::uint64_t map_output_records = 0;   // records emitted by map()
  std::uint64_t map_output_bytes = 0;     // serialized bytes emitted by map()
  std::uint64_t freq_hits = 0;            // records absorbed by the freq table
  std::uint64_t freq_flushes = 0;         // records re-emitted by table flushes
  std::uint64_t hash_combine_hits = 0;     // probe hits in the hash-combine path
  std::uint64_t hash_combine_flushes = 0;  // watermark flushes of hash shards
  /// Always 0.
  /// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
  std::uint64_t hash_combine_demotions = 0;
  std::uint64_t spill_input_records = 0;  // records entering the spill buffer
  std::uint64_t spill_input_bytes = 0;    // bytes entering the spill buffer
  std::uint64_t spilled_records = 0;      // records written to spill runs
  std::uint64_t spilled_bytes = 0;
  std::uint64_t spill_count = 0;
  std::uint64_t merged_records = 0;       // records in the final map output
  std::uint64_t merged_bytes = 0;
  std::uint64_t shuffled_bytes = 0;       // bytes fetched by reduce tasks
  std::uint64_t shuffled_wire_bytes = 0;  // subset served over the network
  std::uint64_t reduce_input_records = 0;
  std::uint64_t reduce_groups = 0;
  std::uint64_t output_records = 0;
  std::uint64_t output_bytes = 0;

  std::uint64_t& op_ns(Op op) { return ns[static_cast<std::size_t>(op)]; }
  std::uint64_t op_ns(Op op) const { return ns[static_cast<std::size_t>(op)]; }

  TaskMetrics& operator+=(const TaskMetrics& other);

  /// Sum of all operation times — the paper's "serialized view" of work.
  std::uint64_t total_ns(bool include_idle = false) const;
  std::uint64_t user_ns() const;
  std::uint64_t abstraction_ns(bool include_idle = false) const;
};

/// One volume counter of TaskMetrics: its metrics-JSON key and its member.
struct VolumeCounter {
  const char* name;
  std::uint64_t TaskMetrics::*member;
};

/// Every volume counter, in declaration order. Summing, the cluster wire
/// codec and the metrics JSON all loop over this table, so a counter
/// cannot reach one of them and be forgotten by another.
inline constexpr VolumeCounter kVolumeCounters[] = {
    {"input_records", &TaskMetrics::input_records},
    {"input_bytes", &TaskMetrics::input_bytes},
    {"map_output_records", &TaskMetrics::map_output_records},
    {"map_output_bytes", &TaskMetrics::map_output_bytes},
    {"freq_hits", &TaskMetrics::freq_hits},
    {"freq_flushes", &TaskMetrics::freq_flushes},
    {"hash_combine_hits", &TaskMetrics::hash_combine_hits},
    {"hash_combine_flushes", &TaskMetrics::hash_combine_flushes},
    {"hash_combine_demotions", &TaskMetrics::hash_combine_demotions},
    {"spill_input_records", &TaskMetrics::spill_input_records},
    {"spill_input_bytes", &TaskMetrics::spill_input_bytes},
    {"spilled_records", &TaskMetrics::spilled_records},
    {"spilled_bytes", &TaskMetrics::spilled_bytes},
    {"spill_count", &TaskMetrics::spill_count},
    {"merged_records", &TaskMetrics::merged_records},
    {"merged_bytes", &TaskMetrics::merged_bytes},
    {"shuffled_bytes", &TaskMetrics::shuffled_bytes},
    {"shuffled_wire_bytes", &TaskMetrics::shuffled_wire_bytes},
    {"reduce_input_records", &TaskMetrics::reduce_input_records},
    {"reduce_groups", &TaskMetrics::reduce_groups},
    {"output_records", &TaskMetrics::output_records},
    {"output_bytes", &TaskMetrics::output_bytes},
};
static_assert(sizeof(TaskMetrics) ==
                  sizeof(TaskMetrics::ns) +
                      std::size(kVolumeCounters) * sizeof(std::uint64_t),
              "kVolumeCounters must list every TaskMetrics volume counter");

/// Per-worker counters, one per cluster worker in JobMetrics. The
/// coordinator folds them from the frames it already decodes from that
/// worker: every done frame (records, bytes, spills and one task wall),
/// every failed frame, and every trace chunk's ring drops; nothing
/// telemetry-specific rides the wire. Speculative losers and failed
/// attempts count for the worker that ran them. `telemetry_complete` is
/// false when the worker died (or was killed) before shipping its final
/// trace chunk, the one orderly-exit signal.
struct WorkerTelemetry {
  std::uint32_t worker_id = 0;
  std::uint64_t records = 0;  // input records consumed by finished tasks
  std::uint64_t bytes = 0;    // input/shuffle bytes consumed
  std::uint64_t spills = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t task_failures = 0;
  std::uint64_t trace_dropped = 0;  // ring-overflow drops shipped so far
  std::vector<std::uint64_t> task_wall_ns;  // one per finished task
  bool telemetry_complete = true;
};

/// Whole-job metrics: the serialized work view plus phase wall clocks.
struct JobMetrics {
  TaskMetrics work;          // summed over every thread of every task
  TaskMetrics map_work;      // map threads only (produce path + merge)
  TaskMetrics support_work;  // support threads only (sort/combine/spill)
  TaskMetrics reduce_work;   // reduce tasks only
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_tasks = 0;
  /// Task-recovery accounting: total task attempts (>= map_tasks +
  /// reduce_tasks) and how many tasks needed more than one attempt.
  std::uint64_t task_attempts = 0;
  std::uint64_t tasks_retried = 0;
  std::uint64_t map_phase_wall_ns = 0;
  std::uint64_t reduce_phase_wall_ns = 0;
  std::uint64_t job_wall_ns = 0;

  // Intra-map parallelism accounting (paper Table II / Fig. 9): summed
  // over map tasks; wall is the sum of per-task map-phase durations.
  std::uint64_t map_thread_wall_ns = 0;
  std::uint64_t map_thread_idle_ns = 0;
  std::uint64_t support_thread_wall_ns = 0;
  std::uint64_t support_thread_idle_ns = 0;

  double map_idle_fraction() const {
    return map_thread_wall_ns == 0
               ? 0.0
               : static_cast<double>(map_thread_idle_ns) /
                     static_cast<double>(map_thread_wall_ns);
  }
  double support_idle_fraction() const {
    return support_thread_wall_ns == 0
               ? 0.0
               : static_cast<double>(support_thread_idle_ns) /
                     static_cast<double>(support_thread_wall_ns);
  }

  // Reduce-side partition skew (DESIGN.md §12): shuffled bytes of the
  // heaviest reduce partition vs the (upper) median one. Filled
  // by note_partition_bytes in both engines; zero for jobs that never
  // reduced.
  std::uint64_t partition_bytes_max = 0;
  std::uint64_t partition_bytes_median = 0;

  /// Max/median shuffled-bytes ratio across reduce partitions. Skew is
  /// observed, not fixed (DESIGN.md §12). 1.0 = perfectly even; 0 when
  /// unknown.
  double partition_skew_ratio() const {
    if (partition_bytes_median == 0) return 0.0;
    return static_cast<double>(partition_bytes_max) /
           static_cast<double>(partition_bytes_median);
  }

  // Cluster telemetry (empty / zero for single-process engines unless
  // noted). trace_ring_dropped counts events lost to trace-ring overflow
  // across every process — the local engine reports it too.
  std::vector<WorkerTelemetry> workers;
  std::uint64_t trace_ring_dropped = 0;
  bool telemetry_incomplete = false;

  /// Input-records skew across workers: max/mean, 1.0 = perfectly even.
  /// Zero when there are no workers or no records at all.
  double worker_records_skew() const {
    if (workers.empty()) return 0.0;
    std::uint64_t total = 0;
    std::uint64_t max = 0;
    for (const auto& worker : workers) {
      total += worker.records;
      if (worker.records > max) max = worker.records;
    }
    if (total == 0) return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(workers.size());
    return static_cast<double>(max) / mean;
  }
};

/// One event in kTimingSamplePeriod on a per-record path reads the clock:
/// an input line on the map thread, a key group in a reduce task. A clock
/// read costs about as much as tokenizing a word, so timing every record
/// made the instrumentation the hot path; 1 in 16 keeps the reads to a
/// few per cent of one per record while a task of a few thousand lines
/// still times hundreds of them.
inline constexpr std::uint64_t kTimingSamplePeriod = 16;

/// The one sampling rule for per-record timing (DESIGN.md §5b). Events are
/// counted exactly; the first and then one in kTimingSamplePeriod are
/// timed. Code on the path reads the clock only while timing() holds and
/// adds what it measured here; the owner then turns the sampled times
/// into op times with exact figures: split() divides an exactly measured
/// wall by the sampled shares, scale() extrapolates by an exact count.
class OpSampler {
 public:
  /// Counts the next event; true when it is timed.
  bool next() {
    timing_ = events_++ % kTimingSamplePeriod == 0;
    return timing_;
  }
  bool timing() const { return timing_; }

  void add(Op op, std::uint64_t ns) {
    sampled_[static_cast<std::size_t>(op)] += ns;
  }
  std::uint64_t sampled_ns(Op op) const {
    return sampled_[static_cast<std::size_t>(op)];
  }

  /// Adds `ns` to `metrics`, split across the sampled ops in proportion to
  /// their sampled time. The parts sum to `ns` exactly.
  void split(std::uint64_t ns, TaskMetrics& metrics) const;

  /// Time measured over `sampled_count` units of work, extrapolated to
  /// `exact_count` units.
  static std::uint64_t scale(std::uint64_t sampled_ns,
                             std::uint64_t sampled_count,
                             std::uint64_t exact_count);

 private:
  std::uint64_t events_ = 0;
  bool timing_ = false;
  std::array<std::uint64_t, kNumOps> sampled_{};
};

/// For components that run under a thread's OpSampler or on their own (a
/// unit test driving one directly): with a sampler they time only its
/// timed events and add to it; without one they time every call straight
/// into `metrics`.
inline bool timing(const OpSampler* sampler) {
  return sampler == nullptr || sampler->timing();
}
inline void add_timed(OpSampler* sampler, TaskMetrics& metrics, Op op,
                      std::uint64_t ns) {
  if (sampler != nullptr) {
    sampler->add(op, ns);
  } else {
    metrics.op_ns(op) += ns;
  }
}

/// RAII timer attributing an interval to one operation of one TaskMetrics.
class ScopedTimer {
 public:
  ScopedTimer(TaskMetrics& metrics, Op op)
      : metrics_(metrics), op_(op), start_(monotonic_ns()) {}
  ~ScopedTimer() { metrics_.op_ns(op_) += monotonic_ns() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TaskMetrics& metrics_;
  Op op_;
  std::uint64_t start_;
};

}  // namespace textmr::mr
