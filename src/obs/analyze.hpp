#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace textmr::obs {

/// Offline trace analysis (ISSUE 6): turns one merged job trace into the
/// paper's measurement artifacts — per-phase wall breakdown (Fig. 2
/// style), per-worker busy/idle time (Table II style), straggler
/// attribution and the job's critical path (Fig. 9 style wait
/// decomposition) — as derived numbers from any real run, instead of
/// one-off instrumented builds. Library half of the textmr-analyze CLI.

struct TraceAnalysis {
  std::string job_name;
  std::size_t num_events = 0;
  std::uint64_t start_ns = 0;  // earliest event timestamp (absolute)
  std::uint64_t end_ns = 0;    // latest event end (absolute)
  std::uint64_t wall_ns = 0;   // end_ns - start_ns
  std::uint64_t dropped_events = 0;
  std::vector<TraceData::RingDrops> ring_drops;
  bool telemetry_incomplete = false;

  /// Top-level timeline partition. Starts at 0 (relative to start_ns);
  /// contiguous and exhaustive when the driver phase spans are present.
  struct Phase {
    std::string name;
    std::uint64_t start_ns = 0;  // relative to start_ns
    std::uint64_t dur_ns = 0;
  };
  std::vector<Phase> phases;

  /// Serialized time per leaf work op (spill_sort, shuffle, ...),
  /// summed across all tasks and workers, sorted by total descending.
  struct OpTotal {
    std::string name;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };
  std::vector<OpTotal> op_totals;

  /// Per-worker utilization within the job's active window (cluster
  /// traces only — local-engine traces have no worker lanes).
  struct WorkerLane {
    std::uint32_t pid = 0;
    std::string name;
    std::uint64_t busy_ns = 0;  // sum of map_exec/reduce_exec spans
    std::uint64_t window_ns = 0;
    std::uint64_t tasks = 0;  // exec spans (includes failed attempts)
    double idle_fraction = 0.0;
  };
  std::vector<WorkerLane> workers;

  /// One task attempt's span, for straggler attribution. Reduce spans
  /// additionally carry `shuffled_bytes` from the driver's per-partition
  /// "partition_bytes" instants, so the straggler table can show whether
  /// a reduce partition ran long because it received more data.
  struct TaskSpan {
    std::uint32_t id = 0;        // map task id or reduce partition
    std::uint64_t start_ns = 0;  // relative to start_ns
    std::uint64_t dur_ns = 0;
    std::uint64_t shuffled_bytes = 0;  // reduce only; 0 when not recorded
  };
  std::vector<TaskSpan> slowest_map_tasks;  // descending by duration
  std::vector<TaskSpan> slowest_reduce_tasks;
  std::uint64_t median_map_task_ns = 0;
  std::uint64_t median_reduce_task_ns = 0;

  /// The job's critical path: a contiguous chain of segments from first
  /// to last event whose durations sum to ~wall_ns. Within a phase the
  /// gating element is the task attempt that finished last.
  struct Segment {
    std::string label;
    std::uint64_t dur_ns = 0;
  };
  std::vector<Segment> critical_path;
  std::uint64_t critical_path_ns = 0;

  double critical_path_coverage() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(critical_path_ns) /
                              static_cast<double>(wall_ns);
  }

  /// Event names seen in the trace but missing from kKnownEventNames —
  /// nonempty means the table (and the lint check guarding it) rotted.
  std::vector<std::string> unknown_event_names;
};

TraceAnalysis analyze_trace(const TraceData& trace);

/// Human-readable report (the textmr-analyze default output).
std::string format_analysis(const TraceAnalysis& analysis);

/// Machine-readable variant (textmr-analyze --json).
std::string format_analysis_json(const TraceAnalysis& analysis);

/// Reads a Chrome trace JSON file written by --trace. Timestamps come
/// back epoch-relative. Throws IoError on unreadable files and
/// FormatError on unparseable ones.
TraceData load_trace_file(const std::filesystem::path& path);

/// Every event name the engine records, in sorted order. tools/lint.py
/// cross-checks this table against the record_instant / record_counter /
/// SpanTimer call sites in the tree, so analyzer classification cannot
/// silently miss a new op.
extern const char* const kKnownEventNames[];
extern const std::size_t kNumKnownEventNames;
bool known_event_name(std::string_view name);

}  // namespace textmr::obs
