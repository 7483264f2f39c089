#include "mr/report.hpp"

#include <algorithm>

#include "common/format.hpp"
#include "obs/json.hpp"

namespace textmr::mr {
namespace {

/// Exact summary of one worker's task walls. A percentile is the
/// ceil(pct * n / 100)-th smallest wall, in integer arithmetic.
struct TaskWalls {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

TaskWalls summarize_walls(std::vector<std::uint64_t> walls) {
  TaskWalls out;
  out.count = walls.size();
  if (walls.empty()) return out;
  std::sort(walls.begin(), walls.end());
  const auto percentile = [&](std::size_t pct) {
    return walls[(pct * walls.size() + 99) / 100 - 1];
  };
  std::uint64_t sum = 0;
  for (const std::uint64_t wall : walls) sum += wall;
  out.mean = static_cast<double>(sum) / static_cast<double>(walls.size());
  out.p50 = percentile(50);
  out.p90 = percentile(90);
  out.p99 = percentile(99);
  out.max = walls.back();
  return out;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Job totals of the per-task unattributed time (MapTaskSummary).
struct Unattributed {
  std::uint64_t map_ns = 0;
  std::uint64_t map_wall_ns = 0;  // sum of task walls
  std::uint64_t support_ns = 0;
};

Unattributed unattributed(const JobResult& result) {
  Unattributed total;
  for (const auto& task : result.map_tasks) {
    total.map_ns += task.map_unattributed_ns;
    total.map_wall_ns += task.wall_ns;
    total.support_ns += task.support_unattributed_ns;
  }
  return total;
}

}  // namespace

std::string format_job_summary(const JobResult& result) {
  const auto& work = result.metrics.work;
  const double total = seconds(work.total_ns());
  const double user = seconds(work.user_ns());
  std::string out;
  appendf(out,
          "wall %.2fs | work %.2fs (user %.0f%%, framework %.0f%%) | "
          "%llu map + %llu reduce tasks",
          seconds(result.metrics.job_wall_ns), total,
          total > 0 ? 100.0 * user / total : 0.0,
          total > 0 ? 100.0 * (total - user) / total : 0.0,
          static_cast<unsigned long long>(result.metrics.map_tasks),
          static_cast<unsigned long long>(result.metrics.reduce_tasks));
  return out;
}

std::string format_job_report(const JobResult& result,
                              const std::string& job_name) {
  const auto& m = result.metrics;
  const auto& work = m.work;
  std::string out;
  appendf(out, "=== job report: %s ===\n", job_name.c_str());
  appendf(out, "wall: total %.2fs (map phase %.2fs, reduce phase %.2fs)\n",
          seconds(m.job_wall_ns), seconds(m.map_phase_wall_ns),
          seconds(m.reduce_phase_wall_ns));

  appendf(out, "serialized work by operation:\n");
  const double total = static_cast<double>(work.total_ns());
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    if (op == Op::kMapIdle || op == Op::kSupportIdle) continue;
    const std::uint64_t ns = work.op_ns(op);
    if (ns == 0) continue;
    appendf(out, "  %-14s %8.3fs %5.1f%%%s\n", op_name(op), seconds(ns),
            total > 0 ? 100.0 * static_cast<double>(ns) / total : 0.0,
            is_user_code(op) ? "  [user code]" : "");
  }
  appendf(out, "  user code %.1f%%, abstraction cost %.1f%%\n",
          total > 0 ? 100.0 * static_cast<double>(work.user_ns()) / total : 0.0,
          total > 0
              ? 100.0 * static_cast<double>(work.abstraction_ns()) / total
              : 0.0);

  appendf(out, "intra-map parallelism: map thread idle %.1f%%, "
               "support thread idle %.1f%%\n",
          100.0 * m.map_idle_fraction(), 100.0 * m.support_idle_fraction());
  const Unattributed lost = unattributed(result);
  appendf(out, "unattributed: map thread %.1f%% of task wall, "
               "support thread %.1f%% of pipeline wall\n",
          100.0 * ratio(lost.map_ns, lost.map_wall_ns),
          100.0 * ratio(lost.support_ns, m.support_thread_wall_ns));

  if (m.tasks_retried > 0) {
    appendf(out, "recovery: %llu tasks retried, %llu attempts for %llu tasks\n",
            static_cast<unsigned long long>(m.tasks_retried),
            static_cast<unsigned long long>(m.task_attempts),
            static_cast<unsigned long long>(m.map_tasks + m.reduce_tasks));
  }

  appendf(out, "volumes:\n");
  appendf(out, "  input            %10llu records %12.1f KB\n",
          static_cast<unsigned long long>(work.input_records),
          static_cast<double>(work.input_bytes) / 1024.0);
  appendf(out, "  map output       %10llu records %12.1f KB\n",
          static_cast<unsigned long long>(work.map_output_records),
          static_cast<double>(work.map_output_bytes) / 1024.0);
  if (work.freq_hits > 0) {
    appendf(out, "  freq-table hits  %10llu records (flushed back: %llu)\n",
            static_cast<unsigned long long>(work.freq_hits),
            static_cast<unsigned long long>(work.freq_flushes));
  }
  if (work.hash_combine_hits > 0 || work.hash_combine_flushes > 0) {
    appendf(out, "  hash-combine hits %9llu records (%llu flushes)\n",
            static_cast<unsigned long long>(work.hash_combine_hits),
            static_cast<unsigned long long>(work.hash_combine_flushes));
  }
  appendf(out, "  spilled          %10llu records %12.1f KB in %llu spills\n",
          static_cast<unsigned long long>(work.spilled_records),
          static_cast<double>(work.spilled_bytes) / 1024.0,
          static_cast<unsigned long long>(work.spill_count));
  appendf(out, "  map output (merged) %7llu records %12.1f KB\n",
          static_cast<unsigned long long>(work.merged_records),
          static_cast<double>(work.merged_bytes) / 1024.0);
  appendf(out, "  shuffled         %23.1f KB\n",
          static_cast<double>(work.shuffled_bytes) / 1024.0);
  appendf(out, "  output           %10llu records %12.1f KB\n",
          static_cast<unsigned long long>(work.output_records),
          static_cast<double>(work.output_bytes) / 1024.0);
  if (m.partition_bytes_max > 0) {
    appendf(out,
            "partition skew: max %.1f KB / median %.1f KB = %.2fx shuffled\n",
            static_cast<double>(m.partition_bytes_max) / 1024.0,
            static_cast<double>(m.partition_bytes_median) / 1024.0,
            m.partition_skew_ratio());
  }
  if (!m.workers.empty()) {
    appendf(out, "cluster workers (records skew %.2fx%s):\n",
            m.worker_records_skew(),
            m.telemetry_incomplete ? ", telemetry incomplete" : "");
    for (const auto& worker : m.workers) {
      const TaskWalls walls = summarize_walls(worker.task_wall_ns);
      appendf(out,
              "  worker %-3u %8llu records %10.1f KB, %llu tasks "
              "(%llu failed), task p50 %.3fs p99 %.3fs%s\n",
              worker.worker_id,
              static_cast<unsigned long long>(worker.records),
              static_cast<double>(worker.bytes) / 1024.0,
              static_cast<unsigned long long>(worker.tasks_completed),
              static_cast<unsigned long long>(worker.task_failures),
              seconds(walls.p50), seconds(walls.p99),
              worker.telemetry_complete ? "" : "  [partial]");
    }
  }
  if (m.trace_ring_dropped > 0) {
    appendf(out, "trace: %llu events dropped to ring overflow\n",
            static_cast<unsigned long long>(m.trace_ring_dropped));
  }
  if (!result.counters.empty()) {
    appendf(out, "user counters:\n");
    for (const auto& [name, value] : result.counters.all()) {
      appendf(out, "  %-28s %llu\n", name.c_str(),
              static_cast<unsigned long long>(value));
    }
  }
  return out;
}

namespace {

/// Serializes one TaskMetrics: per-op ns breakdown (zero ops omitted),
/// the derived totals, and the volume counters.
void write_task_metrics(obs::JsonWriter& w, const TaskMetrics& m) {
  w.begin_object();
  w.key("ops_ns").begin_object();
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    const std::uint64_t ns = m.op_ns(op);
    if (ns == 0) continue;
    w.field(op_name(op), ns);
  }
  w.end_object();
  w.field("total_ns", m.total_ns());
  w.field("user_ns", m.user_ns());
  w.field("abstraction_ns", m.abstraction_ns());
  w.key("volumes").begin_object();
  for (const VolumeCounter& counter : kVolumeCounters) {
    w.field(counter.name, m.*counter.member);
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string format_job_metrics_json(const JobResult& result,
                                    const std::string& job_name) {
  const auto& m = result.metrics;
  obs::JsonWriter w;
  w.begin_object();
  w.field("job", job_name);
  w.key("wall_ns").begin_object();
  w.field("job", m.job_wall_ns);
  w.field("map_phase", m.map_phase_wall_ns);
  w.field("reduce_phase", m.reduce_phase_wall_ns);
  w.end_object();
  w.field("map_tasks", m.map_tasks);
  w.field("reduce_tasks", m.reduce_tasks);
  w.field("task_attempts", m.task_attempts);
  w.field("tasks_retried", m.tasks_retried);

  w.key("work");
  write_task_metrics(w, m.work);
  w.key("map_work");
  write_task_metrics(w, m.map_work);
  w.key("support_work");
  write_task_metrics(w, m.support_work);
  w.key("reduce_work");
  write_task_metrics(w, m.reduce_work);

  w.key("intra_map_parallelism").begin_object();
  w.field("map_thread_wall_ns", m.map_thread_wall_ns);
  w.field("map_thread_idle_ns", m.map_thread_idle_ns);
  w.field("support_thread_wall_ns", m.support_thread_wall_ns);
  w.field("support_thread_idle_ns", m.support_thread_idle_ns);
  w.field("map_idle_fraction", m.map_idle_fraction());
  w.field("support_idle_fraction", m.support_idle_fraction());
  w.end_object();

  // Thread wall that no op accounts for, summed over map tasks.
  const Unattributed lost = unattributed(result);
  w.key("unattributed").begin_object();
  w.field("map_thread_ns", lost.map_ns);
  w.field("map_thread_fraction", ratio(lost.map_ns, lost.map_wall_ns));
  w.field("support_thread_ns", lost.support_ns);
  w.field("support_thread_fraction",
          ratio(lost.support_ns, m.support_thread_wall_ns));
  w.end_object();

  w.key("partition_skew").begin_object();
  w.field("partition_bytes_max", m.partition_bytes_max);
  w.field("partition_bytes_median", m.partition_bytes_median);
  w.field("partition_skew_ratio", m.partition_skew_ratio());
  w.end_object();

  w.key("reduce_task_details").begin_array();
  for (const auto& task : result.reduce_tasks) {
    w.begin_object();
    w.field("partition", task.partition);
    w.field("wall_ns", task.wall_ns);
    w.field("shuffled_bytes", task.shuffled_bytes);
    w.field("output_bytes", task.output_bytes);
    w.end_object();
  }
  w.end_array();

  w.key("map_task_details").begin_array();
  for (const auto& task : result.map_tasks) {
    w.begin_object();
    w.field("wall_ns", task.wall_ns);
    w.field("pipeline_wall_ns", task.pipeline_wall_ns);
    w.field("map_idle_ns", task.map_idle_ns);
    w.field("support_idle_ns", task.support_idle_ns);
    w.field("spills", task.spills);
    w.field("final_spill_threshold", task.final_spill_threshold);
    w.field("freq_sampling_fraction", task.freq_sampling_fraction);
    w.field("map_unattributed_ns", task.map_unattributed_ns);
    w.field("support_unattributed_ns", task.support_unattributed_ns);
    w.end_object();
  }
  w.end_array();

  w.field("trace_ring_dropped", m.trace_ring_dropped);
  w.field("telemetry_incomplete", m.telemetry_incomplete);
  if (!m.workers.empty()) {
    w.key("cluster").begin_object();
    w.field("worker_records_skew", m.worker_records_skew());
    w.key("workers").begin_array();
    for (const auto& worker : m.workers) {
      w.begin_object();
      w.field("worker_id", worker.worker_id);
      w.field("records", worker.records);
      w.field("bytes", worker.bytes);
      w.field("spills", worker.spills);
      w.field("tasks_completed", worker.tasks_completed);
      w.field("task_failures", worker.task_failures);
      w.field("trace_dropped", worker.trace_dropped);
      w.field("telemetry_complete", worker.telemetry_complete);
      const TaskWalls walls = summarize_walls(worker.task_wall_ns);
      w.key("task_latency_ns").begin_object();
      w.field("count", walls.count);
      w.field("mean", walls.mean);
      w.field("p50", walls.p50);
      w.field("p90", walls.p90);
      w.field("p99", walls.p99);
      w.field("max", walls.max);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.key("counters").begin_object();
  for (const auto& [name, value] : result.counters.all()) {
    w.field(name, value);
  }
  w.end_object();

  w.end_object();
  return w.take();
}

}  // namespace textmr::mr
