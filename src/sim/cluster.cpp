#include "sim/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace textmr::sim {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

double ceil_div(double a, double b) { return std::ceil(a / b); }

}  // namespace

SimJobResult simulate_job(const AppProfile& profile, const ClusterSpec& cluster,
                          const SimJobConfig& job) {
  TEXTMR_CHECK(job.input_bytes > 0.0, "simulated job needs input bytes");
  TEXTMR_CHECK(cluster.map_slots() >= 1 && cluster.reduce_slots() >= 1,
               "cluster needs slots");
  SimJobResult result;

  // ---- map task internals -------------------------------------------------
  const double tasks = ceil_div(job.input_bytes, job.split_bytes);
  const double split = job.input_bytes / tasks;  // even splits
  result.map_tasks = static_cast<std::uint64_t>(tasks);

  // Disk bandwidth is shared by the node's concurrently running map tasks.
  const double disk_read_share =
      cluster.disk_read_mbps * kMB / cluster.map_slots_per_node;
  const double disk_write_share =
      cluster.disk_write_mbps * kMB / cluster.map_slots_per_node;

  const double spill_input = split * profile.spill_input_bytes;
  const double spilled = split * profile.spilled_bytes;
  const double merged = split * profile.merged_bytes;

  // Produce side: CPU (read+map+emit+freqbuf) overlapped with the input
  // disk stream — the slower of the two governs.
  const double produce_cpu_s = split * profile.produce_cpu_ns_per_input_byte *
                               1e-9 * cluster.cpu_scale;
  const double produce_io_s = split / disk_read_share;
  const double produce_s = std::max(produce_cpu_s, produce_io_s);

  // Consume side: per spill-input byte, sort/combine CPU plus writing the
  // post-combine bytes out.
  const double consume_cpu_per_byte =
      profile.consume_cpu_ns_per_spill_byte * 1e-9 * cluster.cpu_scale;
  const double write_ratio =
      spill_input > 0.0 ? spilled / spill_input : 0.0;
  const double consume_s_per_byte =
      consume_cpu_per_byte + write_ratio / disk_write_share;

  const double buffer =
      job.spill_buffer_bytes * (1.0 - job.freq_table_fraction);

  PipelineResult pipeline;
  if (spill_input > 0.0 && consume_s_per_byte > 0.0 && produce_s > 0.0) {
    PipelineConfig config;
    config.produce_rate = spill_input / produce_s;
    config.consume_rate = 1.0 / consume_s_per_byte;
    config.total_bytes = spill_input;
    config.buffer_bytes = buffer;
    config.threshold = job.spill_threshold;
    config.use_spill_matcher = job.use_spill_matcher;
    pipeline = simulate_map_pipeline(config);
  }
  const double pipeline_s = std::max(pipeline.wall_s, produce_s);
  result.map_pipeline_s = pipeline_s;
  result.spills_per_task = pipeline.spills;
  result.map_idle_fraction =
      pipeline_s > 0.0 ? pipeline.map_idle_s / pipeline_s : 0.0;
  result.support_idle_fraction =
      pipeline_s > 0.0
          ? (pipeline.support_idle_s +
             // After the last consume the support thread is done; if the
             // producer path out-lasted it, count that as support idle too.
             std::max(0.0, produce_s - pipeline.wall_s)) /
                pipeline_s
          : 1.0;

  // Map-side final merge: skipped when a single spill covered the task
  // (Hadoop adopts the run by rename).
  double merge_s = 0.0;
  if (pipeline.spills > 1) {
    merge_s = spilled * profile.merge_cpu_ns_per_spilled_byte * 1e-9 *
                  cluster.cpu_scale +
              spilled / disk_read_share + merged / disk_write_share;
  }
  result.map_merge_s = merge_s;

  result.map_task_wall_s = cluster.task_startup_s + pipeline_s + merge_s;
  result.map_waves = static_cast<std::uint64_t>(
      ceil_div(tasks, static_cast<double>(cluster.map_slots())));
  result.map_phase_s =
      static_cast<double>(result.map_waves) * result.map_task_wall_s;

  // ---- reduce phase ---------------------------------------------------------
  const double shuffle_total = job.input_bytes * profile.merged_bytes;
  const double reducers = static_cast<double>(job.num_reducers);
  const double bytes_per_reducer = shuffle_total / reducers;
  result.reduce_waves = static_cast<std::uint64_t>(
      ceil_div(reducers, static_cast<double>(cluster.reduce_slots())));
  const double active_reducers =
      std::min(reducers, static_cast<double>(cluster.reduce_slots()));

  // A reducer's fetch rate: its share of the cluster's aggregate network,
  // capped by its own NIC.
  const double aggregate_net =
      static_cast<double>(cluster.nodes) * cluster.network_mbps_per_node * kMB;
  const double fetch_bw = std::min(cluster.network_mbps_per_node * kMB,
                                   aggregate_net / active_reducers);
  result.shuffle_s = fetch_bw > 0.0 ? bytes_per_reducer / fetch_bw : 0.0;

  const double reduce_cpu_s = bytes_per_reducer *
                              profile.reduce_cpu_ns_per_shuffled_byte * 1e-9 *
                              cluster.cpu_scale;
  const double reduce_disk_write =
      cluster.disk_write_mbps * kMB / cluster.reduce_slots_per_node;
  const double output_write_s =
      (job.input_bytes * profile.output_bytes / reducers) / reduce_disk_write;

  result.reduce_task_wall_s =
      cluster.task_startup_s + result.shuffle_s + reduce_cpu_s + output_write_s;
  result.reduce_phase_s =
      static_cast<double>(result.reduce_waves) * result.reduce_task_wall_s;

  result.total_s =
      cluster.job_overhead_s + result.map_phase_s + result.reduce_phase_s;
  return result;
}

}  // namespace textmr::sim
