#include "mr/task_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace textmr::mr {

void validate_job(const JobSpec& spec) {
  if (spec.inputs.empty()) throw ConfigError("job has no input splits");
  if (!spec.mapper) throw ConfigError("job has no mapper");
  if (!spec.reducer) throw ConfigError("job has no reducer");
  if (spec.num_reducers == 0) throw ConfigError("num_reducers must be >= 1");
  if (spec.map_parallelism == 0 || spec.reduce_parallelism == 0) {
    throw ConfigError("parallelism must be >= 1");
  }
  if (spec.max_task_attempts == 0) {
    throw ConfigError("max_task_attempts must be >= 1");
  }
  if (spec.scratch_dir.empty()) throw ConfigError("scratch_dir is required");
  if (spec.output_dir.empty()) throw ConfigError("output_dir is required");
  if (spec.spill_threshold <= 0.0 || spec.spill_threshold >= 1.0) {
    throw ConfigError("spill_threshold must be in (0, 1)");
  }
  if (spec.spill_buffer_bytes > std::numeric_limits<std::uint32_t>::max()) {
    // Records are indexed by u32 offsets into the ring (RecordRef).
    throw ConfigError("spill_buffer_bytes must be below 4 GiB");
  }
  if (spec.hash_combine_shards == 0 || spec.hash_combine_shards > 64) {
    throw ConfigError("hash_combine_shards must be in [1, 64]");
  }
  if (spec.freqbuf.enabled) {
    if (spec.combine_mode == CombineMode::kHash) {
      throw ConfigError(kFreqWithHashError);
    }
    if (spec.freqbuf.table_budget_fraction <= 0.0 ||
        spec.freqbuf.table_budget_fraction >= 1.0) {
      throw ConfigError("freqbuf table_budget_fraction must be in (0, 1)");
    }
    if (!spec.combiner) {
      TEXTMR_LOG(kWarn) << "frequency-buffering skipped: without a combiner "
                           "it cannot shrink intermediate data";
    }
  }
}

std::string part_name(std::uint32_t partition) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "part-r-%05u", partition);
  return buf;
}

std::filesystem::path reduce_output_path(const JobSpec& spec,
                                         std::uint32_t partition) {
  return spec.output_dir / part_name(partition);
}

std::filesystem::path reduce_task_output_path(const JobSpec& spec,
                                              std::nullptr_t,
                                              std::uint32_t partition) {
  return reduce_output_path(spec, partition);
}

MemorySplit split_memory(const JobSpec& spec) {
  MemorySplit mem;
  mem.spill_buffer_bytes = spec.spill_buffer_bytes;
  // FreqOpt runs only with a combiner (run_map_task skips it otherwise),
  // so only then does its table take a share of the budget.
  if (spec.freqbuf.enabled && spec.combiner) {
    mem.freq_table_budget_bytes = static_cast<std::uint64_t>(
        static_cast<double>(spec.spill_buffer_bytes) *
        spec.freqbuf.table_budget_fraction);
    mem.spill_buffer_bytes -=
        static_cast<std::size_t>(mem.freq_table_budget_bytes);
  }
  return mem;
}

MapTaskConfig make_map_task_config(const JobSpec& spec, const MemorySplit& mem,
                                   std::uint32_t task, std::uint32_t attempt,
                                   freqbuf::NodeKeyCache* node_cache,
                                   obs::TraceCollector* trace) {
  MapTaskConfig config;
  config.task_id = task;
  config.attempt = attempt;
  config.split = spec.inputs[task];
  config.num_partitions = spec.num_reducers;
  config.mapper = spec.mapper;
  config.combiner = spec.combiner;
  config.spill_buffer_bytes = mem.spill_buffer_bytes;
  config.combine_mode = spec.combine_mode;
  config.hash_combine_shards = spec.hash_combine_shards;
  config.hash_combine_watermark_bytes = spec.hash_combine_watermark_bytes;
  config.scratch_dir = spec.scratch_dir;
  config.spill_threshold = spec.spill_threshold;
  config.use_spill_matcher = spec.use_spill_matcher;
  config.freqbuf = spec.freqbuf;
  config.freq_table_budget_bytes = mem.freq_table_budget_bytes;
  config.node_cache = node_cache;
  config.keep_spill_runs = spec.keep_intermediates;
  config.trace = trace;
  return config;
}

ReduceTaskConfig make_reduce_task_config(
    const JobSpec& spec, std::uint32_t partition, std::uint32_t attempt,
    std::vector<io::SpillRunInfo> map_outputs, obs::TraceCollector* trace,
    ShuffleFetcher fetch) {
  ReduceTaskConfig config;
  config.partition = partition;
  config.attempt = attempt;
  config.map_outputs = std::move(map_outputs);
  config.fetch = std::move(fetch);
  config.reducer = spec.reducer;
  config.output_path = reduce_output_path(spec, partition);
  config.trace = trace;
  return config;
}

void cleanup_map_attempt(const JobSpec& spec, std::uint32_t task,
                         std::uint32_t attempt) {
  remove_attempt_files(spec.scratch_dir, map_attempt_prefix(task, attempt));
}

void cleanup_reduce_attempt(const std::filesystem::path& output_path,
                            std::uint32_t attempt) {
  std::error_code ec;
  std::filesystem::remove(reduce_attempt_tmp_path(output_path, attempt), ec);
}

void fold_map_result(const MapTaskResult& task_result, JobResult& result) {
  result.metrics.work += task_result.map_thread;
  result.metrics.work += task_result.support_thread;
  result.metrics.map_work += task_result.map_thread;
  result.metrics.support_work += task_result.support_thread;
  result.counters += task_result.counters;
  result.metrics.map_thread_wall_ns += task_result.pipeline_wall_ns;
  result.metrics.support_thread_wall_ns += task_result.pipeline_wall_ns;
  result.metrics.map_thread_idle_ns +=
      task_result.map_thread.op_ns(Op::kMapIdle);
  result.metrics.support_thread_idle_ns +=
      task_result.support_thread.op_ns(Op::kSupportIdle);
  const std::uint64_t map_ops = task_result.map_thread.total_ns(true);
  const std::uint64_t support_ops = task_result.support_thread.total_ns(true);
  result.map_tasks.push_back(JobResult::MapTaskSummary{
      task_result.wall_ns, task_result.pipeline_wall_ns,
      task_result.map_thread.op_ns(Op::kMapIdle),
      task_result.support_thread.op_ns(Op::kSupportIdle), task_result.spills,
      task_result.final_spill_threshold, task_result.freq_sampling_fraction,
      task_result.wall_ns - std::min(task_result.wall_ns, map_ops),
      support_ops == 0 ? 0
                       : task_result.pipeline_wall_ns -
                             std::min(task_result.pipeline_wall_ns,
                                      support_ops)});
}

void fold_reduce_result(const ReduceTaskResult& reduce_result,
                        JobResult& result) {
  result.outputs.push_back(reduce_result.output_path);
  result.metrics.work += reduce_result.metrics;
  result.metrics.reduce_work += reduce_result.metrics;
  result.counters += reduce_result.counters;
  result.reduce_tasks.push_back(JobResult::ReduceTaskSummary{
      static_cast<std::uint32_t>(result.reduce_tasks.size()),
      reduce_result.wall_ns, reduce_result.metrics.shuffled_bytes,
      reduce_result.metrics.output_bytes});
}

void note_partition_bytes(JobResult& result, obs::TraceBuffer* driver_trace) {
  std::vector<std::uint64_t> bytes;
  bytes.reserve(result.reduce_tasks.size());
  for (const auto& task : result.reduce_tasks) {
    obs::record_instant(driver_trace, "skew", "partition_bytes", "partition",
                        static_cast<double>(task.partition), "bytes",
                        static_cast<double>(task.shuffled_bytes));
    bytes.push_back(task.shuffled_bytes);
  }
  if (bytes.empty()) return;
  std::sort(bytes.begin(), bytes.end());
  result.metrics.partition_bytes_max = bytes.back();
  result.metrics.partition_bytes_median = bytes[bytes.size() / 2];
}

std::string current_error_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

bool is_retryable_error() {
  try {
    throw;
  } catch (const InternalError&) {
    return false;
  } catch (const ConfigError&) {
    return false;
  } catch (...) {
    return true;
  }
}

void remove_attempt_files(const std::filesystem::path& dir,
                          const std::string& prefix) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      std::error_code rm_ec;
      std::filesystem::remove(entry.path(), rm_ec);
    }
  }
}

void backoff_sleep(std::uint32_t base_ms, std::uint32_t failed_attempt) {
  if (base_ms == 0) return;
  const std::uint64_t ms = static_cast<std::uint64_t>(base_ms)
                           << std::min<std::uint32_t>(failed_attempt, 10);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void RetryState::record_permanent_failure(const std::string& what) {
  record_permanent_error(std::make_exception_ptr(TaskFailedError(what)));
}

void RetryState::record_permanent_error(std::exception_ptr error) {
  textmr::MutexLock lock(error_mu);
  if (!job_error) job_error = std::move(error);
  job_failed.store(true, std::memory_order_relaxed);
}

void RetryState::rethrow_if_failed() {
  std::exception_ptr error;
  {
    textmr::MutexLock lock(error_mu);
    error = job_error;
  }
  if (error) std::rethrow_exception(error);
}

void note_retry(const char* kind, std::uint32_t id, std::uint32_t attempt,
                const std::string& cause, obs::TraceCollector* collector,
                obs::TraceBuffer** worker_trace, std::uint32_t pid,
                std::uint32_t tid, const std::string& worker_name) {
  TEXTMR_LOG(kWarn) << kind << " task " << id << " attempt " << attempt
                    << " failed (" << cause << "); retrying";
  if (collector != nullptr && *worker_trace == nullptr) {
    *worker_trace = collector->make_buffer(pid, tid, worker_name);
  }
  obs::record_instant(*worker_trace, "retry", "task_retry", "task",
                      static_cast<double>(id), "failed_attempt",
                      static_cast<double>(attempt));
}

}  // namespace textmr::mr
