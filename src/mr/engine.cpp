#include "mr/engine.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include "common/stopwatch.hpp"
#include "mr/task_runner.hpp"

namespace textmr::mr {
namespace {

/// Runs `body(worker_id)` for each of `workers` workers and returns once
/// all are done: inline on the calling thread when there is one worker,
/// else on that many threads.
template <typename Body>
void run_workers(std::uint32_t workers, const Body& body) {
  if (workers == 1) {
    body(0);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) threads.emplace_back(body, w);
  for (auto& t : threads) t.join();
}

}  // namespace

JobResult LocalEngine::run(const JobSpec& spec) {
  validate_job(spec);
  std::filesystem::create_directories(spec.scratch_dir);
  std::filesystem::create_directories(spec.output_dir);

  JobResult result;
  const std::uint64_t job_start = monotonic_ns();

  // Trace collector: created only when tracing is requested; tasks and
  // their threads register per-thread rings against it. Null pointers
  // everywhere otherwise — the disabled path costs one compare per hook.
  std::unique_ptr<obs::TraceCollector> collector;
  obs::TraceBuffer* driver_trace = nullptr;
  if (spec.trace.enabled) {
    collector = std::make_unique<obs::TraceCollector>(spec.trace);
    collector->set_job_name(spec.name);
    driver_trace =
        collector->make_buffer(obs::kDriverPid, 0, "driver", "driver");
  }

  // Memory split between the spill buffer and the frequent-key table
  // (total fixed, paper §V-B2).
  const MemorySplit mem = split_memory(spec);

  // Task recovery (DESIGN.md §6): a failed attempt is cleaned up and the
  // task re-run under a fresh attempt id; the worker keeps draining the
  // task queue. Only a task that exhausts max_task_attempts dooms the
  // job, at which point workers stop claiming new tasks.
  RetryState retry;
  retry.max_attempts = spec.max_task_attempts;
  retry.backoff_base_ms = spec.retry_backoff_base_ms;

  // ---- map phase ---------------------------------------------------------
  obs::SpanTimer map_phase_span(driver_trace, "phase", "map_phase");
  const std::uint64_t map_phase_start = monotonic_ns();
  const std::uint32_t num_map_tasks =
      static_cast<std::uint32_t>(spec.inputs.size());
  std::vector<MapTaskResult> map_results(num_map_tasks);
  {
    const std::uint32_t workers =
        std::min<std::uint32_t>(spec.map_parallelism, num_map_tasks);
    // One NodeKeyCache per worker: a worker models one node's map slot,
    // so tasks it runs share the frozen frequent-key set (§III-B).
    std::vector<freqbuf::NodeKeyCache> caches(workers);
    std::atomic<std::uint32_t> next_task{0};

    auto worker_body = [&](std::uint32_t worker_id) {
      obs::TraceBuffer* worker_trace = nullptr;  // created on first retry
      while (!retry.job_failed.load(std::memory_order_relaxed)) {
        const std::uint32_t task = next_task.fetch_add(1);
        if (task >= num_map_tasks) return;
        const bool ok = run_with_retries(
            retry, "map", task, collector.get(), &worker_trace,
            obs::kDriverPid, obs::kMapWorkerTidBase + worker_id,
            "map-worker-" + std::to_string(worker_id),
            [&](std::uint32_t attempt) {
              map_results[task] =
                  run_map_task(make_map_task_config(spec, mem, task, attempt,
                                                    &caches[worker_id],
                                                    collector.get()));
            },
            [&](std::uint32_t attempt) {
              cleanup_map_attempt(spec, task, attempt);
            });
        if (!ok) return;
      }
    };

    run_workers(workers, worker_body);
    retry.rethrow_if_failed();
  }
  map_phase_span.done();
  result.metrics.map_phase_wall_ns = monotonic_ns() - map_phase_start;
  result.metrics.map_tasks = num_map_tasks;

  std::vector<io::SpillRunInfo> map_outputs;
  map_outputs.reserve(num_map_tasks);
  for (auto& task_result : map_results) {
    map_outputs.push_back(task_result.output);
    fold_map_result(task_result, result);
  }

  // ---- reduce phase --------------------------------------------------------
  obs::SpanTimer reduce_phase_span(driver_trace, "phase", "reduce_phase");
  const std::uint64_t reduce_phase_start = monotonic_ns();
  std::vector<ReduceTaskResult> reduce_results(spec.num_reducers);
  {
    std::atomic<std::uint32_t> next_partition{0};

    auto worker_body = [&](std::uint32_t worker_id) {
      obs::TraceBuffer* worker_trace = nullptr;  // created on first retry
      while (!retry.job_failed.load(std::memory_order_relaxed)) {
        const std::uint32_t partition = next_partition.fetch_add(1);
        if (partition >= spec.num_reducers) return;
        const std::filesystem::path output_path =
            reduce_output_path(spec, partition);
        const bool ok = run_with_retries(
            retry, "reduce", partition, collector.get(), &worker_trace,
            obs::kDriverPid, obs::kReduceWorkerTidBase + worker_id,
            "reduce-worker-" + std::to_string(worker_id),
            [&](std::uint32_t attempt) {
              reduce_results[partition] = run_reduce_task(
                  make_reduce_task_config(spec, partition, attempt,
                                          map_outputs, collector.get()));
            },
            [&](std::uint32_t attempt) {
              cleanup_reduce_attempt(output_path, attempt);
            });
        if (!ok) return;
      }
    };

    const std::uint32_t workers = std::min<std::uint32_t>(
        spec.reduce_parallelism, spec.num_reducers);
    run_workers(workers, worker_body);
    retry.rethrow_if_failed();
  }
  reduce_phase_span.done();
  result.metrics.reduce_phase_wall_ns = monotonic_ns() - reduce_phase_start;
  result.metrics.reduce_tasks = spec.num_reducers;
  result.metrics.task_attempts =
      retry.task_attempts.load(std::memory_order_relaxed);
  result.metrics.tasks_retried =
      retry.tasks_retried.load(std::memory_order_relaxed);

  for (auto& reduce_result : reduce_results) {
    fold_reduce_result(reduce_result, result);
  }
  note_partition_bytes(result, driver_trace);

  if (!spec.keep_intermediates) {
    for (const auto& run : map_outputs) {
      std::error_code ec;
      std::filesystem::remove(run.path, ec);
    }
  }

  result.metrics.job_wall_ns = monotonic_ns() - job_start;
  if (collector != nullptr) {
    result.trace = collector->finish();
    result.metrics.trace_ring_dropped = result.trace.dropped_events;
  }
  return result;
}

}  // namespace textmr::mr
