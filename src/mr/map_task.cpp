#include "mr/map_task.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"
#include "mr/hash_combine.hpp"
#include "mr/merger.hpp"
#include "mr/partitioner.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"
#include "spillmatch/spill_matcher.hpp"

namespace textmr::mr {
namespace {

/// FreqOpt's flush target: the table's combined entries re-enter the
/// standard dataflow through the ring, so a flush writes no run of its
/// own and the task's run count is the ring's.
class RingTarget final : public HashCombineShards::FlushTarget {
 public:
  RingTarget(SpillBuffer& ring, TaskMetrics& metrics)
      : ring_(ring), metrics_(metrics) {}

  void put(std::uint32_t partition, std::string_view key,
           std::string_view value) override {
    metrics_.freq_flushes += 1;
    metrics_.spill_input_records += 1;
    metrics_.spill_input_bytes += key.size() + value.size();
    ring_.put(partition, key, value);
  }
  void seal() override {}

 private:
  SpillBuffer& ring_;
  TaskMetrics& metrics_;
};

/// The sink handed to user map() code, and the map side's one record
/// path: partition, then the table, then the ring. Hash mode's table
/// takes every key and there is no ring; in sort mode FreqOpt's table
/// (when enabled) absorbs its pinned keys and the rest enter the ring.
/// The partitioner runs once per record, before either store. It counts
/// output volume and, on a timed line, times itself.
class MapSink final : public EmitSink {
 public:
  MapSink(HashPartitioner partitioner, HashCombineShards* table,
          freqbuf::FreqBufferController* freq, SpillBuffer* ring,
          TaskMetrics& metrics, const OpSampler& sampler)
      : partitioner_(partitioner), table_(table), freq_(freq), ring_(ring),
        metrics_(metrics), sampler_(sampler) {}

  void emit(std::string_view key, std::string_view value) override {
    metrics_.map_output_records += 1;
    metrics_.map_output_bytes += key.size() + value.size();
    if (!sampler_.timing()) {
      route(key, value);
      return;
    }
    const std::uint64_t t0 = monotonic_ns();
    route(key, value);
    inside_emit_ns_ += monotonic_ns() - t0;
  }

  /// Time spent inside emit() on timed lines.
  std::uint64_t inside_emit_ns() const { return inside_emit_ns_; }

 private:
  void route(std::string_view key, std::string_view value) {
    const std::uint32_t partition = partitioner_(key);
    if (freq_ != nullptr && freq_->offer(partition, key, value)) return;
    metrics_.spill_input_records += 1;
    metrics_.spill_input_bytes += key.size() + value.size();
    if (ring_ != nullptr) {
      ring_->put(partition, key, value);
    } else {
      table_->insert(partition, key, value);
    }
  }

  const HashPartitioner partitioner_;
  HashCombineShards* table_;
  freqbuf::FreqBufferController* freq_;
  SpillBuffer* ring_;
  TaskMetrics& metrics_;
  const OpSampler& sampler_;
  std::uint64_t inside_emit_ns_ = 0;
};

/// One map task. Both combine modes share the map thread's driver
/// (map_split) and the final merge; they differ only in the direct sink
/// they build and in how they collect their sorted runs.
class MapTask {
 public:
  explicit MapTask(const MapTaskConfig& config)
      : config_(config),
        task_start_(monotonic_ns()),
        partitioner_(config.num_partitions) {
    if (config.trace != nullptr) {
      map_trace_ = config.trace->make_buffer(
          trace_pid(), obs::kMapThreadTid, "map",
          "map_task_" + std::to_string(config.task_id));
    }
    if (config.combiner) {
      map_combiner_ = config.combiner();
      map_combiner_->begin_task(TaskInfo{config.task_id, &map_counters_});
    }
  }
  // The support thread and the hash tables' path callback hold `this`.
  MapTask(const MapTask&) = delete;
  MapTask& operator=(const MapTask&) = delete;

  MapTaskResult run() {
    obs::SpanTimer task_span(map_trace_, "task", "map_task");
    task_span.arg("split_bytes", static_cast<double>(config_.split.length));
    std::vector<io::SpillRunInfo> runs;
    if (config_.combine_mode == CombineMode::kHash) {
      task_span.arg("hash_combine", 1.0);
      runs = run_hash();
    } else {
      runs = run_sort();
    }
    result_.pipeline_wall_ns = monotonic_ns() - task_start_;
    finish_output(runs);
    result_.counters += map_counters_;
    result_.wall_ns = monotonic_ns() - task_start_;
    return std::move(result_);
  }

 private:
  std::uint32_t trace_pid() const { return obs::map_task_pid(config_.task_id); }

  std::string scratch_path(const std::string& name) const {
    return (config_.scratch_dir /
            (map_attempt_prefix(config_.task_id, config_.attempt) + name))
        .string();
  }

  /// The map thread's read → map → emit loop over the split. Every
  /// emitted record is partitioned, then goes to `table` (hash mode) or,
  /// past FreqOpt when enabled, to `ring` (sort mode).
  ///
  /// Timing (DESIGN.md §5b): counts are exact, the clock is sampled. The
  /// loop's wall is read once at each end. Its rare events time
  /// themselves exactly: ring waits, table flushes and their combines.
  /// The rest of the wall is split across read, user map, emit, profile
  /// and freq-table in the shares measured on timed lines, so the
  /// thread's ops sum to the loop's wall.
  void map_split(HashCombineShards* table, SpillBuffer* ring) {
    TaskMetrics& metrics = result_.map_thread;
    OpSampler sampler;
    // FreqOpt: profile, then pin the frozen set in a combine table of its
    // own budget whose flushes re-enter the ring. Without a combiner the
    // table could only delay records, never shrink them, so the task
    // runs as if FreqOpt were off.
    std::optional<RingTarget> ring_target;
    std::optional<HashCombineShards> freq_table;
    std::unique_ptr<freqbuf::FreqBufferController> freq;
    if (config_.freqbuf.enabled && map_combiner_ != nullptr) {
      ring_target.emplace(*ring, metrics);
      freq_table.emplace(freq_table_config(), map_combiner_.get(),
                         *ring_target, metrics, map_trace_);
      freq = std::make_unique<freqbuf::FreqBufferController>(
          config_.freqbuf, *freq_table, partitioner_, metrics,
          config_.node_cache, map_trace_, &sampler);
    }
    MapSink sink(partitioner_, table, freq.get(), ring, metrics, sampler);
    // Exactly timed nanoseconds so far: what the rare events added to the
    // thread's ops, plus the ring waits run_sort books as kMapIdle.
    auto exact_ns = [&metrics, ring] {
      return metrics.total_ns(/*include_idle=*/true) +
             (ring != nullptr ? ring->producer_wait_ns() : 0);
    };

    std::unique_ptr<Mapper> mapper = config_.mapper();
    mapper->begin_task(TaskInfo{config_.task_id, &map_counters_});
    io::LineReader reader(config_.split);
    std::uint64_t offset = 0;
    const std::uint64_t loop_exact_start = exact_ns();
    const std::uint64_t loop_start = monotonic_ns();
    while (true) {
      const bool timed = sampler.next();
      const std::uint64_t read_start = timed ? monotonic_ns() : 0;
      const std::optional<std::string_view> line = reader.next_line();
      if (timed) sampler.add(Op::kMapRead, monotonic_ns() - read_start);
      if (!line.has_value()) break;
      metrics.input_records += 1;
      metrics.input_bytes += line->size() + 1;
      if (freq != nullptr) {
        freq->set_progress(reader.fraction_consumed());
      }
      TEXTMR_FAILPOINT("map.user_code");
      if (!timed) {
        mapper->map(offset, *line, sink);
        ++offset;
        continue;
      }
      // A timed line: map()'s wall is user code plus its emits, and the
      // emits hold profile and freq-table time and the exact events they
      // set off, all of which are booked elsewhere.
      const std::uint64_t exact_before = exact_ns();
      const std::uint64_t emit_before = sink.inside_emit_ns();
      const std::uint64_t nested_before = sampler.sampled_ns(Op::kProfile) +
                                          sampler.sampled_ns(Op::kFreqTable);
      const std::uint64_t map_start = monotonic_ns();
      mapper->map(offset, *line, sink);
      const std::uint64_t map_ns = monotonic_ns() - map_start;
      const std::uint64_t emit_ns = sink.inside_emit_ns() - emit_before;
      const std::uint64_t nested_ns = sampler.sampled_ns(Op::kProfile) +
                                      sampler.sampled_ns(Op::kFreqTable) -
                                      nested_before + exact_ns() -
                                      exact_before;
      sampler.add(Op::kMapUser, map_ns - std::min(map_ns, emit_ns));
      sampler.add(Op::kEmit, emit_ns - std::min(emit_ns, nested_ns));
      ++offset;
    }
    const std::uint64_t loop_ns = monotonic_ns() - loop_start;
    const std::uint64_t loop_exact = exact_ns() - loop_exact_start;
    sampler.split(loop_ns - std::min(loop_ns, loop_exact), metrics);

    if (freq != nullptr) {
      // The end-of-input table flush puts into the ring: timed once, as
      // kEmit less the exact events it sets off.
      const std::uint64_t exact_before = exact_ns();
      const std::uint64_t finish_start = monotonic_ns();
      freq->finish();
      const std::uint64_t finish_ns = monotonic_ns() - finish_start;
      metrics.op_ns(Op::kEmit) +=
          finish_ns - std::min(finish_ns, exact_ns() - exact_before);
      result_.freq_stage_at_end = freq->stage();
      result_.freq_sampling_fraction = freq->effective_sampling_fraction();
    }
  }

  /// Sort mode: the map thread fills the spill ring while one support
  /// thread sorts, combines and writes each sealed spill — Hadoop's
  /// 1-map/1-support pipeline that the paper instruments (§II-C2) and
  /// the spill-matcher tunes (§IV).
  std::vector<io::SpillRunInfo> run_sort() {
    obs::TraceBuffer* buffer_trace = nullptr;
    obs::TraceBuffer* support_trace = nullptr;
    if (config_.trace != nullptr) {
      buffer_trace = config_.trace->make_buffer(
          trace_pid(), obs::kSpillBufferTid, "spill-buffer");
      support_trace = config_.trace->make_buffer(
          trace_pid(), obs::kSupportThreadTidBase, "support-0");
    }

    SpillBuffer buffer(config_.spill_buffer_bytes, config_.spill_threshold,
                       /*max_outstanding=*/1, io::SpillFormat::kCompactVarint,
                       buffer_trace);

    // The support thread writes result_.support_thread and, through its
    // own combiner, result_.counters; the map thread reads neither until
    // after the join. Its runs (in spill order) and error go through
    // `shared`: the join makes the later reads safe too, but the analysis
    // cannot see a join.
    struct SupportShared {
      textmr::Mutex mu{textmr::LockRank::kMapTask, "mr.map_task.support"};
      std::vector<io::SpillRunInfo> runs TEXTMR_GUARDED_BY(mu);
      std::exception_ptr error TEXTMR_GUARDED_BY(mu);
    };
    SupportShared shared;
    std::unique_ptr<Reducer> support_combiner =
        config_.combiner ? config_.combiner() : nullptr;
    if (support_combiner != nullptr) {
      support_combiner->begin_task(
          TaskInfo{config_.task_id, &result_.counters});
    }
    std::thread support([&] {
      try {
        while (auto spill = buffer.take()) {
          obs::SpanTimer spill_span(support_trace, "spill", "spill_consume");
          spill_span.arg("sequence", static_cast<double>(spill->sequence));
          spill_span.arg("records",
                         static_cast<double>(spill->records.size()));
          spill_span.arg("data_bytes",
                         static_cast<double>(spill->data_bytes));
          const std::uint64_t consume_start = monotonic_ns();
          auto info = sort_and_spill(
              *spill, support_combiner.get(),
              scratch_path("spill" + std::to_string(spill->sequence) + ".run"),
              config_.num_partitions, io::SpillFormat::kCompactVarint,
              result_.support_thread, support_trace);
          const std::uint64_t consume_ns = monotonic_ns() - consume_start;
          buffer.release(*spill, consume_ns);
          if (config_.use_spill_matcher) {
            const double next =
                spillmatch::next_threshold(spill->produce_ns, consume_ns);
            buffer.set_threshold(next);
            // The spill-matcher's decision, with the measured T_p / T_c
            // it was derived from (paper eq. (1)).
            obs::record_instant(
                support_trace, "spill", "threshold_update", "tp_ms",
                static_cast<double>(spill->produce_ns) * 1e-6, "tc_ms",
                static_cast<double>(consume_ns) * 1e-6, "threshold", next);
          }
          textmr::MutexLock lock(shared.mu);
          shared.runs.push_back(std::move(info));
        }
      } catch (...) {
        {
          textmr::MutexLock lock(shared.mu);
          shared.error = std::current_exception();
        }
        // Unblock the producer: its puts would otherwise wait forever for
        // releases that will never come. Outside the lock — abort() takes
        // the buffer's own mutex and needs no ordering with `shared.mu`.
        buffer.abort();
      }
    });

    auto support_error = [&shared]() -> std::exception_ptr {
      textmr::MutexLock lock(shared.mu);
      return shared.error;
    };
    try {
      map_split(nullptr, &buffer);
    } catch (...) {
      // Map-side failure (user code or a support-thread abort surfacing
      // through put()): shut the pipeline down, join, and report the root
      // cause — the support thread's error wins if both failed.
      buffer.abort();
      support.join();
      if (auto error = support_error()) std::rethrow_exception(error);
      throw;
    }
    buffer.close();
    const std::uint64_t drain_start = monotonic_ns();
    support.join();
    const std::uint64_t drain_ns = monotonic_ns() - drain_start;
    if (auto error = support_error()) std::rethrow_exception(error);

    // The map thread is idle (paper Table II) while the ring is full —
    // map_split left those waits out of its ops — and while the support
    // thread drains the spills still queued at end of input.
    result_.map_thread.op_ns(Op::kMapIdle) +=
        buffer.producer_wait_ns() + drain_ns;
    result_.support_thread.op_ns(Op::kSupportIdle) += buffer.consumer_wait_ns();
    result_.spills = buffer.spills_sealed();
    result_.final_spill_threshold = buffer.threshold();
    textmr::MutexLock lock(shared.mu);
    return std::move(shared.runs);
  }

  /// FreqOpt's table: the default shards, splitting exactly the budget
  /// the engine carved out of the ring. The hash_combine_* settings and
  /// the watermark floor are hash mode's and do not reshape it.
  HashCombineConfig freq_table_config() const {
    HashCombineConfig table;
    table.watermark_bytes = std::max<std::size_t>(
        1, config_.freq_table_budget_bytes / table.num_shards);
    table.num_partitions = config_.num_partitions;
    return table;
  }

  /// Hash mode (DESIGN.md §15): no ring, no support thread — the map
  /// thread combines every emitted record straight into the shard tables,
  /// which take every key and inherit the ring's budget. Sorting happens
  /// at flush time (radix over the key prefix), so the task's serialized
  /// work drops the per-record comparison sort.
  std::vector<io::SpillRunInfo> run_hash() {
    HashCombineConfig hash_config;
    hash_config.num_shards = config_.hash_combine_shards;
    hash_config.watermark_bytes = config_.hash_combine_watermark_bytes;
    hash_config.memory_budget_bytes = config_.spill_buffer_bytes;
    hash_config.num_partitions = config_.num_partitions;
    HashCombineShards table(
        hash_config, map_combiner_.get(),
        [this](std::uint64_t sequence) {
          return scratch_path("hspill" + std::to_string(sequence) + ".run");
        },
        result_.map_thread, map_trace_);
    map_split(&table, nullptr);
    std::vector<io::SpillRunInfo> runs = table.finish();
    TaskMetrics& metrics = result_.map_thread;
    metrics.hash_combine_hits += table.stats().hits;
    metrics.hash_combine_flushes += table.stats().flushes;
    result_.spills = runs.size();
    return runs;
  }

  /// Adopts (single run) or merges (several) the task's sorted runs into
  /// its final output. A hash-combine run and a sort-spill run are
  /// byte-compatible by construction.
  void finish_output(std::vector<io::SpillRunInfo>& runs) {
    const std::string out_path = scratch_path("output.run");
    if (runs.empty()) {
      // No output at all: write an empty run so downstream cursors work.
      io::SpillRunWriter writer(out_path, config_.num_partitions);
      result_.output = writer.finish();
    } else if (runs.size() == 1) {
      // Single run: it is already sorted and combined; adopt it (Hadoop
      // does the same rename). The hash path's no-pressure case lands here
      // every time — its finish() emits one globally sorted run.
      std::filesystem::rename(runs.front().path, out_path);
      result_.output = runs.front();
      result_.output.path = out_path;
      result_.map_thread.merged_records += result_.output.records;
      result_.map_thread.merged_bytes += result_.output.bytes;
    } else {
      obs::SpanTimer merge_span(map_trace_, "task", "map_merge");
      merge_span.arg("runs", static_cast<double>(runs.size()));
      result_.output =
          merge_runs(runs, map_combiner_.get(), out_path,
                     config_.num_partitions, io::SpillFormat::kCompactVarint,
                     result_.map_thread);
      merge_span.arg("records", static_cast<double>(result_.output.records));
      if (!config_.keep_spill_runs) {
        for (const auto& run : runs) {
          std::error_code ec;
          std::filesystem::remove(run.path, ec);
        }
      }
    }
  }

  const MapTaskConfig& config_;
  const std::uint64_t task_start_;
  const HashPartitioner partitioner_;
  obs::TraceBuffer* map_trace_ = nullptr;  // null when tracing is off
  Counters map_counters_;  // user counters of the mapper and map combiner
  std::unique_ptr<Reducer> map_combiner_;  // combine table + final merge
  MapTaskResult result_;
};

}  // namespace

std::string map_attempt_prefix(std::uint32_t task_id, std::uint32_t attempt) {
  return "map" + std::to_string(task_id) + "_a" + std::to_string(attempt) +
         "_";
}

MapTaskResult run_map_task(const MapTaskConfig& config) {
  TEXTMR_CHECK(static_cast<bool>(config.mapper), "map task needs a mapper");
  TEXTMR_CHECK(config.num_partitions >= 1, "map task needs >= 1 partition");
  if (config.freqbuf.enabled && config.combine_mode == CombineMode::kHash) {
    throw ConfigError(kFreqWithHashError);
  }
  std::filesystem::create_directories(config.scratch_dir);
  return MapTask(config).run();
}

}  // namespace textmr::mr
