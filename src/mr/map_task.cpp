#include "mr/map_task.hpp"

#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"
#include "mr/hash_combine.hpp"
#include "mr/merger.hpp"
#include "mr/skew_partitioner.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {
namespace {

/// The tail of the map-side dataflow: partitions each record and adds it
/// to the task's store — the spill ring in sort mode, the shard hash
/// tables in hash mode. Used directly by the frequency table's overflow /
/// flush path and by the user-facing router below. Both modes consult the
/// partitioner here, per record: a skew plan's split-key round-robin
/// cursor must advance identically in both for byte-identical output.
/// It reads no clock: its time is part of the router's sampled emit
/// interval (map_split).
template <typename Store, void (Store::*kAdd)(std::uint32_t, std::string_view,
                                              std::string_view)>
class DirectSink final : public EmitSink {
 public:
  DirectSink(Store& store, SkewAwarePartitioner& partitioner,
             TaskMetrics& metrics)
      : store_(store), partitioner_(partitioner), metrics_(metrics) {}

  void emit(std::string_view key, std::string_view value) override {
    metrics_.spill_input_records += 1;
    metrics_.spill_input_bytes += key.size() + value.size();
    (store_.*kAdd)(partitioner_(key), key, value);
  }

 private:
  Store& store_;
  // Non-const: the split-key round-robin cursor advances per record.
  // With a null plan this is exactly the old HashPartitioner path.
  SkewAwarePartitioner& partitioner_;
  TaskMetrics& metrics_;
};

using DirectSpillSink = DirectSink<SpillBuffer, &SpillBuffer::put>;
using DirectHashSink =
    DirectSink<HashCombineShards, &HashCombineShards::insert>;

/// The sink handed to user map() code: counts output volume, routes
/// through frequency-buffering when active, and otherwise forwards to the
/// direct sink (ring or hash table). On a timed line it also times itself.
class EmitRouter final : public EmitSink {
 public:
  EmitRouter(EmitSink& spill_sink, freqbuf::FreqBufferController* freq,
             TaskMetrics& metrics, const OpSampler& sampler)
      : spill_sink_(spill_sink), freq_(freq), metrics_(metrics),
        sampler_(sampler) {}

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
    if (freq_ == nullptr || !freq_->offer(key, value)) {
      spill_sink_.emit(key, value);
    }
  }

  EmitSink& spill_sink_;
  freqbuf::FreqBufferController* freq_;
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
        partitioner_(config.skew_plan != nullptr
                         ? config.skew_plan->num_canonical
                         : config.num_partitions,
                     config.skew_plan, config.task_id) {
    TEXTMR_CHECK(partitioner_.num_partitions() == config.num_partitions,
                 "map task num_partitions disagrees with the skew plan");
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
  /// emitted record goes through frequency-buffering (when enabled) into
  /// `sink`. `buffer` is sort mode's spill ring (null in hash mode).
  ///
  /// Timing (DESIGN.md §5b): counts are exact, the clock is sampled. The
  /// loop's wall is read once at each end. Its rare events time
  /// themselves exactly: ring waits, hash-shard flushes and freq-table
  /// combines. The rest of the wall is split across read, user map,
  /// emit, profile and freq-table in the shares measured on timed lines,
  /// so the thread's ops sum to the loop's wall.
  void map_split(EmitSink& sink, const SpillBuffer* buffer) {
    TaskMetrics& metrics = result_.map_thread;
    OpSampler sampler;
    std::unique_ptr<freqbuf::FreqBufferController> freq;
    if (config_.freqbuf.enabled) {
      freq = std::make_unique<freqbuf::FreqBufferController>(
          config_.freqbuf, config_.freq_table_budget_bytes,
          map_combiner_.get(), sink, metrics, config_.node_cache, map_trace_,
          &sampler);
    }
    EmitRouter router(sink, freq.get(), metrics, sampler);
    // Exactly timed nanoseconds so far: what the rare events added to the
    // thread's ops, plus the ring waits run_sort books as kMapIdle.
    auto exact_ns = [&metrics, buffer] {
      return metrics.total_ns(/*include_idle=*/true) +
             (buffer != nullptr ? buffer->producer_wait_ns() : 0);
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
      if (config_.progress != nullptr) {
        config_.progress->store(reader.fraction_consumed(),
                                std::memory_order_relaxed);
      }
      TEXTMR_FAILPOINT("map.user_code");
      if (!timed) {
        mapper->map(offset, *line, router);
        ++offset;
        continue;
      }
      // A timed line: map()'s wall is user code plus its emits, and the
      // emits hold profile and freq-table time and the exact events they
      // set off, all of which are booked elsewhere.
      const std::uint64_t exact_before = exact_ns();
      const std::uint64_t emit_before = router.inside_emit_ns();
      const std::uint64_t nested_before = sampler.sampled_ns(Op::kProfile) +
                                          sampler.sampled_ns(Op::kFreqTable);
      const std::uint64_t map_start = monotonic_ns();
      mapper->map(offset, *line, router);
      const std::uint64_t map_ns = monotonic_ns() - map_start;
      const std::uint64_t emit_ns = router.inside_emit_ns() - emit_before;
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
      // The end-of-input table flush emits into the store: timed once,
      // as kEmit less the exact events it sets off.
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

    // Spill policy (fixed 0.8 unless the job installed the spill-matcher).
    std::unique_ptr<spillmatch::SpillPolicy> policy =
        config_.spill_policy
            ? config_.spill_policy()
            : std::make_unique<spillmatch::FixedSpillPolicy>();
    SpillBuffer buffer(config_.spill_buffer_bytes, policy->initial_threshold(),
                       /*max_outstanding=*/1, config_.spill_format,
                       buffer_trace);

    // The support thread writes result_.support_thread and, through its
    // own combiner, result_.counters; the map thread reads neither until
    // after the join. Its runs (in spill order) and error go through
    // `shared`: the join makes the later reads safe too, but the analysis
    // cannot see a join. kMapTask ranks below kSpillBuffer: the support
    // thread consults the spill policy (and re-enters the buffer to apply
    // its threshold) while holding `shared.mu`.
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
              config_.num_partitions, config_.spill_format,
              result_.support_thread, support_trace);
          const std::uint64_t consume_ns = monotonic_ns() - consume_start;
          buffer.release(*spill, consume_ns);
          textmr::MutexLock lock(shared.mu);
          shared.runs.push_back(std::move(info));
          if (auto timing = buffer.last_timing(); timing.has_value()) {
            const double next = policy->next_threshold(spillmatch::Timing{
                timing->produce_ns, timing->consume_ns, timing->data_bytes});
            buffer.set_threshold(next);
            // The spill-matcher's decision, with the measured T_p / T_c
            // it was derived from (paper eq. (1)).
            obs::record_instant(
                support_trace, "spill", "threshold_update", "tp_ms",
                static_cast<double>(timing->produce_ns) * 1e-6, "tc_ms",
                static_cast<double>(timing->consume_ns) * 1e-6, "threshold",
                next);
          }
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
    DirectSpillSink sink(buffer, partitioner_, result_.map_thread);
    try {
      map_split(sink, &buffer);
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

  /// Hash mode (DESIGN.md §15): no ring, no support thread — the map
  /// thread combines every emitted record straight into the shard tables.
  /// Sorting happens at flush time (radix over the key prefix), so the
  /// task's serialized work drops the per-record comparison sort.
  std::vector<io::SpillRunInfo> run_hash() {
    HashCombineConfig hash_config;
    hash_config.num_shards = config_.hash_combine_shards;
    hash_config.watermark_bytes = config_.hash_combine_watermark_bytes;
    hash_config.demote_after_flushes = config_.hash_combine_demote_flushes;
    hash_config.memory_budget_bytes = config_.spill_buffer_bytes;
    hash_config.num_partitions = config_.num_partitions;
    hash_config.format = config_.spill_format;
    HashCombineShards table(
        hash_config, map_combiner_.get(),
        [this](std::uint64_t sequence) {
          return scratch_path("hspill" + std::to_string(sequence) + ".run");
        },
        result_.map_thread, map_trace_);
    DirectHashSink sink(table, partitioner_, result_.map_thread);
    map_split(sink, nullptr);
    std::vector<io::SpillRunInfo> runs = table.finish();
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
      io::SpillRunWriter writer(out_path, config_.num_partitions,
                                config_.spill_format);
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
                     config_.num_partitions, config_.spill_format,
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
  SkewAwarePartitioner partitioner_;
  obs::TraceBuffer* map_trace_ = nullptr;  // null when tracing is off
  Counters map_counters_;  // user counters of the mapper and map combiner
  std::unique_ptr<Reducer> map_combiner_;  // freqbuf flushes + final merge
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
  std::filesystem::create_directories(config.scratch_dir);
  return MapTask(config).run();
}

}  // namespace textmr::mr
