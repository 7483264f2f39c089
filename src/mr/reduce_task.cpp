#include "mr/reduce_task.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/stopwatch.hpp"
#include "mr/merger.hpp"
#include "mr/record_arena.hpp"

namespace textmr::mr {
namespace {

/// Buffered text output writer for final results: `key \t value \n`.
/// Per-record appends are timed only in the reduce task's timed groups
/// (into `sampler`); buffer flushes and close() time themselves exactly
/// into `metrics`.
class PartFileWriter final : public EmitSink {
 public:
  PartFileWriter(const std::filesystem::path& path, TaskMetrics& metrics,
                 OpSampler& sampler)
      : metrics_(metrics), sampler_(sampler) {
    file_ = std::fopen(path.string().c_str(), "wb");
    if (file_ == nullptr) {
      throw IoError("cannot create output file " + path.string());
    }
    buffer_.reserve(kFlushBytes + 4096);
  }

  ~PartFileWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  PartFileWriter(const PartFileWriter&) = delete;
  PartFileWriter& operator=(const PartFileWriter&) = delete;

  void emit(std::string_view key, std::string_view value) override {
    if (!sampler_.timing()) {
      append(key, value);
    } else {
      const std::uint64_t t0 = monotonic_ns();
      append(key, value);
      sampler_.add(Op::kOutputWrite, monotonic_ns() - t0);
    }
    metrics_.output_records += 1;
    metrics_.output_bytes += key.size() + value.size() + 2;
    if (buffer_.size() >= kFlushBytes) {
      ScopedTimer timer(metrics_, Op::kOutputWrite);
      flush();
    }
  }

  void close() {
    ScopedTimer timer(metrics_, Op::kOutputWrite);
    flush();
    if (std::fclose(file_) != 0) {
      file_ = nullptr;
      throw IoError("close failed for reduce output");
    }
    file_ = nullptr;
  }

 private:
  static constexpr std::size_t kFlushBytes = 1 << 18;

  /// Buffering only, no I/O.
  void append(std::string_view key, std::string_view value) {
    buffer_.append(key.data(), key.size());
    buffer_.push_back('\t');
    buffer_.append(value.data(), value.size());
    buffer_.push_back('\n');
  }

  void flush() {
    if (buffer_.empty()) return;
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size()) {
      throw IoError("short write to reduce output");
    }
    buffer_.clear();
  }

  TaskMetrics& metrics_;
  OpSampler& sampler_;
  std::FILE* file_;
  std::string buffer_;
};

/// A timed group's values: counts the ones reduce() pulls, so its time
/// can be scaled by records (group sizes are Zipf-skewed), and times each
/// pull, which is the merge's work behind that value.
class CountingValues final : public ValueStream {
 public:
  explicit CountingValues(ValueStream& values) : values_(values) {}

  std::optional<std::string_view> next() override {
    const std::uint64_t t0 = monotonic_ns();
    auto value = values_.next();
    pull_ns += monotonic_ns() - t0;
    if (value.has_value()) ++count;
    return value;
  }

  std::uint64_t count = 0;
  std::uint64_t pull_ns = 0;

 private:
  ValueStream& values_;
};

/// Sampled timing of the reduce task's group loop: the key groups the
/// sampler times, and how many input and output records they held.
struct ReduceTiming {
  OpSampler sampler;
  std::uint64_t input_records = 0;
  std::uint64_t output_records = 0;
};

/// Calls reduce() for one group; a timed group also measures its user
/// time (less its sink time and its value pulls, which are merge time)
/// and its record counts.
void call_reduce(Reducer& reducer, std::string_view key, ValueStream& values,
                 EmitSink& out, TaskMetrics& metrics, ReduceTiming& timing) {
  metrics.reduce_groups += 1;
  if (!timing.sampler.timing()) {
    reducer.reduce(key, values, out);
    return;
  }
  // The group's wall holds its sink time, sampled and exact (flushes).
  const std::uint64_t sink_before =
      timing.sampler.sampled_ns(Op::kOutputWrite) +
      metrics.op_ns(Op::kOutputWrite);
  const std::uint64_t output_before = metrics.output_records;
  CountingValues counted(values);
  const std::uint64_t t0 = monotonic_ns();
  reducer.reduce(key, counted, out);
  const std::uint64_t elapsed = monotonic_ns() - t0;
  const std::uint64_t sink_ns = timing.sampler.sampled_ns(Op::kOutputWrite) +
                                metrics.op_ns(Op::kOutputWrite) - sink_before;
  const std::uint64_t not_user_ns = sink_ns + counted.pull_ns;
  timing.sampler.add(Op::kReduceUser,
                     elapsed - std::min(elapsed, not_user_ns));
  // Values reduce() left unread still belong to the group.
  while (counted.next().has_value()) {
  }
  timing.sampler.add(Op::kReduceMerge, counted.pull_ns);
  timing.input_records += counted.count;
  timing.output_records += metrics.output_records - output_before;
}

}  // namespace

std::filesystem::path reduce_attempt_tmp_path(
    const std::filesystem::path& output_path, std::uint32_t attempt) {
  return output_path.string() + ".a" + std::to_string(attempt) + ".tmp";
}

ReduceTaskResult run_reduce_task(const ReduceTaskConfig& config) {
  TEXTMR_CHECK(static_cast<bool>(config.reducer), "reduce task needs reducer");
  ReduceTaskResult result;
  result.output_path = config.output_path;
  const std::uint64_t task_start = monotonic_ns();
  TaskMetrics& metrics = result.metrics;

  obs::TraceBuffer* trace =
      config.trace != nullptr
          ? config.trace->make_buffer(
                obs::reduce_task_pid(config.partition),
                obs::kReduceThreadTid, "reduce",
                "reduce_" + std::to_string(config.partition))
          : nullptr;
  obs::SpanTimer task_span(trace, "task", "reduce_task");

  // ---- shuffle: fetch this partition from every map output --------------
  // In a cluster this is the over-the-network copy phase; here it is a
  // local read whose byte volume the simulator later prices as network
  // transfer. Each map output contributes one bulk read, decoded in place
  // into RecordRefs — no per-record copies. Records arrive sorted per map
  // output. The merge reads FetchedRun::bytes in place, so runs are built
  // in place (a string move could relocate a small buffer via SSO).
  std::vector<FetchedRun> fetched;
  fetched.reserve(config.map_outputs.size());
  {
    obs::SpanTimer shuffle_span(trace, "task", "shuffle");
    ScopedTimer shuffle_timer(metrics, Op::kShuffle);
    std::uint32_t run_index = 0;
    for (const auto& run : config.map_outputs) {
      fetched.emplace_back();
      FetchedRun& fetch = fetched.back();
      if (config.fetch) {
        obs::SpanTimer fetch_span(trace, "task", "shuffle_fetch");
        ShuffleFetchResult pulled =
            config.fetch(run_index, run, config.partition);
        fetch.bytes = std::move(pulled.bytes);
        if (pulled.over_wire) {
          metrics.shuffled_wire_bytes += fetch.bytes.size();
        }
        fetch_span.arg("bytes", static_cast<double>(fetch.bytes.size()));
        fetch_span.arg("over_wire", pulled.over_wire ? 1.0 : 0.0);
      } else {
        io::SpillRunReader reader(run.path);
        fetch.bytes = reader.read_partition(config.partition);
      }
      fetch.refs = index_frames(fetch.bytes, config.partition);
      metrics.shuffled_bytes += fetch.bytes.size();
      metrics.reduce_input_records += fetch.refs.size();
      ++run_index;
    }
    shuffle_span.arg("bytes", static_cast<double>(metrics.shuffled_bytes));
    shuffle_span.arg("records",
                     static_cast<double>(metrics.reduce_input_records));
  }

  std::unique_ptr<Reducer> reducer = config.reducer();
  reducer->begin_task(TaskInfo{config.partition, &result.counters});
  // Crash consistency: write to an attempt temp file, rename onto the
  // final name only after a successful close. A failed attempt leaves the
  // final path untouched (and its temp is removed by the engine).
  const std::filesystem::path tmp_path =
      reduce_attempt_tmp_path(config.output_path, config.attempt);
  ReduceTiming timing;
  PartFileWriter out(tmp_path, metrics, timing.sampler);

  obs::SpanTimer apply_span(trace, "task", "reduce_apply");
  // The loop's wall is read once at each end. Sink flushes time
  // themselves exactly. The rest is split across the merge (kReduceMerge:
  // finding each group and pulling its values), reduce() and per-record
  // sink work in the shares of the timed groups, each scaled by the
  // exact record count it grows with — group sizes are Zipf-skewed, so a
  // count of groups would misweigh them.
  const std::uint64_t loop_start = monotonic_ns();
  const std::uint64_t flush_before = metrics.op_ns(Op::kOutputWrite);
  MergeStream stream(fetched);
  KeyGroups groups(stream);
  while (true) {
    const bool timed = timing.sampler.next();
    const std::uint64_t t0 = timed ? monotonic_ns() : 0;
    const std::optional<std::string_view> key = groups.next_group();
    if (timed) timing.sampler.add(Op::kReduceMerge, monotonic_ns() - t0);
    if (!key.has_value()) break;
    call_reduce(*reducer, *key, groups.values(), out, metrics, timing);
  }
  const std::uint64_t loop_ns = monotonic_ns() - loop_start;
  const std::uint64_t flush_ns =
      metrics.op_ns(Op::kOutputWrite) - flush_before;
  const OpSampler& sampled = timing.sampler;
  OpSampler shares;
  for (const Op op : {Op::kReduceMerge, Op::kReduceUser}) {
    shares.add(op, OpSampler::scale(sampled.sampled_ns(op),
                                    timing.input_records,
                                    metrics.reduce_input_records));
  }
  shares.add(Op::kOutputWrite,
             OpSampler::scale(sampled.sampled_ns(Op::kOutputWrite),
                              timing.output_records, metrics.output_records));
  shares.split(loop_ns - std::min(loop_ns, flush_ns), metrics);
  apply_span.done();
  {
    obs::SpanTimer close_span(trace, "task", "output_close");
    out.close();
  }
  TEXTMR_FAILPOINT("reduce.output_rename");
  std::filesystem::rename(tmp_path, config.output_path);
  result.wall_ns = monotonic_ns() - task_start;
  return result;
}

}  // namespace textmr::mr
