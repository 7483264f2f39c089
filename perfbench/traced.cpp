// The traced run: one job whose layers are timed from outside the
// library, followed by replays that drive single layers on the same
// inputs. Spans come only from this file, around calls into each layer's
// public functions; counts come from the program's own exact counters.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "cluster/shuffle_client.hpp"
#include "cluster/shuffle_server.hpp"
#include "mr/hash_combine.hpp"
#include "mr/merger.hpp"
#include "mr/partitioner.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"
#include "mr/task_runner.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

// One call in N is timed, together with every emit made inside it, and
// scaled by the exact call count: a clock read per WordCount emit would
// roughly double emit cost. Sort-mode combine calls and reduce calls are
// all timed, since their cost follows Zipf-skewed group sizes, which
// sampling misses; hash-mode combine-on-insert calls fold two values each
// and are sampled like map() calls.
constexpr std::uint64_t kSample = 8;

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  std::uint32_t thread = 0;  // slot index; 0 for the coordinating thread
  std::uint32_t task = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t ns() const { return end_ns - start_ns; }
};

/// In-memory span store for one traced job; written out at the end.
class SpanLog {
 public:
  void add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> named(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& span : spans_) {
      if (span.name == name) out.push_back(span);
    }
    return out;
  }
  void write_jsonl(const fs::path& path, const std::string& run_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    for (const auto& span : spans_) {
      out << "{\"run\": \"" << run_id << "\", \"name\": \"" << span.name
          << "\", \"thread\": " << span.thread << ", \"task\": " << span.task
          << ", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << "}\n";
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times `fn` as one span and returns its result.
template <typename Fn>
auto timed(SpanLog& log, std::string name, std::uint32_t thread,
           std::uint32_t task, Fn&& fn) {
  Span span{std::move(name), thread, task, monotonic_ns(), 0};
  struct Close {
    SpanLog& log;
    Span& span;
    ~Close() {
      span.end_ns = monotonic_ns();
      log.add(span);
    }
  } close{log, span};
  return fn();
}

/// Times `fn` as one span of the coordinating thread; returns seconds.
template <typename Fn>
double span_s(SpanLog& log, std::string name, std::uint32_t task, Fn&& fn) {
  const std::uint64_t start = monotonic_ns();
  timed(log, std::move(name), 0, task, [&] {
    fn();
    return 0;
  });
  return secs(monotonic_ns() - start);
}

// ---- user-code decorators ---------------------------------------------------

/// Cost of one monotonic_ns() read, measured once. A timed emit puts
/// two reads inside the timed call and about one inside its own interval;
/// both are taken back out.
std::uint64_t clock_read_ns() {
  static const std::uint64_t cost = [] {
    constexpr int kReads = 200000;
    const std::uint64_t start = monotonic_ns();
    for (int i = 0; i < kReads; ++i) (void)monotonic_ns();
    return (monotonic_ns() - start) / kReads;
  }();
  return cost;
}

/// Sampled timing of one user-code role (map, combine or reduce) and of
/// the EmitSink::emit calls made from inside the timed calls.
struct RoleStats {
  std::uint64_t calls = 0;
  std::uint64_t emits = 0;  // every emit, timed or not
  std::uint64_t emit_bytes = 0;
  std::uint64_t timed_calls = 0;
  std::uint64_t timed_call_ns = 0;
  std::uint64_t timed_emit_ns = 0;  // emits inside the timed calls

  RoleStats& operator+=(const RoleStats& o) {
    calls += o.calls;
    emits += o.emits;
    emit_bytes += o.emit_bytes;
    timed_calls += o.timed_calls;
    timed_call_ns += o.timed_call_ns;
    timed_emit_ns += o.timed_emit_ns;
    return *this;
  }
  double scale() const {
    return ratio(static_cast<double>(calls), static_cast<double>(timed_calls));
  }
  double emit_s() const { return secs(timed_emit_ns) * scale(); }
  /// User code alone: the calls minus the emits made inside them.
  double self_s() const {
    return secs(timed_call_ns - std::min(timed_call_ns, timed_emit_ns)) *
           scale();
  }
};

/// Collects the decorators' stats as their task instances finish.
struct StatsSink {
  std::mutex mu;
  RoleStats map;
  RoleStats combine;
  RoleStats reduce;
};

/// Counts every emit of the wrapped user code; times those made while a
/// sampled call is in progress.
class EmitTap final : public mr::EmitSink {
 public:
  EmitTap(RoleStats& stats, std::uint64_t sample)
      : stats_(stats), sample_(sample) {}
  void emit(std::string_view key, std::string_view value) override {
    ++stats_.emits;
    stats_.emit_bytes += key.size() + value.size();
    if (!timing_) {
      out_->emit(key, value);
      return;
    }
    const std::uint64_t start = monotonic_ns();
    out_->emit(key, value);
    const std::uint64_t ns = monotonic_ns() - start;
    stats_.timed_emit_ns += ns - std::min(ns, clock_read_ns());
    ++timed_in_call_;
  }

  /// Runs `call` against `out`, timing it (and its emits) when sampled.
  template <typename Call>
  void run(mr::EmitSink& out, Call&& call) {
    out_ = &out;
    if (stats_.calls++ % sample_ != 0) {
      call(*this);
      return;
    }
    timing_ = true;
    timed_in_call_ = 0;
    const std::uint64_t start = monotonic_ns();
    call(*this);
    const std::uint64_t ns = monotonic_ns() - start;
    timing_ = false;
    const std::uint64_t overhead = 2 * clock_read_ns() * timed_in_call_;
    stats_.timed_call_ns += ns - std::min(ns, overhead);
    ++stats_.timed_calls;
  }

 private:
  RoleStats& stats_;
  const std::uint64_t sample_;
  mr::EmitSink* out_ = nullptr;
  bool timing_ = false;
  std::uint64_t timed_in_call_ = 0;
};

class TimedMapper final : public mr::Mapper {
 public:
  TimedMapper(std::unique_ptr<mr::Mapper> inner, StatsSink& sink)
      : inner_(std::move(inner)), sink_(sink) {}
  ~TimedMapper() override {
    std::lock_guard<std::mutex> lock(sink_.mu);
    sink_.map += stats_;
  }
  void begin_task(const mr::TaskInfo& info) override {
    inner_->begin_task(info);
  }
  void map(std::uint64_t offset, std::string_view line,
           mr::EmitSink& out) override {
    tap_.run(out, [&](mr::EmitSink& tap) { inner_->map(offset, line, tap); });
  }

 private:
  std::unique_ptr<mr::Mapper> inner_;
  StatsSink& sink_;
  RoleStats stats_;
  EmitTap tap_{stats_, kSample};
};

/// Decorates a combiner or a reducer (`combine` picks the role).
class TimedReducer final : public mr::Reducer {
 public:
  TimedReducer(std::unique_ptr<mr::Reducer> inner, StatsSink& sink,
               bool combine, std::uint64_t sample)
      : inner_(std::move(inner)), sink_(sink), combine_(combine),
        tap_(stats_, sample) {}
  ~TimedReducer() override {
    std::lock_guard<std::mutex> lock(sink_.mu);
    (combine_ ? sink_.combine : sink_.reduce) += stats_;
  }
  void begin_task(const mr::TaskInfo& info) override {
    inner_->begin_task(info);
  }
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override {
    tap_.run(out,
             [&](mr::EmitSink& tap) { inner_->reduce(key, values, tap); });
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  StatsSink& sink_;
  bool combine_;
  RoleStats stats_;
  EmitTap tap_;
};

void decorate(mr::JobSpec& spec, const apps::AppBundle& app, StatsSink& stats) {
  spec.mapper = [&stats, f = app.mapper] {
    return std::make_unique<TimedMapper>(f(), stats);
  };
  spec.reducer = [&stats, f = app.reducer] {
    return std::make_unique<TimedReducer>(f(), stats, false, 1);
  };
  if (app.combiner) {
    const std::uint64_t sample =
        spec.combine_mode == mr::CombineMode::kHash ? kSample : 1;
    spec.combiner = [&stats, f = app.combiner, sample] {
      return std::make_unique<TimedReducer>(f(), stats, true, sample);
    };
  }
}

// ---- the traced job ---------------------------------------------------------

struct TracedJob {
  mr::JobResult result;
  double wall_s = 0.0;
  double map_phase_s = 0.0;
  double reduce_phase_s = 0.0;
  std::vector<double> map_task_s;     // per map task
  std::vector<double> reduce_task_s;  // per reduce task
  std::uint32_t map_slots = 1;
  double covered_s = 0.0;  // job wall covered by some layer span
};

/// Runs `body(slot)` on `slots` threads (inline for one) and joins them.
template <typename Body>
void on_slots(std::uint32_t slots, Body&& body) {
  if (slots == 1) {
    body(0u);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(slots);
  for (std::uint32_t s = 0; s < slots; ++s) threads.emplace_back(body, s);
  for (auto& t : threads) t.join();
}

/// Length of the union of the given intervals.
double union_s(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : iv) {
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return secs(total);
}

/// Drives a LocalEngine-shaped job through the public task_runner calls,
/// with a span around each one.
TracedJob run_local_traced(const mr::JobSpec& spec, SpanLog& log) {
  TracedJob job;
  mr::validate_job(spec);
  fs::create_directories(spec.scratch_dir);
  fs::create_directories(spec.output_dir);
  const std::uint64_t job_start = monotonic_ns();

  const mr::MemorySplit mem = timed(log, "engine.split_memory", 0, 0,
                                    [&] { return mr::split_memory(spec); });
  mr::RetryState retry;
  retry.max_attempts = spec.max_task_attempts;
  retry.backoff_base_ms = spec.retry_backoff_base_ms;

  const auto num_maps = static_cast<std::uint32_t>(spec.inputs.size());
  std::vector<mr::MapTaskResult> map_results(num_maps);
  const std::uint64_t map_start = monotonic_ns();
  {
    const std::uint32_t slots = std::min(spec.map_parallelism, num_maps);
    job.map_slots = slots;
    std::vector<freqbuf::NodeKeyCache> caches(slots);
    std::atomic<std::uint32_t> next{0};
    on_slots(slots, [&](std::uint32_t slot) {
      obs::TraceBuffer* no_trace = nullptr;
      while (!retry.job_failed.load()) {
        const std::uint32_t task = next.fetch_add(1);
        if (task >= num_maps) return;
        const bool ok = timed(log, "engine.map_task", slot, task, [&] {
          return mr::run_with_retries(
              retry, "map", task, nullptr, &no_trace, 0, 0, "",
              [&](std::uint32_t attempt) {
                map_results[task] = mr::run_map_task(mr::make_map_task_config(
                    spec, mem, task, attempt, &caches[slot], nullptr));
              },
              [&](std::uint32_t attempt) {
                mr::cleanup_map_attempt(spec, task, attempt);
              });
        });
        if (!ok) return;
      }
    });
    retry.rethrow_if_failed();
  }
  job.map_phase_s = secs(monotonic_ns() - map_start);
  std::vector<io::SpillRunInfo> map_outputs;
  for (const auto& task_result : map_results) {
    map_outputs.push_back(task_result.output);
    mr::fold_map_result(task_result, job.result);
  }

  std::vector<mr::ReduceTaskResult> reduce_results(spec.num_reducers);
  const std::uint64_t reduce_start = monotonic_ns();
  {
    std::atomic<std::uint32_t> next{0};
    on_slots(std::min(spec.reduce_parallelism, spec.num_reducers),
             [&](std::uint32_t slot) {
               obs::TraceBuffer* no_trace = nullptr;
               while (!retry.job_failed.load()) {
                 const std::uint32_t part = next.fetch_add(1);
                 if (part >= spec.num_reducers) return;
                 const auto out = mr::reduce_task_output_path(spec, nullptr, part);
                 const bool ok = timed(log, "engine.reduce_task", slot, part, [&] {
                   return mr::run_with_retries(
                       retry, "reduce", part, nullptr, &no_trace, 0, 0, "",
                       [&](std::uint32_t attempt) {
                         reduce_results[part] = mr::run_reduce_task(
                             mr::make_reduce_task_config(spec, part, attempt,
                                                         map_outputs, nullptr));
                       },
                       [&](std::uint32_t attempt) {
                         mr::cleanup_reduce_attempt(out, attempt);
                       });
                 });
                 if (!ok) return;
               }
             });
    retry.rethrow_if_failed();
  }
  job.reduce_phase_s = secs(monotonic_ns() - reduce_start);
  for (const auto& reduce_result : reduce_results) {
    mr::fold_reduce_result(reduce_result, job.result);
  }
  mr::note_partition_bytes(job.result, nullptr);
  job.result.metrics.task_attempts = retry.task_attempts.load();
  job.result.metrics.tasks_retried = retry.tasks_retried.load();
  const std::uint64_t job_end = monotonic_ns();
  job.wall_s = secs(job_end - job_start);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const char* name :
       {"engine.split_memory", "engine.map_task", "engine.reduce_task"}) {
    for (const auto& span : log.named(name)) {
      intervals.emplace_back(span.start_ns, span.end_ns);
    }
  }
  for (const auto& span : log.named("engine.map_task")) {
    job.map_task_s.push_back(secs(span.ns()));
  }
  for (const auto& span : log.named("engine.reduce_task")) {
    job.reduce_task_s.push_back(secs(span.ns()));
  }
  job.covered_s = union_s(std::move(intervals));
  return job;
}

/// The cluster job: one span around ClusterEngine::run; its phase walls
/// and task walls are the program's own (JobMetrics / task summaries).
TracedJob run_cluster_traced(const mr::JobSpec& spec, SpanLog& log) {
  TracedJob job;
  cluster::ClusterEngine engine(make_cluster_config());
  const std::uint64_t start = monotonic_ns();
  job.result = timed(log, "cluster.run", 0, 0, [&] { return engine.run(spec); });
  job.wall_s = secs(monotonic_ns() - start);
  const mr::JobMetrics& m = job.result.metrics;
  job.map_phase_s = secs(m.map_phase_wall_ns);
  job.reduce_phase_s = secs(m.reduce_phase_wall_ns);
  job.map_slots = kClusterWorkers;
  for (const auto& task : job.result.map_tasks) {
    job.map_task_s.push_back(secs(task.wall_ns));
  }
  for (const auto& task : job.result.reduce_tasks) {
    job.reduce_task_s.push_back(secs(task.wall_ns));
  }
  // The run span's children are the two phases; the rest is spawn,
  // handshake, dispatch and teardown.
  job.covered_s = job.map_phase_s + job.reduce_phase_s;
  return job;
}

// ---- replays ----------------------------------------------------------------

/// One task's map-output stream, captured by running the app's mapper
/// over its split into a recording sink.
struct Captured {
  struct Rec {
    std::uint32_t partition;
    std::uint32_t key_len;
    std::uint32_t value_len;
    std::size_t offset;
  };
  std::string bytes;
  std::vector<Rec> recs;
  std::string_view key(const Rec& r) const {
    return std::string_view(bytes).substr(r.offset, r.key_len);
  }
  std::string_view value(const Rec& r) const {
    return std::string_view(bytes).substr(r.offset + r.key_len, r.value_len);
  }
};

Captured capture_map_output(const apps::AppBundle& app,
                            const io::InputSplit& split) {
  class Recorder final : public mr::EmitSink {
   public:
    explicit Recorder(Captured& out) : out_(out) {}
    void emit(std::string_view key, std::string_view value) override {
      out_.recs.push_back({partitioner_(key),
                           static_cast<std::uint32_t>(key.size()),
                           static_cast<std::uint32_t>(value.size()),
                           out_.bytes.size()});
      out_.bytes.append(key);
      out_.bytes.append(value);
    }

   private:
    Captured& out_;
    mr::HashPartitioner partitioner_{kReducers};
  };
  Captured captured;
  Recorder recorder(captured);
  mr::Counters counters;
  auto mapper = app.mapper();
  mapper->begin_task(mr::TaskInfo{0, &counters});
  io::LineReader reader(split);
  std::uint64_t offset = 0;
  while (auto line = reader.next_line()) mapper->map(offset++, *line, recorder);
  return captured;
}

io::SpillRunInfo run_info(const fs::path& path) {
  const io::SpillRunReader reader(path.string());
  io::SpillRunInfo info;
  info.path = path.string();
  for (std::uint32_t p = 0; p < reader.num_partitions(); ++p) {
    info.partitions.push_back(reader.extent(p));
    info.bytes += reader.extent(p).bytes;
    info.records += reader.extent(p).records;
  }
  return info;
}

/// Kept spill runs of each map task, in sequence order.
std::map<std::uint32_t, std::vector<fs::path>> kept_runs(const fs::path& dir) {
  std::map<std::uint32_t, std::vector<std::pair<std::uint64_t, fs::path>>> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    unsigned task = 0, attempt = 0;
    unsigned long long seq = 0;
    if (std::sscanf(name.c_str(), "map%u_a%u_spill%llu.run", &task, &attempt, &seq) == 3 ||
        std::sscanf(name.c_str(), "map%u_a%u_hspill%llu.run", &task, &attempt, &seq) == 3) {
      found[task].emplace_back(seq, entry.path());
    }
  }
  std::map<std::uint32_t, std::vector<fs::path>> runs;
  for (auto& [task, list] : found) {
    std::sort(list.begin(), list.end());
    for (auto& [seq, path] : list) runs[task].push_back(path);
  }
  return runs;
}

struct Replays {
  double read_s = 0.0;  // all splits
  std::uint64_t read_bytes = 0;
  std::uint64_t tokens = 0;
  double tokenize_s = 0.0;
  double hash_insert_s = 0.0;
  std::uint64_t hash_records = 0;
  double hash_finish_s = 0.0;
  double sort_spill_s = 0.0;
  std::uint64_t sort_spill_records = 0;
  double merge_s = 0.0;
  std::uint64_t merge_records = 0;
  double runs_per_task = 0.0;
  double fetch_s = 0.0;
  std::uint64_t fetch_bytes = 0;
};

void replay_read(const mr::JobSpec& spec, SpanLog& log, Replays& r) {
  for (std::uint32_t t = 0; t < spec.inputs.size(); ++t) {
    r.read_s += span_s(log, "io.next_line_replay", t, [&] {
      io::LineReader reader(spec.inputs[t]);
      while (reader.next_line()) {
      }
    });
    r.read_bytes += spec.inputs[t].length;
  }
}

void replay_tokenize(const fs::path& corpus, SpanLog& log, Replays& r) {
  std::ifstream file(corpus, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text.data() + pos, end - pos);
    pos = end + 1;
  }
  std::string scratch;
  r.tokenize_s = span_s(log, "text.for_each_token_replay", 0, [&] {
    for (const auto line : lines) {
      text::for_each_token(line, scratch, [&](std::string_view) { ++r.tokens; });
    }
  });
}

void replay_hash_combine(const mr::JobSpec& spec, const apps::AppBundle& app,
                         const Captured& cap, const fs::path& dir,
                         SpanLog& log, Replays& r) {
  mr::HashCombineConfig config;
  config.num_shards = spec.hash_combine_shards;
  config.watermark_bytes = spec.hash_combine_watermark_bytes;
  config.demote_after_flushes = spec.hash_combine_demote_flushes;
  config.memory_budget_bytes = mr::split_memory(spec).spill_buffer_bytes;
  config.num_partitions = spec.num_reducers;
  config.format = spec.spill_format;
  auto combiner = app.combiner();
  mr::Counters counters;
  combiner->begin_task(mr::TaskInfo{0, &counters});
  mr::TaskMetrics metrics;
  mr::HashCombineShards table(
      config, combiner.get(),
      [&dir](std::uint64_t seq) {
        return (dir / ("hash_replay" + std::to_string(seq) + ".run")).string();
      },
      metrics, nullptr);
  r.hash_insert_s = span_s(log, "hash_combine.insert_replay", 0, [&] {
    for (const auto& rec : cap.recs) {
      table.insert(rec.partition, cap.key(rec), cap.value(rec));
    }
  });
  r.hash_records = cap.recs.size();
  r.hash_finish_s =
      span_s(log, "hash_combine.finish_replay", 0, [&] { table.finish(); });
}

/// Feeds the stream through a SpillBuffer and times each sort_and_spill
/// call on the consuming thread.
void replay_sort_and_spill(const mr::JobSpec& spec, const apps::AppBundle& app,
                           const Captured& cap, const fs::path& dir,
                           SpanLog& log, Replays& r) {
  mr::SpillBuffer buffer(mr::split_memory(spec).spill_buffer_bytes, 0.8, 1,
                         spec.spill_format);
  std::unique_ptr<mr::Reducer> combiner =
      app.combiner ? app.combiner() : nullptr;
  mr::Counters counters;
  if (combiner) combiner->begin_task(mr::TaskInfo{0, &counters});
  std::exception_ptr error;
  std::thread support([&] {
    try {
      mr::TaskMetrics metrics;
      while (auto spill = buffer.take()) {
        const std::uint64_t start = monotonic_ns();
        const std::size_t records = spill->records.size();
        timed(log, "spill.sort_and_spill_replay", 1, 0, [&] {
          return mr::sort_and_spill(
              *spill, combiner.get(),
              (dir / ("spill_replay" + std::to_string(spill->sequence) + ".run"))
                  .string(),
              spec.num_reducers, spec.spill_format, metrics);
        });
        const std::uint64_t ns = monotonic_ns() - start;
        buffer.release(*spill, ns);
        r.sort_spill_s += secs(ns);
        r.sort_spill_records += records;
      }
    } catch (...) {
      error = std::current_exception();
      buffer.abort();
    }
  });
  try {
    for (const auto& rec : cap.recs) {
      buffer.put(rec.partition, cap.key(rec), cap.value(rec));
    }
    buffer.close();
  } catch (...) {
    buffer.abort();
    support.join();
    throw;
  }
  support.join();
  if (error) std::rethrow_exception(error);
}

void replay_merge(const mr::JobSpec& spec, const apps::AppBundle& app,
                  const fs::path& dir, SpanLog& log, Replays& r) {
  const auto runs = kept_runs(spec.scratch_dir);
  double total = 0;
  for (std::uint32_t t = 0; t < spec.inputs.size(); ++t) {
    const auto it = runs.find(t);
    total += it == runs.end() ? 1.0 : static_cast<double>(it->second.size());
  }
  r.runs_per_task = total / static_cast<double>(spec.inputs.size());
  // The task with the most runs: its final merge is the replay.
  const std::vector<fs::path>* most = nullptr;
  for (const auto& [task, list] : runs) {
    if (list.size() >= 2 && (most == nullptr || list.size() > most->size())) {
      most = &list;
    }
  }
  if (most == nullptr) return;
  std::vector<io::SpillRunInfo> infos;
  for (const auto& path : *most) {
    infos.push_back(run_info(path));
    r.merge_records += infos.back().records;
  }
  std::unique_ptr<mr::Reducer> combiner =
      app.combiner ? app.combiner() : nullptr;
  mr::Counters counters;
  if (combiner) combiner->begin_task(mr::TaskInfo{0, &counters});
  mr::TaskMetrics metrics;
  r.merge_s = span_s(log, "merge.merge_runs_replay", 0, [&] {
    mr::merge_runs(infos, combiner.get(), (dir / "merge_replay.run").string(),
                   spec.num_reducers, spec.spill_format, metrics);
  });
}

/// Fetches every partition of every kept map output from a ShuffleServer.
void replay_shuffle_fetch(const mr::JobSpec& spec, SpanLog& log, Replays& r) {
  std::vector<io::SpillRunInfo> outputs;
  for (const auto& entry : fs::directory_iterator(spec.scratch_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 11 && name.ends_with("_output.run")) {
      outputs.push_back(run_info(fs::absolute(entry.path())));
    }
  }
  cluster::ShuffleServer::Options options;
  options.root = fs::absolute(spec.scratch_dir).string();
  options.spill_format = spec.spill_format;
  cluster::ShuffleServer server(options);
  const cluster::ShuffleClient client;
  r.fetch_s = span_s(log, "cluster.shuffle_fetch_replay", 0, [&] {
    for (const auto& run : outputs) {
      for (std::uint32_t p = 0; p < run.partitions.size(); ++p) {
        const auto bytes = client.fetch(server.endpoint(), run, p);
        if (!bytes.has_value()) {
          throw std::runtime_error("shuffle fetch replay failed");
        }
        r.fetch_bytes += bytes->size();
      }
    }
  });
  server.stop();
}

}  // namespace

TracedOutcome traced_run(const Workload& w, const Options& opt,
                         const Inputs& in, const Reference& ref,
                         double untraced_wall_s) {
  TracedOutcome outcome;
  const fs::path dir = opt.work / "traced";
  fs::remove_all(dir);
  const apps::AppBundle app = app_for(w);
  mr::JobSpec spec = make_spec(w, in, dir);
  spec.keep_intermediates = true;  // the merge and fetch replays read them
  StatsSink stats;
  SpanLog log;
  if (!w.cluster) decorate(spec, app, stats);

  TracedJob job;
  try {
    job = w.cluster ? run_cluster_traced(spec, log) : run_local_traced(spec, log);
    outcome.error = ref.verify(part_paths(dir));
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  outcome.ok = outcome.error.empty();

  // The replays read the job's kept runs, so they need a finished job.
  Replays r;
  try {
    if (!outcome.ok) throw std::runtime_error("skipped: the job failed");
    const fs::path replay_dir = dir / "replay";
    fs::create_directories(replay_dir);
    replay_read(spec, log, r);
    if (w.kind != Kind::kJoin) replay_tokenize(in.files.front(), log, r);
    const Captured cap = capture_map_output(app, spec.inputs.front());
    if (w.hash_combine) {
      replay_hash_combine(spec, app, cap, replay_dir, log, r);
    } else {
      replay_sort_and_spill(spec, app, cap, replay_dir, log, r);
    }
    replay_merge(spec, app, replay_dir, log, r);
    if (w.cluster) replay_shuffle_fetch(spec, log, r);
  } catch (const std::exception& e) {
    if (outcome.ok) outcome.error = std::string("replay: ") + e.what();
    outcome.ok = false;
  }

  const mr::JobMetrics& m = job.result.metrics;
  const mr::TaskMetrics& work = m.work;

  // User code and the emit path: the decorators' sampled spans for local
  // jobs; cluster workers are forked processes, so there the program's
  // own op accounting stands in.
  const RoleStats& map_stats = stats.map;
  double map_s = map_stats.self_s();
  double emit_s = map_stats.emit_s();
  double combine_s = stats.combine.self_s();
  double reduce_s = stats.reduce.self_s();
  double combine_calls = static_cast<double>(stats.combine.calls);
  double emit_records = static_cast<double>(map_stats.emits);
  double emit_bytes = static_cast<double>(map_stats.emit_bytes);
  if (w.cluster) {
    map_s = secs(work.op_ns(mr::Op::kMapUser));
    emit_s = secs(work.op_ns(mr::Op::kEmit));
    combine_s = secs(work.op_ns(mr::Op::kCombine) +
                     work.op_ns(mr::Op::kMergeCombine));
    reduce_s = secs(work.op_ns(mr::Op::kReduceUser));
    combine_calls = 0;
    emit_records = static_cast<double>(work.map_output_records);
    emit_bytes = static_cast<double>(work.map_output_bytes);
  }
  double task_sum = 0;
  for (const double s : job.map_task_s) task_sum += s;
  // Map-task span minus its read, map and emit children: sort, spill and
  // merge work on the map thread, plus ring waits.
  const double map_task_other_s = std::max(0.0, task_sum - r.read_s - map_s - emit_s);

  double threshold_sum = 0;
  for (const auto& task : job.result.map_tasks) {
    threshold_sum += task.final_spill_threshold;
  }
  const bool sort_mode = !w.hash_combine;
  const double overhead_s = w.cluster ? job.wall_s - job.covered_s : 0.0;
  const double unattributed = ratio(job.wall_s - job.covered_s, job.wall_s);

  outcome.metrics = {
      {"engine.map_phase_s", job.map_phase_s},
      {"engine.reduce_phase_s", job.reduce_phase_s},
      {"engine.map_task_p50_s", median(job.map_task_s)},
      {"engine.map_task_max_s",
       job.map_task_s.empty() ? 0.0
                              : *std::max_element(job.map_task_s.begin(),
                                                  job.map_task_s.end())},
      {"engine.slot_busy_fraction",
       ratio(task_sum, job.map_slots * job.map_phase_s)},
      {"engine.task_attempts", static_cast<double>(m.task_attempts)},
      {"engine.tasks_retried", static_cast<double>(m.tasks_retried)},
      {"io.read_mb_per_s", ratio(mb(r.read_bytes), r.read_s)},
      {"io.spills", static_cast<double>(work.spill_count)},
      {"io.spilled_mb", mb(work.spilled_bytes)},
      {"text.tokens", static_cast<double>(r.tokens)},
      {"text.tokenize_ns_per_token",
       ratio(r.tokenize_s * 1e9, static_cast<double>(r.tokens))},
      {"apps.map_s", map_s},
      {"apps.combine_s", combine_s},
      {"apps.reduce_s", reduce_s},
      {"apps.combine_calls", combine_calls},
      {"emit.records", emit_records},
      {"emit.mb", emit_bytes / 1e6},
      {"emit.ns_per_record", ratio(emit_s * 1e9, emit_records)},
      {"emit.map_task_other_s", map_task_other_s},
      {"hash_combine.insert_ns_per_record",
       ratio(r.hash_insert_s * 1e9, static_cast<double>(r.hash_records))},
      {"hash_combine.finish_s", r.hash_finish_s},
      {"hash_combine.hit_ratio",
       w.hash_combine ? ratio(static_cast<double>(work.hash_combine_hits),
                              static_cast<double>(work.spill_input_records))
                      : 0.0},
      {"hash_combine.flushes", static_cast<double>(work.hash_combine_flushes)},
      {"hash_combine.demotions",
       static_cast<double>(work.hash_combine_demotions)},
      {"spill.sort_and_spill_ns_per_record",
       ratio(r.sort_spill_s * 1e9, static_cast<double>(r.sort_spill_records))},
      {"spill.combine_ratio",
       sort_mode ? ratio(static_cast<double>(m.support_work.spilled_records),
                         static_cast<double>(work.spill_input_records))
                 : 0.0},
      {"spill.count", static_cast<double>(m.support_work.spill_count)},
      {"merge.map_merge_ns_per_record",
       ratio(r.merge_s * 1e9, static_cast<double>(r.merge_records))},
      {"merge.runs_per_task", r.runs_per_task},
      {"freqbuf.absorb_ratio",
       ratio(static_cast<double>(work.freq_hits),
             static_cast<double>(work.map_output_records))},
      {"freqbuf.flushes", static_cast<double>(work.freq_flushes)},
      {"spillmatch.final_threshold",
       sort_mode ? ratio(threshold_sum,
                         static_cast<double>(job.result.map_tasks.size()))
                 : 0.0},
      {"spillmatch.map_idle_fraction", m.map_idle_fraction()},
      {"spillmatch.support_idle_fraction", m.support_idle_fraction()},
      {"reduce.task_p50_s", median(job.reduce_task_s)},
      {"reduce.task_max_s",
       job.reduce_task_s.empty()
           ? 0.0
           : *std::max_element(job.reduce_task_s.begin(),
                               job.reduce_task_s.end())},
      {"reduce.shuffled_mb", mb(m.reduce_work.shuffled_bytes)},
      {"reduce.output_mb", mb(m.reduce_work.output_bytes)},
      {"reduce.partition_skew_ratio", m.partition_skew_ratio()},
      {"cluster.shuffled_wire_mb", mb(work.shuffled_wire_bytes)},
      {"cluster.worker_records_skew", m.worker_records_skew()},
      {"cluster.speculative_attempts",
       static_cast<double>(
           job.result.counters.value("cluster.speculative_attempts"))},
      {"cluster.shuffle_fetch_mb_per_s", ratio(mb(r.fetch_bytes), r.fetch_s)},
      {"cluster.overhead_s", overhead_s},
      {"trace.overhead_fraction",
       untraced_wall_s > 0 ? job.wall_s / untraced_wall_s - 1.0 : 0.0},
      {"trace.unattributed_fraction", unattributed},
  };

  // Where the time went, parent span by parent span: a large gap names
  // the span whose children leave it.
  const char* source = w.cluster ? "program-reported" : "harness spans";
  std::fprintf(stderr, "perfbench trace %s seed %llu (apps/emit: %s)\n", w.name,
               static_cast<unsigned long long>(opt.seed), source);
  auto gap_line = [](const char* parent, double total, double children,
                     const char* kids) {
    const double gap = total - children;
    std::fprintf(stderr, "  %-20s %9.3f s  children %9.3f s  gap %7.3f s (%5.1f%%)%s  [%s]\n",
                 parent, total, children, gap, 100 * ratio(gap, total),
                 ratio(gap, total) > 0.05 ? "  LARGE" : "", kids);
  };
  gap_line(w.cluster ? "cluster.run" : "job", job.wall_s, job.covered_s,
           w.cluster ? "map phase, reduce phase"
                     : "split_memory, map tasks, reduce tasks");
  gap_line("engine.map_task", task_sum, task_sum - map_task_other_s,
           "io read (replay), apps.map, emit");
  double reduce_sum = 0;
  for (const double s : job.reduce_task_s) reduce_sum += s;
  gap_line("engine.reduce_task", reduce_sum, reduce_s,
           "apps.reduce (shuffle, merge and output write are the gap)");
  log.write_jsonl(opt.work / "traced_spans.jsonl",
                  std::string(w.name) + "-seed" + std::to_string(opt.seed));
  fs::remove_all(dir);
  return outcome;
}

}  // namespace perfbench
