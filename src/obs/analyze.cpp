#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace textmr::obs {

// ---- known event names ----------------------------------------------------

/// Sorted. tools/lint.py extracts every record_instant / record_counter /
/// SpanTimer name literal in the tree and requires it to appear here, so
/// adding a trace op without teaching the analyzer fails CI.
const char* const kKnownEventNames[] = {
    "buffer_fill",
    "clock_sync",
    "freq_buffered_bytes",
    "freq_cached_keys",
    "freq_flush",
    "freq_freeze",
    "freq_hit_rate",
    "freq_profile_begin",
    "hash_flush",
    "map_dispatch",
    "map_exec",
    "map_merge",
    "map_phase",
    "map_task",
    "output_close",
    "partition_bytes",
    "reduce_apply",
    "reduce_dispatch",
    "reduce_exec",
    "reduce_phase",
    "reduce_task",
    "shuffle",
    "shuffle_fetch",
    "speculative_attempt",
    "spill_consume",
    "spill_seal",
    "spill_sort",
    "spill_threshold",
    "spill_write",
    "task_retry",
    "threshold_update",
    "worker_death",
};
const std::size_t kNumKnownEventNames =
    sizeof(kKnownEventNames) / sizeof(kKnownEventNames[0]);

bool known_event_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumKnownEventNames; ++i) {
    if (name == kKnownEventNames[i]) return true;
  }
  return false;
}

// ---- analysis -------------------------------------------------------------

namespace {

/// Container spans structure the timeline; everything else is leaf work.
bool is_container_span(std::string_view name) {
  return name == "map_phase" || name == "reduce_phase" || name == "map_task" ||
         name == "reduce_task" || name == "map_exec" || name == "reduce_exec";
}

std::uint64_t span_end(const TraceEvent& e) { return e.ts_ns + e.dur_ns; }

std::uint64_t clamp_ts(std::uint64_t ts, std::uint64_t lo, std::uint64_t hi) {
  return std::min(std::max(ts, lo), hi);
}

std::uint64_t to_u64(double v) {
  return v <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

std::uint64_t median_of(std::vector<std::uint64_t> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

void appendf(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof(buffer)) {
    out.append(buffer, static_cast<std::size_t>(n));
  } else {
    const std::size_t old_size = out.size();
    out.resize(old_size + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old_size, static_cast<std::size_t>(n) + 1,
                   format, args_copy);
    out.resize(old_size + static_cast<std::size_t>(n));
  }
  va_end(args_copy);
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Decomposes one phase into wait-before / critical-task / tail segments
/// (Fig. 9's wait structure). The gating attempt is the one whose end is
/// latest while still inside the phase — attempts that outlive the phase
/// are speculative losers, not the element that released the barrier.
void decompose_phase(const TraceAnalysis::Phase& phase,
                     std::uint64_t phase_abs_start,
                     const std::vector<TraceAnalysis::TaskSpan>& tasks,
                     std::uint64_t rel_base, const char* kind,
                     std::vector<TraceAnalysis::Segment>& out) {
  const std::uint64_t phase_start = phase_abs_start;
  const std::uint64_t phase_endn = phase_abs_start + phase.dur_ns;
  const TraceAnalysis::TaskSpan* critical = nullptr;
  for (const auto& task : tasks) {
    const std::uint64_t end = rel_base + task.start_ns + task.dur_ns;
    if (end > phase_endn) continue;  // finished after the phase: a loser
    if (critical == nullptr ||
        end > rel_base + critical->start_ns + critical->dur_ns) {
      critical = &task;
    }
  }
  if (critical == nullptr) {
    out.push_back({std::string(kind) + " phase", phase.dur_ns});
    return;
  }
  const std::uint64_t crit_start =
      clamp_ts(rel_base + critical->start_ns, phase_start, phase_endn);
  const std::uint64_t crit_end = clamp_ts(
      rel_base + critical->start_ns + critical->dur_ns, crit_start, phase_endn);
  std::string label = std::string(kind) + " waves before critical task " +
                      std::to_string(critical->id);
  out.push_back({std::move(label), crit_start - phase_start});
  out.push_back({std::string(kind) + " critical task " +
                     std::to_string(critical->id),
                 crit_end - crit_start});
  out.push_back({std::string(kind) + " completion tail",
                 phase_endn - crit_end});
}

}  // namespace

TraceAnalysis analyze_trace(const TraceData& trace) {
  TraceAnalysis a;
  a.job_name = trace.job_name;
  a.num_events = trace.events.size();
  a.dropped_events = trace.dropped_events;
  a.ring_drops = trace.ring_drops;
  a.telemetry_incomplete = trace.incomplete;
  if (trace.events.empty()) return a;

  // Absolute extent.
  std::uint64_t t0 = trace.events.front().ts_ns;
  std::uint64_t t_end = 0;
  for (const auto& e : trace.events) {
    t0 = std::min(t0, e.ts_ns);
    t_end = std::max(t_end, e.kind == EventKind::kSpan ? span_end(e) : e.ts_ns);
  }
  a.start_ns = t0;
  a.end_ns = t_end;
  a.wall_ns = t_end - t0;

  // Single pass: classify spans.
  std::optional<TraceEvent> map_phase;
  std::optional<TraceEvent> reduce_phase;
  std::vector<TraceAnalysis::TaskSpan> map_tasks;
  std::vector<TraceAnalysis::TaskSpan> reduce_tasks;
  std::unordered_map<std::string, TraceAnalysis::OpTotal> ops;
  std::unordered_map<std::uint32_t, TraceAnalysis::WorkerLane> lanes;
  std::set<std::string> unknown;
  std::unordered_map<std::uint32_t, std::uint64_t> partition_bytes;
  for (const auto& e : trace.events) {
    const std::string_view name = e.name != nullptr ? e.name : "?";
    if (name != "?" && !known_event_name(name)) unknown.emplace(name);
    if (e.kind == EventKind::kInstant && name == "partition_bytes") {
      // Driver-side per-partition shuffle volume: args (partition, bytes).
      std::optional<std::uint32_t> part;
      std::uint64_t bytes = 0;
      for (std::uint8_t i = 0; i < e.num_args; ++i) {
        const std::string_view arg =
            e.arg_names[i] != nullptr ? e.arg_names[i] : "";
        if (arg == "partition") {
          part = static_cast<std::uint32_t>(e.args[i]);
        } else if (arg == "bytes") {
          bytes = to_u64(e.args[i]);
        }
      }
      if (part.has_value()) {
        // Speculative attempts re-record the partition; the volume is
        // identical either way, so last-write-wins is fine.
        partition_bytes[*part] = bytes;
      }
      continue;
    }
    if (e.kind != EventKind::kSpan) continue;
    if (name == "map_phase") {
      if (!map_phase.has_value()) map_phase = e;
      continue;
    }
    if (name == "reduce_phase") {
      if (!reduce_phase.has_value()) reduce_phase = e;
      continue;
    }
    if (name == "map_task") {
      map_tasks.push_back({e.pid - 1, e.ts_ns - t0, e.dur_ns, 0});
      continue;
    }
    if (name == "reduce_task") {
      reduce_tasks.push_back({e.pid - 100001, e.ts_ns - t0, e.dur_ns, 0});
      continue;
    }
    if (name == "map_exec" || name == "reduce_exec") {
      TraceAnalysis::WorkerLane& lane = lanes[e.pid];
      lane.pid = e.pid;
      lane.busy_ns += e.dur_ns;
      lane.tasks += 1;
      continue;
    }
    if (is_container_span(name)) continue;
    TraceAnalysis::OpTotal& op = ops[std::string(name)];
    op.name = name;
    op.total_ns += e.dur_ns;
    op.count += 1;
  }

  // Phases: an exhaustive partition of [t0, t_end] when the driver's
  // phase spans are present, so the critical path below covers the wall
  // by construction.
  if (map_phase.has_value()) {
    const std::uint64_t ms = clamp_ts(map_phase->ts_ns, t0, t_end);
    const std::uint64_t me = clamp_ts(span_end(*map_phase), ms, t_end);
    a.phases.push_back({"startup", 0, ms - t0});
    a.phases.push_back({"map_phase", ms - t0, me - ms});
    if (reduce_phase.has_value()) {
      const std::uint64_t rs = clamp_ts(reduce_phase->ts_ns, me, t_end);
      const std::uint64_t re = clamp_ts(span_end(*reduce_phase), rs, t_end);
      a.phases.push_back({"barrier", me - t0, rs - me});
      a.phases.push_back({"reduce_phase", rs - t0, re - rs});
      a.phases.push_back({"finalize", re - t0, t_end - re});
    } else {
      a.phases.push_back({"finalize", me - t0, t_end - me});
    }
  } else {
    a.phases.push_back({"untracked", 0, a.wall_ns});
  }

  // Critical path: expand the phase partition, decomposing map/reduce
  // phases around their gating task attempt.
  for (const auto& phase : a.phases) {
    if (phase.name == "map_phase") {
      decompose_phase(phase, t0 + phase.start_ns, map_tasks, t0, "map",
                      a.critical_path);
    } else if (phase.name == "reduce_phase") {
      decompose_phase(phase, t0 + phase.start_ns, reduce_tasks, t0, "reduce",
                      a.critical_path);
    } else {
      a.critical_path.push_back({phase.name, phase.dur_ns});
    }
  }
  for (const auto& segment : a.critical_path) {
    a.critical_path_ns += segment.dur_ns;
  }

  // Op totals, largest first.
  a.op_totals.reserve(ops.size());
  for (auto& [name, op] : ops) a.op_totals.push_back(std::move(op));
  std::sort(a.op_totals.begin(), a.op_totals.end(),
            [](const auto& x, const auto& y) {
              return x.total_ns != y.total_ns ? x.total_ns > y.total_ns
                                              : x.name < y.name;
            });

  // Worker lanes: utilization within the job's active window (dispatch
  // of the first task to the end of the reduce phase).
  std::uint64_t window_start = t0;
  std::uint64_t window_end = t_end;
  if (map_phase.has_value()) window_start = clamp_ts(map_phase->ts_ns, t0, t_end);
  if (reduce_phase.has_value()) {
    window_end = clamp_ts(span_end(*reduce_phase), window_start, t_end);
  }
  const std::uint64_t window = window_end - window_start;
  for (auto& [pid, lane] : lanes) {
    lane.window_ns = window;
    lane.name = "pid " + std::to_string(pid);
    for (const auto& [proc_pid, proc_name] : trace.process_names) {
      if (proc_pid == pid) {
        lane.name = proc_name;
        break;
      }
    }
    const std::uint64_t busy = std::min(lane.busy_ns, window);
    lane.idle_fraction =
        window == 0 ? 0.0
                    : static_cast<double>(window - busy) /
                          static_cast<double>(window);
    a.workers.push_back(std::move(lane));
  }
  std::sort(a.workers.begin(), a.workers.end(),
            [](const auto& x, const auto& y) { return x.pid < y.pid; });

  // Straggler attribution. Before ranking, annotate reduce spans with
  // the partition skew the trace carries: the driver records one
  // "partition_bytes" instant per reduce partition, so the straggler
  // table can show a slow partition's shuffled volume.
  for (auto& task : reduce_tasks) {
    if (const auto it = partition_bytes.find(task.id);
        it != partition_bytes.end()) {
      task.shuffled_bytes = it->second;
    }
  }
  const auto by_dur_desc = [](const TraceAnalysis::TaskSpan& x,
                              const TraceAnalysis::TaskSpan& y) {
    return x.dur_ns != y.dur_ns ? x.dur_ns > y.dur_ns : x.id < y.id;
  };
  std::vector<std::uint64_t> durations;
  for (const auto& task : map_tasks) durations.push_back(task.dur_ns);
  a.median_map_task_ns = median_of(std::move(durations));
  durations.clear();
  for (const auto& task : reduce_tasks) durations.push_back(task.dur_ns);
  a.median_reduce_task_ns = median_of(std::move(durations));
  std::sort(map_tasks.begin(), map_tasks.end(), by_dur_desc);
  std::sort(reduce_tasks.begin(), reduce_tasks.end(), by_dur_desc);
  if (map_tasks.size() > 3) map_tasks.resize(3);
  if (reduce_tasks.size() > 3) reduce_tasks.resize(3);
  a.slowest_map_tasks = std::move(map_tasks);
  a.slowest_reduce_tasks = std::move(reduce_tasks);

  a.unknown_event_names.assign(unknown.begin(), unknown.end());
  return a;
}

// ---- formatting -----------------------------------------------------------

std::string format_analysis(const TraceAnalysis& a) {
  std::string out;
  appendf(out, "=== trace analysis: %s ===\n",
          a.job_name.empty() ? "(unnamed job)" : a.job_name.c_str());
  appendf(out, "events: %zu (dropped: %llu), wall: %.3fs, telemetry: %s\n",
          a.num_events, static_cast<unsigned long long>(a.dropped_events),
          seconds(a.wall_ns), a.telemetry_incomplete ? "INCOMPLETE" : "complete");

  const double wall = static_cast<double>(a.wall_ns);
  appendf(out, "phases:\n");
  for (const auto& phase : a.phases) {
    appendf(out, "  %-14s %9.3fs %5.1f%%\n", phase.name.c_str(),
            seconds(phase.dur_ns),
            wall > 0 ? 100.0 * static_cast<double>(phase.dur_ns) / wall : 0.0);
  }

  appendf(out, "critical path (%.1f%% of wall):\n",
          100.0 * a.critical_path_coverage());
  for (const auto& segment : a.critical_path) {
    appendf(out, "  %-40s %9.3fs %5.1f%%\n", segment.label.c_str(),
            seconds(segment.dur_ns),
            wall > 0 ? 100.0 * static_cast<double>(segment.dur_ns) / wall
                     : 0.0);
  }

  if (!a.op_totals.empty()) {
    appendf(out, "serialized work by op:\n");
    for (const auto& op : a.op_totals) {
      appendf(out, "  %-20s %9.3fs  x%llu\n", op.name.c_str(),
              seconds(op.total_ns), static_cast<unsigned long long>(op.count));
    }
  }

  if (!a.workers.empty()) {
    appendf(out, "workers (within the job's active window):\n");
    for (const auto& lane : a.workers) {
      appendf(out, "  %-12s busy %5.1f%%  idle %5.1f%%  (%llu task attempts)\n",
              lane.name.c_str(), 100.0 * (1.0 - lane.idle_fraction),
              100.0 * lane.idle_fraction,
              static_cast<unsigned long long>(lane.tasks));
    }
  }

  if (!a.slowest_map_tasks.empty()) {
    const auto& slowest = a.slowest_map_tasks.front();
    appendf(out, "stragglers: map median %.3fs, slowest task %u = %.3fs",
            seconds(a.median_map_task_ns), slowest.id, seconds(slowest.dur_ns));
    if (a.median_map_task_ns > 0) {
      appendf(out, " (%.1fx median)",
              static_cast<double>(slowest.dur_ns) /
                  static_cast<double>(a.median_map_task_ns));
    }
    appendf(out, "\n");
  }
  if (!a.slowest_reduce_tasks.empty()) {
    const auto& slowest = a.slowest_reduce_tasks.front();
    appendf(out,
            "            reduce median %.3fs, slowest partition %u = %.3fs\n",
            seconds(a.median_reduce_task_ns), slowest.id,
            seconds(slowest.dur_ns));
    bool annotated = false;
    for (const auto& task : a.slowest_reduce_tasks) {
      if (task.shuffled_bytes > 0) annotated = true;
    }
    if (annotated) {
      appendf(out, "reduce stragglers:\n");
      for (const auto& task : a.slowest_reduce_tasks) {
        appendf(out, "  partition %-5u %9.3fs", task.id, seconds(task.dur_ns));
        if (task.shuffled_bytes > 0) {
          appendf(out, "  %10.1f KB shuffled",
                  static_cast<double>(task.shuffled_bytes) / 1024.0);
        }
        appendf(out, "\n");
      }
    }
  }

  for (const auto& drops : a.ring_drops) {
    appendf(out, "ring overflow: pid %u tid %u dropped %llu events\n",
            drops.pid, drops.tid,
            static_cast<unsigned long long>(drops.dropped));
  }
  if (!a.unknown_event_names.empty()) {
    appendf(out, "unknown event names:");
    for (const auto& name : a.unknown_event_names) {
      appendf(out, " %s", name.c_str());
    }
    appendf(out, "\n");
  }
  return out;
}

std::string format_analysis_json(const TraceAnalysis& a) {
  JsonWriter w;
  w.begin_object();
  w.field("job", a.job_name);
  w.field("num_events", static_cast<std::uint64_t>(a.num_events));
  w.field("wall_ns", a.wall_ns);
  w.field("dropped_events", a.dropped_events);
  w.field("telemetry_incomplete", a.telemetry_incomplete);
  w.key("phases").begin_array();
  for (const auto& phase : a.phases) {
    w.begin_object();
    w.field("name", phase.name);
    w.field("start_ns", phase.start_ns);
    w.field("dur_ns", phase.dur_ns);
    w.end_object();
  }
  w.end_array();
  w.key("critical_path").begin_array();
  for (const auto& segment : a.critical_path) {
    w.begin_object();
    w.field("label", segment.label);
    w.field("dur_ns", segment.dur_ns);
    w.end_object();
  }
  w.end_array();
  w.field("critical_path_ns", a.critical_path_ns);
  w.field("critical_path_coverage", a.critical_path_coverage());
  w.key("op_totals").begin_array();
  for (const auto& op : a.op_totals) {
    w.begin_object();
    w.field("name", op.name);
    w.field("total_ns", op.total_ns);
    w.field("count", op.count);
    w.end_object();
  }
  w.end_array();
  w.key("workers").begin_array();
  for (const auto& lane : a.workers) {
    w.begin_object();
    w.field("pid", lane.pid);
    w.field("name", lane.name);
    w.field("busy_ns", lane.busy_ns);
    w.field("window_ns", lane.window_ns);
    w.field("tasks", lane.tasks);
    w.field("idle_fraction", lane.idle_fraction);
    w.end_object();
  }
  w.end_array();
  w.key("slowest_map_tasks").begin_array();
  for (const auto& task : a.slowest_map_tasks) {
    w.begin_object();
    w.field("id", task.id);
    w.field("start_ns", task.start_ns);
    w.field("dur_ns", task.dur_ns);
    w.end_object();
  }
  w.end_array();
  w.field("median_map_task_ns", a.median_map_task_ns);
  w.key("slowest_reduce_tasks").begin_array();
  for (const auto& task : a.slowest_reduce_tasks) {
    w.begin_object();
    w.field("id", task.id);
    w.field("start_ns", task.start_ns);
    w.field("dur_ns", task.dur_ns);
    w.field("shuffled_bytes", task.shuffled_bytes);
    w.end_object();
  }
  w.end_array();
  w.field("median_reduce_task_ns", a.median_reduce_task_ns);
  w.key("ring_drops").begin_array();
  for (const auto& drops : a.ring_drops) {
    w.begin_object();
    w.field("pid", drops.pid);
    w.field("tid", drops.tid);
    w.field("dropped", drops.dropped);
    w.end_object();
  }
  w.end_array();
  w.key("unknown_event_names").begin_array();
  for (const auto& name : a.unknown_event_names) w.value(name);
  w.end_array();
  w.end_object();
  return w.take();
}

// ---- trace file loading ---------------------------------------------------

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::FILE* file = std::fopen(path.string().c_str(), "rb");
  if (file == nullptr) throw IoError("cannot open " + path.string());
  std::string contents;
  char buffer[65536];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) throw IoError("read failed on " + path.string());
  return contents;
}

/// Shared interning across one load so repeated names cost one pool slot.
struct Interner {
  TraceData& trace;
  std::unordered_map<std::string, const char*> seen;

  const char* operator()(const std::string& s) {
    auto it = seen.find(s);
    if (it != seen.end()) return it->second;
    const char* p = trace.intern(s);
    seen.emplace(s, p);
    return p;
  }
};

void read_args(const JsonValue& obj, TraceEvent& e, Interner& intern) {
  const JsonValue* args = obj.get("args");
  if (args == nullptr || !args->is_object()) return;
  for (const auto& [name, value] : args->members()) {
    if (e.num_args >= 3) break;
    e.arg_names[e.num_args] = intern(name);
    e.args[e.num_args] = value.number_or(0);
    ++e.num_args;
  }
}

void load_chrome_trace(const JsonValue& doc, TraceData& trace,
                       Interner& intern) {
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw FormatError("trace file has no traceEvents array");
  }
  for (const JsonValue& ev : events->array()) {
    if (!ev.is_object()) throw FormatError("trace event is not an object");
    const JsonValue* ph = ev.get("ph");
    const std::string& kind = ph != nullptr ? ph->string_value() : "";
    const auto pid = static_cast<std::uint32_t>(
        ev.get("pid") != nullptr ? ev.get("pid")->number_or(0) : 0);
    const auto tid = static_cast<std::uint32_t>(
        ev.get("tid") != nullptr ? ev.get("tid")->number_or(0) : 0);
    const JsonValue* name = ev.get("name");
    const std::string& name_str =
        name != nullptr ? name->string_value() : std::string();
    if (kind == "M") {
      const JsonValue* args = ev.get("args");
      const JsonValue* arg_name =
          args != nullptr ? args->get("name") : nullptr;
      if (arg_name == nullptr) continue;
      if (name_str == "process_name") {
        trace.process_names.emplace_back(pid, arg_name->string_value());
      } else if (name_str == "thread_name") {
        trace.thread_names.push_back({pid, tid, arg_name->string_value()});
      }
      continue;
    }
    TraceEvent e;
    if (kind == "X") {
      e.kind = EventKind::kSpan;
      const JsonValue* dur = ev.get("dur");
      e.dur_ns = to_u64((dur != nullptr ? dur->number_or(0) : 0) * 1000.0);
    } else if (kind == "i") {
      e.kind = EventKind::kInstant;
    } else if (kind == "C") {
      e.kind = EventKind::kCounter;
    } else {
      continue;  // phase types we never emit
    }
    e.name = intern(name_str.empty() ? "?" : name_str);
    const JsonValue* cat = ev.get("cat");
    e.category = intern(cat != nullptr ? cat->string_value() : "textmr");
    const JsonValue* ts = ev.get("ts");
    e.ts_ns = to_u64((ts != nullptr ? ts->number_or(0) : 0) * 1000.0);
    e.pid = pid;
    e.tid = tid;
    read_args(ev, e, intern);
    trace.events.push_back(e);
  }
  const JsonValue* other = doc.get("otherData");
  if (other != nullptr && other->is_object()) {
    const JsonValue* job = other->get("job");
    if (job != nullptr) trace.job_name = job->string_value();
    const JsonValue* dropped = other->get("dropped_events");
    if (dropped != nullptr) trace.dropped_events = to_u64(dropped->number_or(0));
    const JsonValue* incomplete = other->get("telemetry_incomplete");
    if (incomplete != nullptr) trace.incomplete = incomplete->bool_or(false);
    const JsonValue* rings = other->get("dropped_rings");
    if (rings != nullptr && rings->is_array()) {
      for (const JsonValue& ring : rings->array()) {
        TraceData::RingDrops drops;
        if (const JsonValue* v = ring.get("pid")) {
          drops.pid = static_cast<std::uint32_t>(v->number_or(0));
        }
        if (const JsonValue* v = ring.get("tid")) {
          drops.tid = static_cast<std::uint32_t>(v->number_or(0));
        }
        if (const JsonValue* v = ring.get("dropped")) {
          drops.dropped = to_u64(v->number_or(0));
        }
        trace.ring_drops.push_back(drops);
      }
    }
  }
}

}  // namespace

TraceData load_trace_file(const std::filesystem::path& path) {
  const std::string contents = read_file(path);
  TraceData trace;
  trace.enabled = true;
  Interner intern{trace, {}};
  const auto doc = JsonValue::parse(contents);
  if (!doc.has_value() || !doc->is_object()) {
    throw FormatError("trace file " + path.string() + " is not a JSON object");
  }
  load_chrome_trace(*doc, trace, intern);
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return x.ts_ns < y.ts_ns;
                   });
  return trace;
}

}  // namespace textmr::obs
