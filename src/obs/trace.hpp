#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"

namespace textmr::obs {

/// Structured trace subsystem (ISSUE 1): a low-overhead per-thread ring
/// of typed events covering the engine's lifecycle — task begin/end,
/// spill seal/sort/combine/write, spill-matcher threshold updates with
/// the measured T_p/T_c, frequency-buffering stage transitions, merge,
/// shuffle — exportable to Chrome trace JSON (chrome://tracing,
/// Perfetto). Everything is gated on a nullable TraceBuffer*:
/// with tracing disabled every hook is a single pointer compare.

enum class EventKind : std::uint8_t {
  kSpan,     // has dur_ns; Chrome "X" (complete) event
  kInstant,  // Chrome "i" event
  kCounter,  // Chrome "C" event; arg0 is the sampled value
};

/// One trace event. Names and argument names must be string literals (or
/// otherwise outlive the collector): events store pointers, not copies,
/// to keep recording allocation-free.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t ts_ns = 0;   // monotonic_ns at begin
  std::uint64_t dur_ns = 0;  // spans only
  std::uint32_t pid = 0;     // task (Chrome process)
  std::uint32_t tid = 0;     // thread role within the task
  EventKind kind = EventKind::kInstant;
  std::uint8_t num_args = 0;
  const char* arg_names[3] = {nullptr, nullptr, nullptr};
  double args[3] = {0, 0, 0};
};

/// pid/tid conventions used by the mr layer when emitting events.
inline constexpr std::uint32_t kDriverPid = 0;
inline constexpr std::uint32_t map_task_pid(std::uint32_t task_id) {
  return 1 + task_id;
}
inline constexpr std::uint32_t reduce_task_pid(std::uint32_t partition) {
  return 100001 + partition;
}
/// Cluster worker processes get their own timeline rows, disjoint from
/// every task pid (task rows stay globally unique because a task's
/// winning attempt runs on exactly one worker).
inline constexpr std::uint32_t kWorkerPidBase = 200000;
inline constexpr std::uint32_t worker_pid(std::uint32_t worker_id) {
  return kWorkerPidBase + worker_id;
}
inline constexpr std::uint32_t kMapThreadTid = 0;
inline constexpr std::uint32_t kSupportThreadTidBase = 1;  // +support index
inline constexpr std::uint32_t kSpillBufferTid = 99;
inline constexpr std::uint32_t kReduceThreadTid = 0;
// Engine scheduler threads (retry events) live under kDriverPid.
inline constexpr std::uint32_t kMapWorkerTidBase = 1;       // +worker index
inline constexpr std::uint32_t kReduceWorkerTidBase = 1001;  // +worker index

struct TraceConfig {
  bool enabled = false;
  /// Ring capacity per registered thread, in events. When a thread
  /// overflows its ring the oldest events are overwritten (flight-recorder
  /// semantics); the drop count is reported in the trace metadata.
  std::size_t ring_capacity = 1u << 14;
};

/// Fixed-capacity event ring. Single-writer: only the owning thread may
/// record (the spill buffer's ring is the one exception — both pipeline
/// threads write to it, serialized by the buffer's own mutex).
class TraceBuffer {
 public:
  TraceBuffer(std::uint32_t pid, std::uint32_t tid, std::size_t capacity)
      : pid_(pid), tid_(tid), capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  void record(TraceEvent event) {
    event.pid = pid_;
    event.tid = tid_;
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[next_overwrite_] = event;
      next_overwrite_ = (next_overwrite_ + 1) % capacity_;
      ++dropped_;
    }
  }

  std::uint32_t pid() const { return pid_; }
  std::uint32_t tid() const { return tid_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Events in record order (oldest surviving first).
  std::vector<TraceEvent> snapshot() const;

  struct Drained {
    std::vector<TraceEvent> events;  // record order (oldest first)
    std::uint64_t dropped = 0;       // drops since the previous drain
  };
  /// Moves the buffered events out and resets the ring in place (the
  /// buffer stays registered, so writers keep their pointer). Same
  /// single-writer contract as record(): only safe at a point where the
  /// owning thread is not writing — the cluster worker drains at task
  /// boundaries, after every task thread has joined.
  Drained drain();

 private:
  std::uint32_t pid_;
  std::uint32_t tid_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_overwrite_ = 0;  // oldest slot once the ring wrapped
  std::uint64_t dropped_ = 0;
  std::uint64_t drained_dropped_ = 0;  // dropped_ watermark at last drain
};

/// Everything a traced run produced, carried inside JobResult.
struct TraceData {
  bool enabled = false;
  std::string job_name;
  std::uint64_t epoch_ns = 0;  // monotonic_ns when the collector started
  std::vector<TraceEvent> events;  // merged across threads, sorted by ts
  std::uint64_t dropped_events = 0;
  /// Ring-overflow attribution: which (pid, tid) rings dropped events
  /// and how many. Only rings that actually dropped appear, so a clean
  /// run carries an empty vector. Overflow poisons any analysis built on
  /// the trace — the analyzer and JobMetrics JSON both surface this.
  struct RingDrops {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint64_t dropped = 0;
  };
  std::vector<RingDrops> ring_drops;
  /// True when part of the job's telemetry was lost: a cluster worker
  /// died (e.g. SIGKILL) before shipping its final trace chunk. The
  /// merged timeline is still valid, just missing that worker's tail.
  bool incomplete = false;
  std::vector<std::pair<std::uint32_t, std::string>> process_names;
  struct ThreadName {
    std::uint32_t pid;
    std::uint32_t tid;
    std::string name;
  };
  std::vector<ThreadName> thread_names;

  /// Backing store for event name/arg strings that do not outlive their
  /// producer — events recorded in-process point at string literals, but
  /// a trace deserialized from another process (the cluster engine's
  /// per-worker uploads) needs owned storage. Each string is held behind
  /// a shared_ptr so copying or moving the TraceData (or merging pools)
  /// never relocates the bytes the events point at.
  std::vector<std::shared_ptr<const std::string>> string_pool;

  /// Copies `s` into the pool and returns a pointer valid as long as any
  /// copy of this TraceData lives (no deduplication — callers cache).
  const char* intern(std::string_view s) TEXTMR_LIFETIME_BOUND {
    string_pool.push_back(std::make_shared<const std::string>(s));
    return string_pool.back()->c_str();
  }
};

/// Merges `from` into `into` (cluster engine: per-worker trace uploads
/// into the coordinator's timeline). Appends events, process/thread
/// names, drop counts; adopts `from`'s string pool so event pointers
/// survive; re-sorts the combined events by timestamp. The earliest
/// epoch wins, which is correct because every process stamps events with
/// the same monotonic clock.
void merge_trace(TraceData& into, TraceData&& from);

/// Shifts every event timestamp (and the epoch) by -offset_ns,
/// saturating at zero. The cluster coordinator uses this to rebase a
/// worker's trace onto its own clock: offset_ns is the worker-minus-
/// coordinator clock offset measured by the startup handshake
/// (cluster::estimate_clock_offset), so coordinator_ts = worker_ts -
/// offset. Durations are clock-speed-invariant and stay untouched.
void rebase_trace(TraceData& trace, std::int64_t offset_ns);

/// Owns one TraceBuffer per registered thread. make_buffer() is
/// thread-safe (called at task/thread start, never on a hot path);
/// recording into the returned buffer is lock-free. finish() must only be
/// called after every writer thread has joined.
class TraceCollector {
 public:
  explicit TraceCollector(TraceConfig config);

  /// Registers a thread ring. `process_name`, when non-empty, names the
  /// pid in the exported trace (first writer wins).
  TraceBuffer* make_buffer(std::uint32_t pid, std::uint32_t tid,
                           std::string thread_name,
                           std::string process_name = "");

  void set_job_name(std::string name) {
    textmr::MutexLock lock(mu_);
    job_name_ = std::move(name);
  }

  /// Merges all rings into a ts-sorted TraceData and leaves the
  /// collector empty.
  TraceData finish();

  /// Incremental variant of finish(): moves out everything recorded
  /// since the previous drain (or construction) but keeps every ring
  /// registered, so writer threads' TraceBuffer pointers stay valid and
  /// recording can continue. Process/thread names registered since the
  /// last drain ship exactly once; drop counts are per-drain deltas, so
  /// summing chunk metadata (merge_trace does) stays correct. Same
  /// safety contract as finish(): call only when no writer is mid-record
  /// — the cluster worker drains between tasks.
  TraceData drain();

 private:
  TraceData drain_locked() TEXTMR_REQUIRES(mu_);

  // Both fixed in the constructor, read-only afterwards.
  TraceConfig config_;     // check:allow(lock-coverage): const after ctor
  std::uint64_t epoch_ns_;  // check:allow(lock-coverage): const after ctor
  // mu_ guards the ring registry, not ring contents: recording into a
  // TraceBuffer stays lock-free (single-writer contract above), and
  // finish() may only run after every writer thread has joined.
  mutable textmr::Mutex mu_{textmr::LockRank::kTrace, "obs.trace_collector"};
  std::string job_name_ TEXTMR_GUARDED_BY(mu_);
  std::deque<TraceBuffer> buffers_ TEXTMR_GUARDED_BY(mu_);  // stable addresses
  std::vector<std::pair<std::uint32_t, std::string>> process_names_
      TEXTMR_GUARDED_BY(mu_);
  std::vector<TraceData::ThreadName> thread_names_ TEXTMR_GUARDED_BY(mu_);
};

// ---- recording helpers (no-ops on a null buffer) -------------------------

inline void record_instant(TraceBuffer* buffer, const char* category,
                           const char* name) {
  if (buffer == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.ts_ns = monotonic_ns();
  e.kind = EventKind::kInstant;
  buffer->record(e);
}

inline void record_instant(TraceBuffer* buffer, const char* category,
                           const char* name, const char* a0, double v0) {
  if (buffer == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.ts_ns = monotonic_ns();
  e.kind = EventKind::kInstant;
  e.num_args = 1;
  e.arg_names[0] = a0;
  e.args[0] = v0;
  buffer->record(e);
}

inline void record_instant(TraceBuffer* buffer, const char* category,
                           const char* name, const char* a0, double v0,
                           const char* a1, double v1) {
  if (buffer == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.ts_ns = monotonic_ns();
  e.kind = EventKind::kInstant;
  e.num_args = 2;
  e.arg_names[0] = a0;
  e.args[0] = v0;
  e.arg_names[1] = a1;
  e.args[1] = v1;
  buffer->record(e);
}

inline void record_instant(TraceBuffer* buffer, const char* category,
                           const char* name, const char* a0, double v0,
                           const char* a1, double v1, const char* a2,
                           double v2) {
  if (buffer == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.ts_ns = monotonic_ns();
  e.kind = EventKind::kInstant;
  e.num_args = 3;
  e.arg_names[0] = a0;
  e.args[0] = v0;
  e.arg_names[1] = a1;
  e.args[1] = v1;
  e.arg_names[2] = a2;
  e.args[2] = v2;
  buffer->record(e);
}

/// Time-series sample: one point of a named counter track (spill
/// threshold, buffer fill level, freq-table occupancy / hit rate, ...).
inline void record_counter(TraceBuffer* buffer, const char* category,
                           const char* series, double value) {
  if (buffer == nullptr) return;
  TraceEvent e;
  e.name = series;
  e.category = category;
  e.ts_ns = monotonic_ns();
  e.kind = EventKind::kCounter;
  e.num_args = 1;
  e.arg_names[0] = "value";
  e.args[0] = value;
  buffer->record(e);
}

/// RAII span: records a complete ("X") event covering its lifetime.
/// Costs two clock reads when tracing is on, one branch when off.
class SpanTimer {
 public:
  SpanTimer(TraceBuffer* buffer, const char* category, const char* name)
      : buffer_(buffer) {
    if (buffer_ == nullptr) return;
    event_.name = name;
    event_.category = category;
    event_.ts_ns = monotonic_ns();
    event_.kind = EventKind::kSpan;
  }

  /// Attaches a numeric argument (up to 3; extras are dropped).
  void arg(const char* name, double value) {
    if (buffer_ == nullptr || event_.num_args >= 3) return;
    event_.arg_names[event_.num_args] = name;
    event_.args[event_.num_args] = value;
    ++event_.num_args;
  }

  /// Ends and records the span now instead of at scope exit. Idempotent.
  void done() {
    if (buffer_ == nullptr) return;
    event_.dur_ns = monotonic_ns() - event_.ts_ns;
    buffer_->record(event_);
    buffer_ = nullptr;
  }

  ~SpanTimer() { done(); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  TraceBuffer* buffer_;
  TraceEvent event_;
};

// ---- export ---------------------------------------------------------------

/// Renders the trace as a Chrome trace-event JSON document (the
/// {"traceEvents": [...]} form understood by chrome://tracing and
/// Perfetto). Timestamps are microseconds relative to the collector
/// epoch; pid = task, tid = thread role.
std::string format_chrome_trace(const TraceData& trace);

/// Writes `contents` to `path`, throwing IoError on failure.
void write_file(const std::filesystem::path& path, std::string_view contents);

// ---- series extraction ----------------------------------------------------

/// One point of an extracted counter series.
struct CounterSample {
  std::uint64_t ts_ns = 0;  // relative to the trace epoch
  std::uint32_t pid = 0;
  double value = 0;
};

/// Pulls one named counter track out of a trace, in time order — e.g.
/// counter_series(trace, "spill_threshold") yields the spill-matcher's
/// threshold trajectory, enough to regenerate Fig. 9-style plots from a
/// single run.
std::vector<CounterSample> counter_series(const TraceData& trace,
                                          std::string_view series);

/// Number of events with the given name (any kind).
std::size_t count_events(const TraceData& trace, std::string_view name);

}  // namespace textmr::obs
