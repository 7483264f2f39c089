#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace textmr::obs {

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  if (dropped_ == drained_dropped_) {
    // No overwrite since the last drain: the ring is in record order.
    events.assign(ring_.begin(), ring_.end());
  } else {
    // The ring wrapped: oldest surviving event sits at next_overwrite_.
    events.insert(events.end(), ring_.begin() + next_overwrite_, ring_.end());
    events.insert(events.end(), ring_.begin(),
                  ring_.begin() + next_overwrite_);
  }
  return events;
}

TraceBuffer::Drained TraceBuffer::drain() {
  Drained out;
  out.events = snapshot();
  out.dropped = dropped_ - drained_dropped_;
  drained_dropped_ = dropped_;
  ring_.clear();
  next_overwrite_ = 0;
  return out;
}

TraceCollector::TraceCollector(TraceConfig config)
    : config_(config), epoch_ns_(monotonic_ns()) {
  if (config_.ring_capacity < 64) config_.ring_capacity = 64;
}

TraceBuffer* TraceCollector::make_buffer(std::uint32_t pid, std::uint32_t tid,
                                         std::string thread_name,
                                         std::string process_name) {
  textmr::MutexLock lock(mu_);
  buffers_.emplace_back(pid, tid, config_.ring_capacity);
  thread_names_.push_back({pid, tid, std::move(thread_name)});
  if (!process_name.empty()) {
    const bool known =
        std::any_of(process_names_.begin(), process_names_.end(),
                    [pid](const auto& entry) { return entry.first == pid; });
    if (!known) process_names_.emplace_back(pid, std::move(process_name));
  }
  return &buffers_.back();
}

TraceData TraceCollector::drain_locked() {
  TraceData data;
  data.enabled = true;
  data.job_name = job_name_;
  data.epoch_ns = epoch_ns_;
  // Names ship exactly once: the first drain after a ring registers
  // carries its name, later drains carry nothing (merge_trace dedupes
  // process names anyway, but not thread names).
  data.process_names = std::move(process_names_);
  data.thread_names = std::move(thread_names_);
  process_names_.clear();
  thread_names_.clear();
  for (auto& buffer : buffers_) {
    TraceBuffer::Drained drained = buffer.drain();
    data.events.insert(data.events.end(), drained.events.begin(),
                       drained.events.end());
    data.dropped_events += drained.dropped;
    if (drained.dropped > 0) {
      data.ring_drops.push_back(
          TraceData::RingDrops{buffer.pid(), buffer.tid(), drained.dropped});
    }
  }
  std::stable_sort(data.events.begin(), data.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return data;
}

TraceData TraceCollector::drain() {
  textmr::MutexLock lock(mu_);
  return drain_locked();
}

TraceData TraceCollector::finish() {
  textmr::MutexLock lock(mu_);
  TraceData data = drain_locked();
  buffers_.clear();
  return data;
}

void merge_trace(TraceData& into, TraceData&& from) {
  if (!from.enabled) return;
  into.enabled = true;
  if (into.job_name.empty()) into.job_name = std::move(from.job_name);
  if (into.epoch_ns == 0 || (from.epoch_ns != 0 && from.epoch_ns < into.epoch_ns)) {
    into.epoch_ns = from.epoch_ns;
  }
  into.events.insert(into.events.end(), from.events.begin(), from.events.end());
  into.dropped_events += from.dropped_events;
  into.incomplete = into.incomplete || from.incomplete;
  for (const auto& drops : from.ring_drops) {
    auto it = std::find_if(into.ring_drops.begin(), into.ring_drops.end(),
                           [&drops](const TraceData::RingDrops& existing) {
                             return existing.pid == drops.pid &&
                                    existing.tid == drops.tid;
                           });
    if (it != into.ring_drops.end()) {
      it->dropped += drops.dropped;
    } else {
      into.ring_drops.push_back(drops);
    }
  }
  for (auto& entry : from.process_names) {
    const std::uint32_t pid = entry.first;
    const bool known =
        std::any_of(into.process_names.begin(), into.process_names.end(),
                    [pid](const auto& existing) { return existing.first == pid; });
    if (!known) into.process_names.push_back(std::move(entry));
  }
  into.thread_names.insert(into.thread_names.end(),
                           std::make_move_iterator(from.thread_names.begin()),
                           std::make_move_iterator(from.thread_names.end()));
  // Adopt the pool: the shared_ptrs move but the strings they own do not,
  // so the events' pointers stay valid.
  into.string_pool.insert(into.string_pool.end(),
                          std::make_move_iterator(from.string_pool.begin()),
                          std::make_move_iterator(from.string_pool.end()));
  std::stable_sort(into.events.begin(), into.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
}

void rebase_trace(TraceData& trace, std::int64_t offset_ns) {
  if (offset_ns == 0) return;
  const auto shift = [offset_ns](std::uint64_t ts) -> std::uint64_t {
    const auto t = static_cast<std::int64_t>(ts) - offset_ns;
    return t < 0 ? 0 : static_cast<std::uint64_t>(t);
  };
  for (TraceEvent& e : trace.events) e.ts_ns = shift(e.ts_ns);
  trace.epoch_ns = shift(trace.epoch_ns);
}

namespace {

double to_us(std::uint64_t ns, std::uint64_t epoch_ns) {
  return static_cast<double>(ns - std::min(ns, epoch_ns)) * 1e-3;
}

void write_args(JsonWriter& w, const TraceEvent& e) {
  w.key("args").begin_object();
  for (std::uint8_t i = 0; i < e.num_args; ++i) {
    w.field(e.arg_names[i], e.args[i]);
  }
  w.end_object();
}

void write_event(JsonWriter& w, const TraceEvent& e, std::uint64_t epoch_ns) {
  w.begin_object();
  switch (e.kind) {
    case EventKind::kSpan:
      w.field("ph", "X");
      w.field("dur", static_cast<double>(e.dur_ns) * 1e-3);
      break;
    case EventKind::kInstant:
      w.field("ph", "i");
      w.field("s", "t");  // thread-scoped instant
      break;
    case EventKind::kCounter:
      w.field("ph", "C");
      break;
  }
  w.field("name", e.name != nullptr ? e.name : "?");
  w.field("cat", e.category != nullptr ? e.category : "textmr");
  w.field("ts", to_us(e.ts_ns, epoch_ns));
  w.field("pid", e.pid);
  w.field("tid", e.tid);
  write_args(w, e);
  w.end_object();
}

}  // namespace

std::string format_chrome_trace(const TraceData& trace) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const auto& [pid, name] : trace.process_names) {
    w.begin_object();
    w.field("ph", "M");
    w.field("name", "process_name");
    w.field("pid", pid);
    w.field("tid", std::uint64_t{0});
    w.key("args").begin_object().field("name", name).end_object();
    w.end_object();
  }
  for (const auto& thread : trace.thread_names) {
    w.begin_object();
    w.field("ph", "M");
    w.field("name", "thread_name");
    w.field("pid", thread.pid);
    w.field("tid", thread.tid);
    w.key("args").begin_object().field("name", thread.name).end_object();
    w.end_object();
  }
  for (const auto& event : trace.events) {
    write_event(w, event, trace.epoch_ns);
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.field("job", trace.job_name);
  w.field("dropped_events", trace.dropped_events);
  w.field("telemetry_incomplete", trace.incomplete);
  w.key("dropped_rings").begin_array();
  for (const auto& drops : trace.ring_drops) {
    w.begin_object();
    w.field("pid", drops.pid);
    w.field("tid", drops.tid);
    w.field("dropped", drops.dropped);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.take();
}

void write_file(const std::filesystem::path& path, std::string_view contents) {
  std::FILE* file = std::fopen(path.string().c_str(), "wb");
  if (file == nullptr) {
    throw IoError("cannot create " + path.string());
  }
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  const int close_rc = std::fclose(file);
  if (written != contents.size() || close_rc != 0) {
    throw IoError("short write to " + path.string());
  }
}

std::vector<CounterSample> counter_series(const TraceData& trace,
                                          std::string_view series) {
  std::vector<CounterSample> samples;
  for (const auto& e : trace.events) {
    if (e.kind != EventKind::kCounter || e.name == nullptr ||
        series != e.name) {
      continue;
    }
    samples.push_back(CounterSample{
        e.ts_ns - std::min(e.ts_ns, trace.epoch_ns), e.pid, e.args[0]});
  }
  return samples;
}

std::size_t count_events(const TraceData& trace, std::string_view name) {
  std::size_t count = 0;
  for (const auto& e : trace.events) {
    if (e.name != nullptr && name == e.name) ++count;
  }
  return count;
}

}  // namespace textmr::obs
