#include "cluster/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/stopwatch.hpp"

namespace textmr::cluster {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kRunMap: return "run_map";
    case MsgType::kRunReduce: return "run_reduce";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kClockProbe: return "clock_probe";
    case MsgType::kSkewPlan: return "skew_plan";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kMapDone: return "map_done";
    case MsgType::kReduceDone: return "reduce_done";
    case MsgType::kTaskFailed: return "task_failed";
    case MsgType::kClockSync: return "clock_sync";
    case MsgType::kTraceChunk: return "trace_chunk";
    case MsgType::kWelcome: return "welcome";
    case MsgType::kHello: return "hello";
    case MsgType::kShuffleFetch: return "shuffle_fetch";
    case MsgType::kShuffleData: return "shuffle_data";
    case MsgType::kShuffleError: return "shuffle_error";
  }
  return "unknown";
}

// ---- WireWriter / WireReader ---------------------------------------------

void WireWriter::u32(std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 4);
}

void WireWriter::u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 8);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.append(v);
}

std::uint8_t WireReader::u8() {
  if (in_.empty()) throw FormatError("cluster frame truncated");
  const std::uint8_t v = static_cast<std::uint8_t>(in_[0]);
  in_.remove_prefix(1);
  return v;
}

std::uint32_t WireReader::u32() {
  if (in_.size() < 4) throw FormatError("cluster frame truncated");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(in_[i]))
         << (8 * i);
  }
  in_.remove_prefix(4);
  return v;
}

std::uint64_t WireReader::u64() {
  if (in_.size() < 8) throw FormatError("cluster frame truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in_[i]))
         << (8 * i);
  }
  in_.remove_prefix(8);
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (in_.size() < len) throw FormatError("cluster frame truncated");
  std::string v(in_.substr(0, len));
  in_.remove_prefix(len);
  return v;
}

std::string WireReader::rest() {
  std::string v(in_);
  in_.remove_prefix(in_.size());
  return v;
}

void WireReader::expect_done() const {
  if (!in_.empty()) throw FormatError("cluster frame has trailing bytes");
}

// ---- field-group helpers --------------------------------------------------

namespace {

void put_metrics(WireWriter& w, const mr::TaskMetrics& m) {
  w.u32(static_cast<std::uint32_t>(mr::kNumOps));
  for (std::uint64_t ns : m.ns) w.u64(ns);
  w.u64(m.input_records);
  w.u64(m.input_bytes);
  w.u64(m.map_output_records);
  w.u64(m.map_output_bytes);
  w.u64(m.freq_hits);
  w.u64(m.freq_flushes);
  w.u64(m.spill_input_records);
  w.u64(m.spill_input_bytes);
  w.u64(m.spilled_records);
  w.u64(m.spilled_bytes);
  w.u64(m.spill_count);
  w.u64(m.merged_records);
  w.u64(m.merged_bytes);
  w.u64(m.shuffled_bytes);
  w.u64(m.shuffled_wire_bytes);
  w.u64(m.reduce_input_records);
  w.u64(m.reduce_groups);
  w.u64(m.output_records);
  w.u64(m.output_bytes);
}

mr::TaskMetrics get_metrics(WireReader& r) {
  mr::TaskMetrics m;
  const std::uint32_t ops = r.u32();
  if (ops != mr::kNumOps) {
    throw FormatError("cluster metrics op-count mismatch");
  }
  for (std::size_t i = 0; i < mr::kNumOps; ++i) m.ns[i] = r.u64();
  m.input_records = r.u64();
  m.input_bytes = r.u64();
  m.map_output_records = r.u64();
  m.map_output_bytes = r.u64();
  m.freq_hits = r.u64();
  m.freq_flushes = r.u64();
  m.spill_input_records = r.u64();
  m.spill_input_bytes = r.u64();
  m.spilled_records = r.u64();
  m.spilled_bytes = r.u64();
  m.spill_count = r.u64();
  m.merged_records = r.u64();
  m.merged_bytes = r.u64();
  m.shuffled_bytes = r.u64();
  m.shuffled_wire_bytes = r.u64();
  m.reduce_input_records = r.u64();
  m.reduce_groups = r.u64();
  m.output_records = r.u64();
  m.output_bytes = r.u64();
  return m;
}

void put_counters(WireWriter& w, const mr::Counters& counters) {
  w.u32(static_cast<std::uint32_t>(counters.all().size()));
  for (const auto& [name, value] : counters.all()) {
    w.str(name);
    w.u64(value);
  }
}

mr::Counters get_counters(WireReader& r) {
  mr::Counters counters;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = r.str();
    counters.increment(name, r.u64());
  }
  return counters;
}

void put_run_info(WireWriter& w, const io::SpillRunInfo& run) {
  w.str(run.path);
  w.u64(run.bytes);
  w.u64(run.records);
  w.u32(static_cast<std::uint32_t>(run.partitions.size()));
  for (const auto& extent : run.partitions) {
    w.u64(extent.offset);
    w.u64(extent.bytes);
    w.u64(extent.records);
  }
}

io::SpillRunInfo get_run_info(WireReader& r) {
  io::SpillRunInfo run;
  run.path = r.str();
  run.bytes = r.u64();
  run.records = r.u64();
  const std::uint32_t n = r.u32();
  run.partitions.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    io::PartitionExtent extent;
    extent.offset = r.u64();
    extent.bytes = r.u64();
    extent.records = r.u64();
    run.partitions.push_back(extent);
  }
  return run;
}

void put_endpoint(WireWriter& w, const Endpoint& ep) {
  w.str(ep.host);
  w.u32(ep.port);
}

Endpoint get_endpoint(WireReader& r) {
  Endpoint ep;
  ep.host = r.str();
  const std::uint32_t port = r.u32();
  if (port > 0xffff) {
    throw FormatError("cluster endpoint port " + std::to_string(port) +
                      " out of range");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

void put_worker_metrics(WireWriter& w, const WorkerMetrics& m) {
  w.u64(m.records);
  w.u64(m.bytes);
  w.u64(m.spills);
  w.u64(m.tasks_completed);
  w.u64(m.task_failures);
  w.u64(m.trace_dropped);
  w.str(m.task_latency_ns.serialize());
}

WorkerMetrics get_worker_metrics(WireReader& r) {
  WorkerMetrics m;
  m.records = r.u64();
  m.bytes = r.u64();
  m.spills = r.u64();
  m.tasks_completed = r.u64();
  m.task_failures = r.u64();
  m.trace_dropped = r.u64();
  m.task_latency_ns = obs::LatencyHistogram::deserialize(r.str());
  return m;
}

void put_event(WireWriter& w, const obs::TraceEvent& e) {
  w.str(e.name != nullptr ? e.name : "");
  w.str(e.category != nullptr ? e.category : "");
  w.u64(e.ts_ns);
  w.u64(e.dur_ns);
  w.u32(e.pid);
  w.u32(e.tid);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u8(e.num_args);
  for (std::uint8_t i = 0; i < e.num_args; ++i) {
    w.str(e.arg_names[i] != nullptr ? e.arg_names[i] : "");
    w.f64(e.args[i]);
  }
}

}  // namespace

// ---- messages -------------------------------------------------------------

std::string encode_run_task(MsgType type, const RunTaskMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(msg.id);
  w.u32(msg.attempt);
  return w.take();
}

RunTaskMsg decode_run_task(WireReader& r) {
  RunTaskMsg msg;
  msg.id = r.u32();
  msg.attempt = r.u32();
  r.expect_done();
  return msg;
}

std::string encode_run_reduce(const RunReduceMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRunReduce));
  w.u32(msg.partition);
  w.u32(msg.attempt);
  w.u32(static_cast<std::uint32_t>(msg.map_outputs.size()));
  for (const auto& run : msg.map_outputs) put_run_info(w, run);
  w.u32(static_cast<std::uint32_t>(msg.sources.size()));
  for (const auto& source : msg.sources) put_endpoint(w, source);
  return w.take();
}

RunReduceMsg decode_run_reduce(WireReader& r) {
  RunReduceMsg msg;
  msg.partition = r.u32();
  msg.attempt = r.u32();
  const std::uint32_t n = r.u32();
  msg.map_outputs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    msg.map_outputs.push_back(get_run_info(r));
  }
  const std::uint32_t num_sources = r.u32();
  if (num_sources != 0 && num_sources != n) {
    throw FormatError("run_reduce sources count " +
                      std::to_string(num_sources) + " != runs count " +
                      std::to_string(n));
  }
  msg.sources.reserve(num_sources);
  for (std::uint32_t i = 0; i < num_sources; ++i) {
    msg.sources.push_back(get_endpoint(r));
  }
  r.expect_done();
  return msg;
}

std::string encode_heartbeat(const HeartbeatMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHeartbeat));
  w.u32(msg.worker_id);
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.u32(msg.id);
  w.u32(msg.attempt);
  w.f64(msg.progress);
  put_worker_metrics(w, msg.stats);
  return w.take();
}

HeartbeatMsg decode_heartbeat(WireReader& r) {
  HeartbeatMsg msg;
  msg.worker_id = r.u32();
  msg.kind = static_cast<TaskKind>(r.u8());
  msg.id = r.u32();
  msg.attempt = r.u32();
  msg.progress = r.f64();
  msg.stats = get_worker_metrics(r);
  r.expect_done();
  return msg;
}

std::string encode_task_failed(const TaskFailedMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTaskFailed));
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.u32(msg.id);
  w.u32(msg.attempt);
  w.u8(msg.retryable ? 1 : 0);
  w.str(msg.message);
  return w.take();
}

TaskFailedMsg decode_task_failed(WireReader& r) {
  TaskFailedMsg msg;
  msg.kind = static_cast<TaskKind>(r.u8());
  msg.id = r.u32();
  msg.attempt = r.u32();
  msg.retryable = r.u8() != 0;
  msg.message = r.str();
  r.expect_done();
  return msg;
}

std::string encode_map_done(std::uint32_t task, std::uint32_t attempt,
                            const mr::MapTaskResult& result) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kMapDone));
  w.u32(task);
  w.u32(attempt);
  put_run_info(w, result.output);
  put_metrics(w, result.map_thread);
  put_metrics(w, result.support_thread);
  put_counters(w, result.counters);
  w.u64(result.wall_ns);
  w.u64(result.pipeline_wall_ns);
  w.u64(result.spills);
  w.f64(result.final_spill_threshold);
  w.u8(static_cast<std::uint8_t>(result.freq_stage_at_end));
  w.f64(result.freq_sampling_fraction);
  return w.take();
}

void decode_map_done(WireReader& r, std::uint32_t& task,
                     std::uint32_t& attempt, mr::MapTaskResult& result) {
  task = r.u32();
  attempt = r.u32();
  result.output = get_run_info(r);
  result.map_thread = get_metrics(r);
  result.support_thread = get_metrics(r);
  result.counters = get_counters(r);
  result.wall_ns = r.u64();
  result.pipeline_wall_ns = r.u64();
  result.spills = r.u64();
  result.final_spill_threshold = r.f64();
  result.freq_stage_at_end =
      static_cast<freqbuf::FreqBufferController::Stage>(r.u8());
  result.freq_sampling_fraction = r.f64();
  r.expect_done();
}

std::string encode_reduce_done(std::uint32_t partition, std::uint32_t attempt,
                               const mr::ReduceTaskResult& result) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kReduceDone));
  w.u32(partition);
  w.u32(attempt);
  w.str(result.output_path.string());
  put_metrics(w, result.metrics);
  put_counters(w, result.counters);
  w.u64(result.wall_ns);
  return w.take();
}

void decode_reduce_done(WireReader& r, std::uint32_t& partition,
                        std::uint32_t& attempt, mr::ReduceTaskResult& result) {
  partition = r.u32();
  attempt = r.u32();
  result.output_path = r.str();
  result.metrics = get_metrics(r);
  result.counters = get_counters(r);
  result.wall_ns = r.u64();
  r.expect_done();
}

std::string encode_skew_plan(const mr::SkewPlan& plan) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kSkewPlan));
  w.u32(plan.num_canonical);
  w.u32(static_cast<std::uint32_t>(plan.entries.size()));
  for (const auto& entry : plan.entries) {
    w.str(entry.key);
    w.u8(static_cast<std::uint8_t>(entry.mode));
    w.u32(entry.first_physical);
    w.u32(entry.num_shares);
  }
  return w.take();
}

mr::SkewPlan decode_skew_plan(WireReader& r) {
  mr::SkewPlan plan;
  plan.num_canonical = r.u32();
  const std::uint32_t n = r.u32();
  plan.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    mr::SkewPlan::Entry entry;
    entry.key = r.str();
    const std::uint8_t mode = r.u8();
    if (mode > static_cast<std::uint8_t>(mr::SkewPlan::Mode::kSplit)) {
      throw FormatError("cluster skew plan has bad entry mode " +
                        std::to_string(mode));
    }
    entry.mode = static_cast<mr::SkewPlan::Mode>(mode);
    entry.first_physical = r.u32();
    entry.num_shares = r.u32();
    plan.entries.push_back(std::move(entry));
  }
  r.expect_done();
  return plan;
}

std::string encode_clock_probe(const ClockProbeMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kClockProbe));
  w.u64(msg.t_send);
  return w.take();
}

ClockProbeMsg decode_clock_probe(WireReader& r) {
  ClockProbeMsg msg;
  msg.t_send = r.u64();
  r.expect_done();
  return msg;
}

std::string encode_clock_sync(const ClockSyncMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kClockSync));
  w.u32(msg.worker_id);
  w.u64(msg.t_probe);
  w.u64(msg.t_worker);
  return w.take();
}

ClockSyncMsg decode_clock_sync(WireReader& r) {
  ClockSyncMsg msg;
  msg.worker_id = r.u32();
  msg.t_probe = r.u64();
  msg.t_worker = r.u64();
  r.expect_done();
  return msg;
}

std::string encode_welcome(const WelcomeMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kWelcome));
  w.u32(msg.worker_id);
  w.u32(msg.heartbeat_interval_ms);
  return w.take();
}

WelcomeMsg decode_welcome(WireReader& r) {
  WelcomeMsg msg;
  msg.worker_id = r.u32();
  msg.heartbeat_interval_ms = r.u32();
  r.expect_done();
  return msg;
}

std::string encode_hello(const HelloMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kHello));
  w.u32(msg.worker_id);
  put_endpoint(w, msg.shuffle);
  return w.take();
}

HelloMsg decode_hello(WireReader& r) {
  HelloMsg msg;
  msg.worker_id = r.u32();
  msg.shuffle = get_endpoint(r);
  r.expect_done();
  return msg;
}

std::string encode_shuffle_fetch(const ShuffleFetchMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kShuffleFetch));
  w.str(msg.run_path);
  w.u32(msg.partition);
  return w.take();
}

ShuffleFetchMsg decode_shuffle_fetch(WireReader& r) {
  ShuffleFetchMsg msg;
  msg.run_path = r.str();
  msg.partition = r.u32();
  r.expect_done();
  return msg;
}

std::string encode_shuffle_data(const ShuffleDataMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kShuffleData));
  w.u64(msg.records);
  // The partition bytes ride as the frame's tail, unframed: they are
  // already length-delimited by the frame itself, and skipping the
  // u32-length str() form keeps a single partition fetchable right up
  // to the kMaxFramePayload cap.
  std::string payload = w.take();
  payload += msg.bytes;
  return payload;
}

ShuffleDataMsg decode_shuffle_data(WireReader& r) {
  ShuffleDataMsg msg;
  msg.records = r.u64();
  msg.bytes = r.rest();
  return msg;
}

std::string encode_shuffle_error(const ShuffleErrorMsg& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kShuffleError));
  w.u8(msg.retryable ? 1 : 0);
  w.str(msg.message);
  return w.take();
}

ShuffleErrorMsg decode_shuffle_error(WireReader& r) {
  ShuffleErrorMsg msg;
  msg.retryable = r.u8() != 0;
  msg.message = r.str();
  r.expect_done();
  return msg;
}

namespace {

constexpr std::uint8_t kChunkFlagFinal = 1;

/// Everything in a chunk except its events; metadata rides only on the
/// first frame of a batch so frames 2..n stay almost pure event payload.
std::string encode_chunk_header(const TraceChunkMsg& msg, bool first,
                                bool last) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kTraceChunk));
  w.u32(msg.worker_id);
  w.u8((last && msg.final_chunk) ? kChunkFlagFinal : 0);
  put_worker_metrics(w, msg.stats);
  const obs::TraceData& trace = msg.trace;
  w.u8(trace.enabled ? 1 : 0);
  w.str(first ? trace.job_name : std::string());
  w.u64(trace.epoch_ns);
  w.u64(first ? trace.dropped_events : 0);
  const std::size_t num_rings = first ? trace.ring_drops.size() : 0;
  w.u32(static_cast<std::uint32_t>(num_rings));
  for (std::size_t i = 0; i < num_rings; ++i) {
    w.u32(trace.ring_drops[i].pid);
    w.u32(trace.ring_drops[i].tid);
    w.u64(trace.ring_drops[i].dropped);
  }
  const std::size_t num_procs = first ? trace.process_names.size() : 0;
  w.u32(static_cast<std::uint32_t>(num_procs));
  for (std::size_t i = 0; i < num_procs; ++i) {
    w.u32(trace.process_names[i].first);
    w.str(trace.process_names[i].second);
  }
  const std::size_t num_threads = first ? trace.thread_names.size() : 0;
  w.u32(static_cast<std::uint32_t>(num_threads));
  for (std::size_t i = 0; i < num_threads; ++i) {
    w.u32(trace.thread_names[i].pid);
    w.u32(trace.thread_names[i].tid);
    w.str(trace.thread_names[i].name);
  }
  return w.take();
}

}  // namespace

std::vector<std::string> encode_trace_chunks(const TraceChunkMsg& msg,
                                             std::size_t max_payload) {
  // Greedy packing: serialize events one by one, starting a new frame
  // whenever the next event would push the payload past the budget. A
  // single oversized event still ships (in its own frame) rather than
  // being dropped; kMaxFramePayload is 64x the default budget, so only
  // a pathological event could trip the frame cap.
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // [begin, end)
  std::vector<std::string> encoded_events;
  encoded_events.reserve(msg.trace.events.size());
  std::size_t frame_begin = 0;
  std::size_t frame_bytes = 0;
  for (std::size_t i = 0; i < msg.trace.events.size(); ++i) {
    WireWriter event_writer;
    put_event(event_writer, msg.trace.events[i]);
    std::string bytes = event_writer.take();
    if (i > frame_begin && frame_bytes + bytes.size() > max_payload) {
      frames.emplace_back(frame_begin, i);
      frame_begin = i;
      frame_bytes = 0;
    }
    frame_bytes += bytes.size();
    encoded_events.push_back(std::move(bytes));
  }
  frames.emplace_back(frame_begin, msg.trace.events.size());

  std::vector<std::string> payloads;
  payloads.reserve(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const bool first = f == 0;
    const bool last = f + 1 == frames.size();
    std::string payload = encode_chunk_header(msg, first, last);
    WireWriter count;
    count.u32(static_cast<std::uint32_t>(frames[f].second - frames[f].first));
    payload += count.take();
    for (std::size_t i = frames[f].first; i < frames[f].second; ++i) {
      payload += encoded_events[i];
    }
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

TraceChunkMsg decode_trace_chunk(WireReader& r) {
  TraceChunkMsg msg;
  msg.worker_id = r.u32();
  msg.final_chunk = (r.u8() & kChunkFlagFinal) != 0;
  msg.stats = get_worker_metrics(r);
  obs::TraceData& trace = msg.trace;
  trace.enabled = r.u8() != 0;
  trace.job_name = r.str();
  trace.epoch_ns = r.u64();
  trace.dropped_events = r.u64();
  const std::uint32_t num_rings = r.u32();
  for (std::uint32_t i = 0; i < num_rings; ++i) {
    obs::TraceData::RingDrops drops;
    drops.pid = r.u32();
    drops.tid = r.u32();
    drops.dropped = r.u64();
    trace.ring_drops.push_back(drops);
  }
  const std::uint32_t num_procs = r.u32();
  for (std::uint32_t i = 0; i < num_procs; ++i) {
    const std::uint32_t pid = r.u32();
    trace.process_names.emplace_back(pid, r.str());
  }
  const std::uint32_t num_threads = r.u32();
  for (std::uint32_t i = 0; i < num_threads; ++i) {
    obs::TraceData::ThreadName thread;
    thread.pid = r.u32();
    thread.tid = r.u32();
    thread.name = r.str();
    trace.thread_names.push_back(std::move(thread));
  }
  // Dedupe interning: a worker's events repeat a handful of literal
  // names, so the pool stays tiny even for large rings.
  std::unordered_map<std::string, const char*> seen;
  auto intern = [&trace, &seen](std::string s) -> const char* {
    auto it = seen.find(s);
    if (it != seen.end()) return it->second;
    const char* p = trace.intern(s);
    seen.emplace(std::move(s), p);
    return p;
  };
  const std::uint32_t num_events = r.u32();
  trace.events.reserve(num_events);
  for (std::uint32_t i = 0; i < num_events; ++i) {
    obs::TraceEvent e;
    e.name = intern(r.str());
    e.category = intern(r.str());
    e.ts_ns = r.u64();
    e.dur_ns = r.u64();
    e.pid = r.u32();
    e.tid = r.u32();
    e.kind = static_cast<obs::EventKind>(r.u8());
    e.num_args = r.u8();
    if (e.num_args > 3) throw FormatError("cluster trace event arg overflow");
    for (std::uint8_t a = 0; a < e.num_args; ++a) {
      e.arg_names[a] = intern(r.str());
      e.args[a] = r.f64();
    }
    trace.events.push_back(e);
  }
  r.expect_done();
  return msg;
}

// ---- framed socket I/O ----------------------------------------------------

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr std::size_t kFrameLengthBytes = 4;  // u32 length prefix
constexpr std::size_t kFramePreambleBytes = kFrameLengthBytes + 4;  // + crc

void put_u32_le(char* dest, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dest[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

std::uint32_t get_u32_le(const char* src) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(src[i]))
         << (8 * i);
  }
  return v;
}

void check_frame_length(std::uint32_t len) {
  if (len > kMaxFramePayload) {
    throw IoError("cluster frame length " + std::to_string(len) +
                  " exceeds cap " + std::to_string(kMaxFramePayload) +
                  " (desynchronized or corrupted stream)");
  }
}

void check_frame_crc(std::uint32_t expected, std::string_view payload) {
  const std::uint32_t actual = crc32(payload);
  if (actual != expected) {
    throw IoError("cluster frame checksum mismatch (got " +
                  std::to_string(actual) + ", frame claims " +
                  std::to_string(expected) + ")");
  }
}

/// Milliseconds remaining until `deadline_ns`; -1 when there is no
/// deadline. Throws IoError once the deadline has passed.
int remaining_ms(std::uint64_t deadline_ns, const char* what) {
  if (deadline_ns == 0) return -1;
  const std::uint64_t now = monotonic_ns();
  if (now >= deadline_ns) {
    throw IoError(std::string("cluster ") + what +
                  " timed out (dead or stalled peer)");
  }
  const std::uint64_t ms = (deadline_ns - now) / 1000000ull;
  return static_cast<int>(std::min<std::uint64_t>(ms + 1, 60000));
}

std::uint64_t deadline_from(std::int32_t timeout_ms) {
  return timeout_ms < 0
             ? 0
             : monotonic_ns() +
                   static_cast<std::uint64_t>(timeout_ms) * 1000000ull;
}

/// Waits until `fd` is ready for `events`; throws IoError on poll
/// failure or when `deadline_ns` (0 = none) passes first.
void wait_ready(int fd, short events, std::uint64_t deadline_ns,
                const char* what) {
  while (true) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, remaining_ms(deadline_ns, what));
    if (rc > 0) return;
    if (rc < 0 && errno != EINTR) {
      throw IoError("cluster poll failed: " + std::string(strerror(errno)));
    }
    // rc == 0: poll timed out; loop so remaining_ms re-checks the
    // deadline and throws once it has truly passed.
  }
}

/// Writes all of `data`; false if the peer is gone. MSG_DONTWAIT even
/// on blocking fds: a full socket buffer must route through wait_ready
/// (which honors the deadline), not block inside the kernel's send —
/// a peer that stops draining would otherwise hang us forever.
bool send_all(int fd, const char* data, std::size_t n,
              std::uint64_t deadline_ns) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w =
        ::send(fd, data + off, n - off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(fd, POLLOUT, deadline_ns, "send");
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) return false;
    throw IoError("cluster send failed: " + std::string(strerror(errno)));
  }
  return true;
}

/// Reads exactly `n` bytes into `dest`. Returns false on EOF before the
/// first byte when `eof_ok`; throws on mid-read EOF, errors, timeout.
bool recv_exact(int fd, char* dest, std::size_t n, std::uint64_t deadline_ns,
                bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    // Poll first: worker-side fds are blocking, and a recv() on a
    // blocking socket would ignore the deadline entirely.
    wait_ready(fd, POLLIN, deadline_ns, "recv");
    const ssize_t r = ::recv(fd, dest + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;  // clean EOF between frames
      throw IoError("cluster channel closed mid-frame");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw IoError("cluster recv failed: " + std::string(strerror(errno)));
  }
  return true;
}

/// kCorrupt flips one payload byte (the frame checksum detects it on the
/// receiving side); kShortWrite tears the frame after the preamble
/// plus half the payload and reports the peer gone. Both model a
/// desynchronizing network fault, so callers must treat the channel as
/// dead afterwards — exactly what returning false makes them do.
bool apply_send_fault(const failpoint::Action& action, int fd,
                      std::string& wire, std::size_t preamble,
                      std::uint64_t deadline_ns) {
  switch (action.kind) {
    case failpoint::ActionKind::kThrow:
      throw failpoint::InjectedFault("net.send");
    case failpoint::ActionKind::kDelay:
      failpoint::maybe_delay(action);
      return true;
    case failpoint::ActionKind::kCorrupt:
      if (wire.size() > preamble) {
        wire[preamble + (wire.size() - preamble) / 2] ^= 0x20;
      }
      return true;
    case failpoint::ActionKind::kShortWrite: {
      const std::size_t torn = preamble + (wire.size() - preamble) / 2;
      send_all(fd, wire.data(), torn, deadline_ns);
      return false;
    }
  }
  return true;
}

}  // namespace

bool send_frame(int fd, std::string_view payload, std::int32_t timeout_ms) {
  const std::uint64_t deadline_ns = deadline_from(timeout_ms);
  std::string wire;
  wire.resize(kFramePreambleBytes);
  put_u32_le(wire.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32_le(wire.data() + kFrameLengthBytes, crc32(payload));
  wire.append(payload);
  if (failpoint::enabled()) {
    if (const auto action = failpoint::consume("net.send")) {
      if (!apply_send_fault(*action, fd, wire, kFramePreambleBytes,
                            deadline_ns)) {
        return false;
      }
    }
  }
  return send_all(fd, wire.data(), wire.size(), deadline_ns);
}

std::optional<std::string> recv_frame(int fd, std::int32_t timeout_ms) {
  if (failpoint::enabled()) {
    if (const auto action = failpoint::consume("net.recv")) {
      if (action->kind == failpoint::ActionKind::kDelay) {
        failpoint::maybe_delay(*action);
      } else {
        throw failpoint::InjectedFault("net.recv");
      }
    }
  }
  const std::uint64_t deadline_ns = deadline_from(timeout_ms);
  char header[kFramePreambleBytes];
  if (!recv_exact(fd, header, kFramePreambleBytes, deadline_ns,
                  /*eof_ok=*/true)) {
    return std::nullopt;
  }
  const std::uint32_t len = get_u32_le(header);
  check_frame_length(len);
  std::string payload(len, '\0');
  recv_exact(fd, payload.data(), len, deadline_ns, /*eof_ok=*/false);
  check_frame_crc(get_u32_le(header + kFrameLengthBytes), payload);
  return payload;
}

std::optional<std::string> FrameDecoder::next() {
  if (buf_.size() < kFramePreambleBytes) return std::nullopt;
  const std::uint32_t len = get_u32_le(buf_.data());
  check_frame_length(len);
  if (buf_.size() < kFramePreambleBytes + len) return std::nullopt;
  std::string frame = buf_.substr(kFramePreambleBytes, len);
  check_frame_crc(get_u32_le(buf_.data() + kFrameLengthBytes), frame);
  buf_.erase(0, kFramePreambleBytes + len);
  return frame;
}

}  // namespace textmr::cluster
