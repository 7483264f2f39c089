#include "cluster/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <initializer_list>
#include <type_traits>
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

// ---- field lists ------------------------------------------------------------
//
// Every message and field group has exactly one `fields(a, x)` function
// naming its members in wire order. Encoding runs it with a WireWriter
// (x is const), decoding with a WireReader (x is filled in), so the two
// directions cannot drift apart. Decode-side checks sit in the same list
// through require(), which a writer skips.

namespace {

template <class A>
constexpr bool kReading = std::is_same_v<A, WireReader>;

/// The member type a field list sees: const when encoding, mutable when
/// decoding.
template <class A, class T>
using Ref = std::conditional_t<kReading<A>, T&, const T&>;

// Largest valid value of each enum that rides the wire as one byte. The
// bytes may come from an external worker over TCP, so a reader rejects
// anything above it; an enum without an overload here cannot be encoded.
constexpr TaskKind wire_max(TaskKind) { return TaskKind::kReduce; }
constexpr obs::EventKind wire_max(obs::EventKind) {
  return obs::EventKind::kCounter;
}
constexpr freqbuf::FreqBufferController::Stage wire_max(
    freqbuf::FreqBufferController::Stage) {
  return freqbuf::FreqBufferController::Stage::kOptimize;
}

// One value in its wire form: bools and enums as u8, 16- and 32-bit
// integers as u32, 64-bit ones as u64, doubles as f64, strings and paths
// length-prefixed.
template <class T>
void value(WireWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, std::uint8_t>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::uint16_t> ||
                       std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, std::filesystem::path>) {
    w.str(v.string());
  } else {
    static_assert(std::is_same_v<T, std::string>);
    w.str(v);
  }
}

template <class T>
void value(WireReader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::is_enum_v<T>) {
    const std::uint8_t byte = r.u8();
    if (byte > static_cast<std::uint8_t>(wire_max(v))) {
      throw FormatError("cluster frame has bad enum value " +
                        std::to_string(byte));
    }
    v = static_cast<T>(byte);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    const std::uint32_t wide = r.u32();
    if (wide > 0xffff) {
      throw FormatError("cluster frame value " + std::to_string(wide) +
                        " out of 16-bit range");
    }
    v = static_cast<std::uint16_t>(wide);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, std::filesystem::path>) {
    v = r.str();
  } else {
    static_assert(std::is_same_v<T, std::string>);
    v = r.str();
  }
}

template <class A, class... T>
void wire(A& a, T&... v) {
  (value(a, v), ...);
}

/// A u32 count, then each element through `each`.
template <class T, class Fn>
void seq(WireWriter& w, const std::vector<T>& items, Fn&& each) {
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const T& item : items) each(item);
}

template <class T, class Fn>
void seq(WireReader& r, std::vector<T>& items, Fn&& each) {
  const std::uint32_t n = r.u32();
  // Every element takes at least one byte, so a count beyond the bytes
  // left is a truncated (or hostile) frame, not a giant allocation.
  if (n > r.remaining()) throw FormatError("cluster frame truncated");
  for (std::uint32_t i = 0; i < n; ++i) each(items.emplace_back());
}

void require(WireWriter&, bool, const char*) {}
void require(WireReader&, bool ok, const char* what) {
  if (!ok) throw FormatError(what);
}

/// An unframed tail: the rest of the frame, already length-delimited by
/// the frame itself.
void tail(WireWriter& w, const std::string& bytes) { w.raw(bytes); }
void tail(WireReader& r, std::string& bytes) { bytes = r.rest(); }

// -- field groups

template <class A>
void fields(A& a, Ref<A, io::PartitionExtent> extent) {
  wire(a, extent.offset, extent.bytes, extent.records);
}

template <class A>
void fields(A& a, Ref<A, io::SpillRunInfo> run) {
  wire(a, run.path, run.bytes, run.records);
  seq(a, run.partitions, [&](auto& extent) { fields(a, extent); });
}

template <class A>
void fields(A& a, Ref<A, Endpoint> ep) {
  wire(a, ep.host, ep.port);
}

template <class A>
void fields(A& a, Ref<A, mr::TaskMetrics> m) {
  auto ops = static_cast<std::uint32_t>(mr::kNumOps);
  wire(a, ops);
  require(a, ops == mr::kNumOps, "cluster metrics op-count mismatch");
  for (auto& ns : m.ns) wire(a, ns);
  for (const mr::VolumeCounter& counter : mr::kVolumeCounters) {
    wire(a, m.*counter.member);
  }
}

/// User counters ride as (name, value) pairs in name order.
template <class A>
void fields(A& a, Ref<A, mr::Counters> counters) {
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  if constexpr (!kReading<A>) {
    entries.assign(counters.all().begin(), counters.all().end());
  }
  seq(a, entries, [&](auto& entry) { wire(a, entry.first, entry.second); });
  if constexpr (kReading<A>) {
    for (const auto& [name, count] : entries) counters.increment(name, count);
  }
}

/// Decoded trace strings are copied into the trace's own pool, deduped:
/// a worker's events repeat a handful of literal names, so the pool stays
/// tiny even for large rings.
class StringInterner {
 public:
  explicit StringInterner(obs::TraceData& trace) : trace_(trace) {}

  const char* operator()(std::string s) {
    auto it = seen_.find(s);
    if (it != seen_.end()) return it->second;
    const char* p = trace_.intern(s);
    seen_.emplace(std::move(s), p);
    return p;
  }

 private:
  obs::TraceData& trace_;
  std::unordered_map<std::string, const char*> seen_;
};

void text(WireWriter& w, const char* s, StringInterner*) {
  w.str(s != nullptr ? s : "");
}
void text(WireReader& r, const char*& s, StringInterner* intern) {
  s = (*intern)(r.str());
}

template <class A>
void fields(A& a, Ref<A, obs::TraceEvent> e, StringInterner* intern) {
  text(a, e.name, intern);
  text(a, e.category, intern);
  wire(a, e.ts_ns, e.dur_ns, e.pid, e.tid, e.kind, e.num_args);
  require(a, e.num_args <= 3, "cluster trace event arg overflow");
  for (std::uint8_t i = 0; i < e.num_args; ++i) {
    text(a, e.arg_names[i], intern);
    wire(a, e.args[i]);
  }
}

/// Everything in a trace chunk except its events.
template <class A>
void chunk_header_fields(A& a, Ref<A, TraceChunkMsg> msg) {
  wire(a, msg.final_chunk);
  auto& trace = msg.trace;
  wire(a, trace.enabled, trace.job_name, trace.epoch_ns, trace.dropped_events);
  seq(a, trace.ring_drops,
      [&](auto& ring) { wire(a, ring.pid, ring.tid, ring.dropped); });
  seq(a, trace.process_names,
      [&](auto& process) { wire(a, process.first, process.second); });
  seq(a, trace.thread_names,
      [&](auto& thread) { wire(a, thread.pid, thread.tid, thread.name); });
}

// -- messages

template <class A>
void fields(A& a, Ref<A, RunTaskMsg> msg) {
  wire(a, msg.id, msg.attempt);
}

template <class A>
void fields(A& a, Ref<A, RunReduceMsg> msg) {
  wire(a, msg.partition, msg.attempt);
  seq(a, msg.map_outputs, [&](auto& run) { fields(a, run); });
  seq(a, msg.sources, [&](auto& source) { fields(a, source); });
  require(a, msg.sources.size() == msg.map_outputs.size(),
          "run_reduce sources count != runs count");
}

template <class A>
void fields(A& a, Ref<A, TaskFailedMsg> msg) {
  wire(a, msg.kind, msg.id, msg.attempt, msg.retryable, msg.message);
}

template <class A>
void fields(A& a, Ref<A, std::uint32_t> task, Ref<A, std::uint32_t> attempt,
            Ref<A, mr::MapTaskResult> result) {
  wire(a, task, attempt);
  fields(a, result.output);
  fields(a, result.map_thread);
  fields(a, result.support_thread);
  fields(a, result.counters);
  wire(a, result.wall_ns, result.pipeline_wall_ns, result.spills,
       result.final_spill_threshold, result.freq_stage_at_end,
       result.freq_sampling_fraction);
}

template <class A>
void fields(A& a, Ref<A, std::uint32_t> partition,
            Ref<A, std::uint32_t> attempt,
            Ref<A, mr::ReduceTaskResult> result) {
  wire(a, partition, attempt, result.output_path);
  fields(a, result.metrics);
  fields(a, result.counters);
  wire(a, result.wall_ns);
}

template <class A>
void fields(A& a, Ref<A, ClockProbeMsg> msg) {
  wire(a, msg.t_send);
}

template <class A>
void fields(A& a, Ref<A, ClockSyncMsg> msg) {
  wire(a, msg.t_probe, msg.t_worker);
}

template <class A>
void fields(A& a, Ref<A, WelcomeMsg> msg) {
  wire(a, msg.worker_id, msg.heartbeat_interval_ms);
}

template <class A>
void fields(A& a, Ref<A, HelloMsg> msg) {
  fields(a, msg.shuffle);
}

template <class A>
void fields(A& a, Ref<A, ShuffleFetchMsg> msg) {
  wire(a, msg.run_path, msg.partition);
}

/// The partition bytes ride as the frame's tail: skipping the u32-length
/// str() form keeps a single partition fetchable right up to the
/// kMaxFramePayload cap.
template <class A>
void fields(A& a, Ref<A, ShuffleDataMsg> msg) {
  wire(a, msg.records);
  tail(a, msg.bytes);
}

template <class A>
void fields(A& a, Ref<A, ShuffleErrorMsg> msg) {
  wire(a, msg.retryable, msg.message);
}

// -- encode / decode

template <class... Parts>
std::string encode(MsgType type, const Parts&... parts) {
  WireWriter w;
  value(w, type);
  fields(w, parts...);
  return w.take();
}

template <class... Parts>
void decode_into(WireReader& r, Parts&... parts) {
  fields(r, parts...);
  r.expect_done();
}

template <class Msg>
Msg decode(WireReader& r) {
  Msg msg;
  decode_into(r, msg);
  return msg;
}

/// The header one frame of a chunk batch carries: trace metadata rides
/// only on the first frame, so frames 2..n stay almost pure event payload,
/// and the final flag only on the last.
TraceChunkMsg chunk_header(const TraceChunkMsg& msg, bool first, bool last) {
  TraceChunkMsg header;
  header.final_chunk = last && msg.final_chunk;
  header.trace.enabled = msg.trace.enabled;
  header.trace.epoch_ns = msg.trace.epoch_ns;
  if (first) {
    header.trace.job_name = msg.trace.job_name;
    header.trace.dropped_events = msg.trace.dropped_events;
    header.trace.ring_drops = msg.trace.ring_drops;
    header.trace.process_names = msg.trace.process_names;
    header.trace.thread_names = msg.trace.thread_names;
  }
  return header;
}

}  // namespace

// ---- messages -------------------------------------------------------------

std::string encode_run_task(MsgType type, const RunTaskMsg& msg) {
  return encode(type, msg);
}
RunTaskMsg decode_run_task(WireReader& r) { return decode<RunTaskMsg>(r); }

std::string encode_run_reduce(const RunReduceMsg& msg) {
  return encode(MsgType::kRunReduce, msg);
}
RunReduceMsg decode_run_reduce(WireReader& r) {
  return decode<RunReduceMsg>(r);
}

std::string encode_bare(MsgType type) {
  WireWriter w;
  value(w, type);
  return w.take();
}

std::string encode_task_failed(const TaskFailedMsg& msg) {
  return encode(MsgType::kTaskFailed, msg);
}
TaskFailedMsg decode_task_failed(WireReader& r) {
  return decode<TaskFailedMsg>(r);
}

std::string encode_map_done(std::uint32_t task, std::uint32_t attempt,
                            const mr::MapTaskResult& result) {
  return encode(MsgType::kMapDone, task, attempt, result);
}
void decode_map_done(WireReader& r, std::uint32_t& task,
                     std::uint32_t& attempt, mr::MapTaskResult& result) {
  decode_into(r, task, attempt, result);
}

std::string encode_reduce_done(std::uint32_t partition, std::uint32_t attempt,
                               const mr::ReduceTaskResult& result) {
  return encode(MsgType::kReduceDone, partition, attempt, result);
}
void decode_reduce_done(WireReader& r, std::uint32_t& partition,
                        std::uint32_t& attempt, mr::ReduceTaskResult& result) {
  decode_into(r, partition, attempt, result);
}

std::string encode_clock_probe(const ClockProbeMsg& msg) {
  return encode(MsgType::kClockProbe, msg);
}
ClockProbeMsg decode_clock_probe(WireReader& r) {
  return decode<ClockProbeMsg>(r);
}

std::string encode_clock_sync(const ClockSyncMsg& msg) {
  return encode(MsgType::kClockSync, msg);
}
ClockSyncMsg decode_clock_sync(WireReader& r) {
  return decode<ClockSyncMsg>(r);
}

std::string encode_welcome(const WelcomeMsg& msg) {
  return encode(MsgType::kWelcome, msg);
}
WelcomeMsg decode_welcome(WireReader& r) { return decode<WelcomeMsg>(r); }

std::string encode_hello(const HelloMsg& msg) {
  return encode(MsgType::kHello, msg);
}
HelloMsg decode_hello(WireReader& r) { return decode<HelloMsg>(r); }

std::string encode_shuffle_fetch(const ShuffleFetchMsg& msg) {
  return encode(MsgType::kShuffleFetch, msg);
}
ShuffleFetchMsg decode_shuffle_fetch(WireReader& r) {
  return decode<ShuffleFetchMsg>(r);
}

std::string encode_shuffle_data(const ShuffleDataMsg& msg) {
  return encode(MsgType::kShuffleData, msg);
}
ShuffleDataMsg decode_shuffle_data(WireReader& r) {
  return decode<ShuffleDataMsg>(r);
}

std::string encode_shuffle_error(const ShuffleErrorMsg& msg) {
  return encode(MsgType::kShuffleError, msg);
}
ShuffleErrorMsg decode_shuffle_error(WireReader& r) {
  return decode<ShuffleErrorMsg>(r);
}

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
    fields(event_writer, msg.trace.events[i], nullptr);
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
    WireWriter w;
    value(w, MsgType::kTraceChunk);
    chunk_header_fields(w, chunk_header(msg, f == 0, f + 1 == frames.size()));
    w.u32(static_cast<std::uint32_t>(frames[f].second - frames[f].first));
    for (std::size_t i = frames[f].first; i < frames[f].second; ++i) {
      w.raw(encoded_events[i]);
    }
    payloads.push_back(w.take());
  }
  return payloads;
}

TraceChunkMsg decode_trace_chunk(WireReader& r) {
  TraceChunkMsg msg;
  chunk_header_fields(r, msg);
  StringInterner intern(msg.trace);
  seq(r, msg.trace.events,
      [&](obs::TraceEvent& event) { fields(r, event, &intern); });
  r.expect_done();
  return msg;
}

// ---- framed socket I/O ----------------------------------------------------

namespace {

/// kCrc32Tables[0] is the byte-wise table; entry k of table j is the CRC
/// of byte k followed by j zero bytes, so sixteen lookups advance the CRC
/// over sixteen bytes at once (slicing-by-16).
constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 16> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}();

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

}  // namespace

std::uint32_t crc32_extend(std::uint32_t crc, std::string_view data) {
  const auto& t = kCrc32Tables;
  const char* p = data.data();
  std::size_t n = data.size();
  crc = ~crc;
  for (; n >= 16; n -= 16, p += 16) {
    const std::uint32_t w0 = get_u32_le(p) ^ crc;
    const std::uint32_t w1 = get_u32_le(p + 4);
    const std::uint32_t w2 = get_u32_le(p + 8);
    const std::uint32_t w3 = get_u32_le(p + 12);
    crc = t[15][w0 & 0xFFu] ^ t[14][(w0 >> 8) & 0xFFu] ^
          t[13][(w0 >> 16) & 0xFFu] ^ t[12][w0 >> 24] ^
          t[11][w1 & 0xFFu] ^ t[10][(w1 >> 8) & 0xFFu] ^
          t[9][(w1 >> 16) & 0xFFu] ^ t[8][w1 >> 24] ^ t[7][w2 & 0xFFu] ^
          t[6][(w2 >> 8) & 0xFFu] ^ t[5][(w2 >> 16) & 0xFFu] ^
          t[4][w2 >> 24] ^ t[3][w3 & 0xFFu] ^ t[2][(w3 >> 8) & 0xFFu] ^
          t[1][(w3 >> 16) & 0xFFu] ^ t[0][w3 >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

namespace {

constexpr std::size_t kFrameLengthBytes = 4;  // u32 length prefix
constexpr std::size_t kFramePreambleBytes = kFrameLengthBytes + 4;  // + crc

void check_frame_length(std::uint32_t len) {
  if (len > kMaxFramePayload) {
    throw IoError("cluster frame length " + std::to_string(len) +
                  " exceeds cap " + std::to_string(kMaxFramePayload) +
                  " (desynchronized or corrupted stream)");
  }
}

void check_frame_crc(std::uint32_t expected, std::uint32_t actual) {
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

/// Writes every byte of `pieces`, in order, gathered from the callers'
/// buffers by sendmsg(2); false if the peer is gone. MSG_DONTWAIT even
/// on blocking fds: a full socket buffer must route through wait_ready
/// (which honors the deadline), not block inside the kernel's send —
/// a peer that stops draining would otherwise hang us forever.
bool send_all(int fd, std::initializer_list<std::string_view> pieces,
              std::uint64_t deadline_ns) {
  std::array<iovec, 3> iov{};
  TEXTMR_CHECK(pieces.size() <= iov.size(), "send_all takes <= 3 pieces");
  std::size_t end = 0;
  for (const std::string_view piece : pieces) {
    if (!piece.empty()) {
      iov[end++] = iovec{const_cast<char*>(piece.data()), piece.size()};
    }
  }
  std::size_t first = 0;
  while (first < end) {
    msghdr msg{};
    msg.msg_iov = iov.data() + first;
    msg.msg_iovlen = end - first;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      auto sent = static_cast<std::size_t>(w);
      while (first < end && sent >= iov[first].iov_len) {
        sent -= iov[first++].iov_len;
      }
      if (sent > 0) {
        iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + sent;
        iov[first].iov_len -= sent;
      }
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
/// With `crc`, extends it over each chunk as it arrives (while the chunk
/// is still in cache, and while the sender is still sending).
bool recv_exact(int fd, char* dest, std::size_t n, std::uint64_t deadline_ns,
                bool eof_ok, std::uint32_t* crc = nullptr) {
  std::size_t got = 0;
  while (got < n) {
    // Poll first: worker-side fds are blocking, and a recv() on a
    // blocking socket would ignore the deadline entirely.
    wait_ready(fd, POLLIN, deadline_ns, "recv");
    const ssize_t r = ::recv(fd, dest + got, n - got, 0);
    if (r > 0) {
      if (crc != nullptr) {
        *crc = crc32_extend(*crc, {dest + got, static_cast<std::size_t>(r)});
      }
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
      send_all(fd, {std::string_view(wire).substr(0, torn)}, deadline_ns);
      return false;
    }
  }
  return true;
}

}  // namespace

bool send_frame(int fd, std::string_view payload, std::int32_t timeout_ms) {
  return send_frame(fd, payload, {}, timeout_ms);
}

bool send_frame(int fd, std::string_view head, std::string_view tail,
                std::int32_t timeout_ms) {
  const std::uint64_t deadline_ns = deadline_from(timeout_ms);
  char preamble[kFramePreambleBytes];
  put_u32_le(preamble, static_cast<std::uint32_t>(head.size() + tail.size()));
  put_u32_le(preamble + kFrameLengthBytes, crc32_extend(crc32(head), tail));
  const std::string_view pre(preamble, sizeof(preamble));
  if (failpoint::enabled()) {
    if (const auto action = failpoint::consume("net.send")) {
      // Faults rewrite or tear the frame, so only they assemble a copy.
      std::string wire;
      wire.reserve(pre.size() + head.size() + tail.size());
      wire.append(pre).append(head).append(tail);
      if (!apply_send_fault(*action, fd, wire, kFramePreambleBytes,
                            deadline_ns)) {
        return false;
      }
      return send_all(fd, {wire}, deadline_ns);
    }
  }
  return send_all(fd, {pre, head, tail}, deadline_ns);
}

std::optional<std::string> recv_frame(int fd, std::int32_t timeout_ms) {
  auto frame = recv_frame_pieces(fd, 0, timeout_ms);
  if (!frame.has_value()) return std::nullopt;
  return std::move(frame->tail);
}

std::optional<FramePieces> recv_frame_pieces(int fd, std::size_t head_bytes,
                                             std::int32_t timeout_ms) {
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
  FramePieces frame;
  frame.head.resize(std::min<std::size_t>(head_bytes, len));
  frame.tail.resize(len - frame.head.size());
  std::uint32_t crc = 0;
  recv_exact(fd, frame.head.data(), frame.head.size(), deadline_ns,
             /*eof_ok=*/false, &crc);
  recv_exact(fd, frame.tail.data(), frame.tail.size(), deadline_ns,
             /*eof_ok=*/false, &crc);
  check_frame_crc(get_u32_le(header + kFrameLengthBytes), crc);
  return frame;
}

std::optional<std::string> FrameDecoder::next() {
  if (buf_.size() < kFramePreambleBytes) return std::nullopt;
  const std::uint32_t len = get_u32_le(buf_.data());
  check_frame_length(len);
  if (buf_.size() < kFramePreambleBytes + len) return std::nullopt;
  std::string frame = buf_.substr(kFramePreambleBytes, len);
  check_frame_crc(get_u32_le(buf_.data() + kFrameLengthBytes), crc32(frame));
  buf_.erase(0, kFramePreambleBytes + len);
  return frame;
}

}  // namespace textmr::cluster
