#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mr/map_task.hpp"
#include "mr/reduce_task.hpp"
#include "obs/trace.hpp"

namespace textmr::cluster {

/// Control protocol between the cluster coordinator and its worker
/// processes (DESIGN.md §10, §14). Transport: one TCP connection per
/// worker (a `Connection`, transport.hpp) carrying little-endian u32
/// length-prefixed frames that also carry a CRC32 of the payload; the
/// first payload byte is the message type. Input splits and final part
/// files still move through the shared filesystem, but map-output
/// partitions are pulled over the network from per-worker shuffle
/// servers (kShuffleFetch/kShuffleData), so control frames stay small:
/// telemetry ships as bounded trace chunks at task boundaries instead
/// of one monolithic upload.

enum class MsgType : std::uint8_t {
  // coordinator -> worker
  kRunMap = 1,      // u32 task, u32 attempt
  kRunReduce = 2,   // u32 partition, u32 attempt
  kShutdown = 3,    // no payload; worker ships its final trace chunk, exits
  kWelcome = 6,     // first frame to every worker: id, cadence, clock stamp
  // worker -> coordinator
  kHeartbeat = 10,   // no payload; any frame refreshes last_frame_ns
  kMapDone = 11,     // u32 task, u32 attempt, MapTaskResult
  kReduceDone = 12,  // u32 partition, u32 attempt, ReduceTaskResult
  kTaskFailed = 13,  // one attempt failed (the worker itself is healthy)
  kTraceChunk = 15,  // one bounded slice of the worker's trace
  kHello = 16,       // the worker's first frame: shuffle endpoint, clocks
  // reducer -> shuffle server (separate per-fetch TCP connections)
  kShuffleFetch = 20,  // str run_path, u32 partition
  kShuffleData = 21,   // u64 records + the partition's raw frame bytes
  kShuffleError = 22,  // u8 retryable, str message
};

/// Wire name for logs and the analyzer; lint checks exhaustiveness.
const char* msg_type_name(MsgType type);

/// What kind of task an id refers to in failure messages.
enum class TaskKind : std::uint8_t { kNone = 0, kMap = 1, kReduce = 2 };

struct RunTaskMsg {
  std::uint32_t id = 0;  // map task id or reduce partition
  std::uint32_t attempt = 0;
};

/// A network address: a worker's shuffle server or the coordinator's
/// TCP listener. port 0 means "none" (e.g. a map output whose owning
/// worker is gone).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  bool valid() const { return port != 0 && !host.empty(); }
  std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// Reduce dispatch also names the map-output runs to shuffle from,
/// ordered by map task id — the ordering every engine must use for
/// byte-identical merges. `sources` (exactly parallel to `map_outputs`)
/// names the shuffle server holding each run; an invalid endpoint means
/// only "owner gone": the reducer reads that run from the shared
/// filesystem instead.
struct RunReduceMsg {
  std::uint32_t partition = 0;
  std::uint32_t attempt = 0;
  std::vector<io::SpillRunInfo> map_outputs;
  std::vector<Endpoint> sources;
};

/// Coordinator -> worker, the first frame on every worker channel,
/// forked or external, sent as soon as the worker is registered: assigns
/// the worker its node id and the heartbeat cadence the coordinator
/// expects (> 0; the decoder rejects 0), and stamps the coordinator's
/// clock for the offset estimate.
struct WelcomeMsg {
  std::uint32_t worker_id = 0;
  std::uint32_t heartbeat_interval_ms = 25;
  std::uint64_t t_send = 0;  // coordinator monotonic_ns at send
};

/// Worker -> coordinator, the reply to kWelcome and the worker's first
/// frame: advertises the endpoint reducers should pull this worker's
/// map-output partitions from, and echoes the welcome's stamp next to
/// the worker's own clock, read as the hello goes out.
struct HelloMsg {
  Endpoint shuffle;
  std::uint64_t t_welcome = 0;  // echoed WelcomeMsg::t_send
  std::uint64_t t_worker = 0;   // worker monotonic_ns at send
};

/// Reducer -> shuffle server: one partition of one map-output run. The
/// run is named by the path the kMapDone frame reported; the server
/// only serves paths under its scratch root.
struct ShuffleFetchMsg {
  std::string run_path;
  std::uint32_t partition = 0;
};

/// Shuffle server -> reducer: the partition's raw record-stream frames
/// (exactly the bytes SpillRunReader::read_partition returns).
struct ShuffleDataMsg {
  std::uint64_t records = 0;
  std::string bytes;
};

/// A kShuffleData payload is [u8 type][u64 records] then the partition
/// bytes as an unframed tail. The header's fixed size lets both ends
/// move the partition as its own piece (send_frame / recv_frame_pieces).
constexpr std::size_t kShuffleDataHeaderBytes = 1 + 8;

/// Shuffle server -> reducer on failure. Retryable errors (I/O, a
/// stalled disk) are worth another fetch attempt; non-retryable ones
/// (bad request, path outside the scratch root) are not.
struct ShuffleErrorMsg {
  bool retryable = true;
  std::string message;
};

struct TaskFailedMsg {
  TaskKind kind = TaskKind::kNone;
  std::uint32_t id = 0;
  std::uint32_t attempt = 0;
  bool retryable = true;
  std::string message;
};

/// NTP-style two-sample offset estimate over the welcome/hello
/// exchange: the worker stamped t_worker somewhere between the
/// coordinator's t_send (welcome out) and t_recv (hello in), so assuming
/// a symmetric channel its clock reads t_worker when the coordinator's
/// reads (t_send + t_recv) / 2. Returns worker_clock - coordinator_clock;
/// the estimate error is bounded by half the round-trip time. Forked
/// workers share CLOCK_MONOTONIC so their offset is ~0; the exchange
/// keeps merged traces correct for external workers on other machines.
inline std::int64_t estimate_clock_offset(std::uint64_t t_send,
                                          std::uint64_t t_recv,
                                          std::uint64_t t_worker) {
  const auto midpoint =
      static_cast<std::int64_t>(t_send / 2 + t_recv / 2 +
                                (t_send % 2 + t_recv % 2) / 2);
  return static_cast<std::int64_t>(t_worker) - midpoint;
}

// ---- trace chunks ---------------------------------------------------------

/// One bounded slice of a worker's trace. Workers drain their
/// TraceCollector at task completion and at shutdown, split the drained
/// events into frames of at most kTraceChunkPayloadTarget bytes, and
/// ship each as a self-contained chunk: the coordinator can merge them
/// in arrival order (merge_trace sums drop deltas and dedupes names),
/// and counts each chunk's ring drops into the worker's trace_dropped.
/// `final_chunk` marks the worker's last frame before an orderly exit — a
/// worker that dies without sending it leaves the job's telemetry
/// flagged incomplete instead of failing the merge.
struct TraceChunkMsg {
  bool final_chunk = false;
  obs::TraceData trace;  // events since the previous chunk
};

/// Target payload size for one trace chunk: large enough that even a
/// drain of a full default ring fits in a couple of frames, small enough
/// (1/64 of kMaxFramePayload) that chunked shipping never risks the
/// frame cap and the coordinator's read loop stays responsive.
constexpr std::size_t kTraceChunkPayloadTarget = 4u * 1024 * 1024;

// ---- serialization --------------------------------------------------------

/// Append-only little-endian encoder for frame payloads. Each message's
/// field list is written once (protocol.cpp) and run by both this and
/// WireReader.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view v);
  /// Appends bytes that are already in wire form (no length prefix).
  void raw(std::string_view v) { buf_.append(v); }

  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Matching decoder; throws FormatError on truncated or trailing bytes,
/// on an enum byte outside its type's range, and on any other field a
/// message's field list rejects.
class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Consumes and returns every remaining byte (unframed tail payloads,
  /// e.g. the partition bytes of a kShuffleData frame).
  std::string rest();

  bool done() const { return in_.empty(); }
  std::size_t remaining() const { return in_.size(); }
  void expect_done() const;

 private:
  std::string_view in_;
};

// Message payload encode/decode. Encoders produce the payload including
// the leading type byte; decoders expect the byte already consumed.
std::string encode_run_task(MsgType type, const RunTaskMsg& msg);
RunTaskMsg decode_run_task(WireReader& r);

std::string encode_run_reduce(const RunReduceMsg& msg);
RunReduceMsg decode_run_reduce(WireReader& r);

/// A frame that is its type byte alone: kShutdown and kHeartbeat. The
/// receiver checks the reader is then done, as every decoder does.
std::string encode_bare(MsgType type);

std::string encode_task_failed(const TaskFailedMsg& msg);
TaskFailedMsg decode_task_failed(WireReader& r);

std::string encode_map_done(std::uint32_t task, std::uint32_t attempt,
                            const mr::MapTaskResult& result);
void decode_map_done(WireReader& r, std::uint32_t& task,
                     std::uint32_t& attempt, mr::MapTaskResult& result);

std::string encode_reduce_done(std::uint32_t partition, std::uint32_t attempt,
                               const mr::ReduceTaskResult& result);
void decode_reduce_done(WireReader& r, std::uint32_t& partition,
                        std::uint32_t& attempt, mr::ReduceTaskResult& result);

std::string encode_welcome(const WelcomeMsg& msg);
WelcomeMsg decode_welcome(WireReader& r);

std::string encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(WireReader& r);

std::string encode_shuffle_fetch(const ShuffleFetchMsg& msg);
ShuffleFetchMsg decode_shuffle_fetch(WireReader& r);

std::string encode_shuffle_data(const ShuffleDataMsg& msg);
ShuffleDataMsg decode_shuffle_data(WireReader& r);

std::string encode_shuffle_error(const ShuffleErrorMsg& msg);
ShuffleErrorMsg decode_shuffle_error(WireReader& r);

/// Splits `msg` into one or more kTraceChunk frame payloads, each at
/// most ~max_payload bytes. Every frame is independently decodable; trace
/// metadata (names, drop deltas) rides only on the first frame and the
/// final_chunk flag only on the last.
std::vector<std::string> encode_trace_chunks(
    const TraceChunkMsg& msg,
    std::size_t max_payload = kTraceChunkPayloadTarget);
/// Decoded events point into `msg.trace.string_pool` (owned storage).
TraceChunkMsg decode_trace_chunk(WireReader& r);

// ---- framed socket I/O ----------------------------------------------------

/// Sanity cap on a frame's payload length. The largest legitimate frame
/// is a trace chunk (bounded by kTraceChunkPayloadTarget plus one event's
/// overshoot); a 4-byte prefix read from a desynchronized or corrupted
/// stream could otherwise demand an allocation of up to ~4 GiB.
/// Oversized frames raise IoError instead.
constexpr std::uint32_t kMaxFramePayload = 256u * 1024 * 1024;

/// On-the-wire frame layout (DESIGN.md §14), the same on every channel
/// (control, shuffle): [u32 len][u32 crc32][payload]. A
/// checksum mismatch on receive raises IoError; the peer is treated as
/// gone (control channel) or the fetch is retried (shuffle client).

/// CRC-32 (IEEE 802.3, poly 0xEDB88320), extended over `data`: `crc` is
/// the CRC-32 of the bytes before `data` (0 for none), so
/// crc32_extend(crc32(a), b) == crc32(a + b) and one frame's checksum
/// can cover several pieces. Slicing-by-16 tables (DESIGN.md §14).
std::uint32_t crc32_extend(std::uint32_t crc, std::string_view data);

inline std::uint32_t crc32(std::string_view data) {
  return crc32_extend(0, data);
}

/// Sends one length-prefixed frame, blocking until fully written (polls
/// on EAGAIN so it also works on non-blocking fds). Returns false if the
/// peer is gone (EPIPE/ECONNRESET); throws IoError on other errors, and
/// on missing the deadline when `timeout_ms` >= 0 (a dead TCP peer that
/// stops draining its socket must surface as an error, not a coordinator
/// thread blocked in poll forever). The `net.send` failpoint acts here.
bool send_frame(int fd, std::string_view payload,
                std::int32_t timeout_ms = -1);

/// Sends one frame whose payload is `head` followed by `tail`, gathered
/// straight from both buffers (one checksum over both): the shuffle
/// server sends a partition this way without copying it behind its
/// header. On the wire it is the frame send_frame(head + tail) sends.
bool send_frame(int fd, std::string_view head, std::string_view tail,
                std::int32_t timeout_ms);

/// Blocking receive of one full frame; nullopt on clean EOF. Throws
/// IoError on errors, a torn frame, a checksum mismatch, or — with
/// `timeout_ms` >= 0 — when no full frame arrives before the deadline.
/// Worker-side and shuffle-client only (the coordinator reads through
/// FrameDecoder so one slow worker cannot stall it). The `net.recv`
/// failpoint acts here.
std::optional<std::string> recv_frame(int fd, std::int32_t timeout_ms = -1);

/// One received frame payload split at a caller-chosen offset.
struct FramePieces {
  std::string head;  // the first min(head_bytes, payload size) bytes
  std::string tail;  // the rest, received straight into its own buffer
};

/// recv_frame, but the payload lands in two buffers, so a bulk tail
/// (a kShuffleData partition) is never copied out of a whole-frame
/// buffer. Same errors, deadline and failpoint as recv_frame.
std::optional<FramePieces> recv_frame_pieces(int fd, std::size_t head_bytes,
                                             std::int32_t timeout_ms);

/// Incremental frame reassembly over a non-blocking fd: feed() raw bytes
/// as poll() reports them readable, next() yields completed frames
/// (verifying checksums — a mismatch throws IoError).
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  std::optional<std::string> next();

 private:
  std::string buf_;
};

}  // namespace textmr::cluster
