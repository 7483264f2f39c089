#include <gtest/gtest.h>

// Unit tests for the cluster control protocol (wire codecs, framing) and
// the straggler rule's threshold arithmetic over explicit instants. The
// process-level battery lives in test_cluster.cpp; everything here is
// in-process and deterministic.

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <optional>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "textmr.hpp"

namespace textmr::cluster {
namespace {

WireReader reader_skipping_type(const std::string& frame, MsgType expected) {
  WireReader r(frame);
  EXPECT_EQ(static_cast<MsgType>(r.u8()), expected);
  return r;
}

TEST(WireCodec, ScalarRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1.5);
  w.str("hello\0world");  // embedded NUL is cut by the literal, still fine
  w.str("");
  const std::string buf = w.take();

  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1.5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WireCodec, LittleEndianLayout) {
  WireWriter w;
  w.u32(0x01020304);
  const std::string buf = w.take();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[0]), 0x04);
  EXPECT_EQ(static_cast<std::uint8_t>(buf[3]), 0x01);
}

TEST(WireCodec, TruncatedReadsThrowFormatError) {
  WireWriter w;
  w.u32(7);
  const std::string buf = w.take();
  WireReader r(buf);
  r.u32();
  EXPECT_THROW(r.u8(), FormatError);

  WireReader r2(buf);
  EXPECT_THROW(r2.u64(), FormatError);

  // A string whose declared length exceeds the remaining bytes.
  WireWriter w3;
  w3.u32(1000);
  const std::string buf3 = w3.take();
  WireReader r3(buf3);
  EXPECT_THROW(r3.str(), FormatError);
}

TEST(WireCodec, TrailingBytesDetected) {
  WireWriter w;
  w.u32(1);
  w.u8(9);
  const std::string buf = w.take();
  WireReader r(buf);
  r.u32();
  EXPECT_THROW(r.expect_done(), FormatError);
}

TEST(ProtocolCodec, RunTaskRoundTrip) {
  const std::string frame =
      encode_run_task(MsgType::kRunMap, RunTaskMsg{42, 3});
  auto r = reader_skipping_type(frame, MsgType::kRunMap);
  const RunTaskMsg msg = decode_run_task(r);
  EXPECT_EQ(msg.id, 42u);
  EXPECT_EQ(msg.attempt, 3u);
}

TEST(ProtocolCodec, RunReduceRoundTripCarriesMapOutputs) {
  RunReduceMsg msg;
  msg.partition = 2;
  msg.attempt = 1;
  for (int i = 0; i < 3; ++i) {
    io::SpillRunInfo run;
    run.path = "/scratch/map" + std::to_string(i) + "_final";
    run.bytes = 1000 + i;
    run.records = 50 + i;
    for (int p = 0; p < 2; ++p) {
      io::PartitionExtent extent;
      extent.offset = p * 512;
      extent.bytes = 512;
      extent.records = 25;
      run.partitions.push_back(extent);
    }
    msg.map_outputs.push_back(run);
    msg.sources.push_back(Endpoint{});  // owner gone: read the run locally
  }
  const std::string frame = encode_run_reduce(msg);
  auto r = reader_skipping_type(frame, MsgType::kRunReduce);
  const RunReduceMsg out = decode_run_reduce(r);
  EXPECT_EQ(out.partition, 2u);
  EXPECT_EQ(out.attempt, 1u);
  ASSERT_EQ(out.map_outputs.size(), 3u);
  EXPECT_EQ(out.map_outputs[1].path, "/scratch/map1_final");
  EXPECT_EQ(out.map_outputs[1].bytes, 1001u);
  ASSERT_EQ(out.map_outputs[2].partitions.size(), 2u);
  EXPECT_EQ(out.map_outputs[2].partitions[1].offset, 512u);
  EXPECT_EQ(out.map_outputs[2].partitions[1].records, 25u);
}

TEST(ProtocolCodec, HeartbeatRoundTrip) {
  const std::string frame = encode_bare(MsgType::kHeartbeat);
  EXPECT_EQ(frame,
            std::string(1, static_cast<char>(MsgType::kHeartbeat)));
  auto r = reader_skipping_type(frame, MsgType::kHeartbeat);
  EXPECT_NO_THROW(r.expect_done());

  // A beat with trailing bytes is malformed, as for every other frame.
  const std::string padded = frame + '\x01';
  auto padded_reader = reader_skipping_type(padded, MsgType::kHeartbeat);
  EXPECT_THROW(padded_reader.expect_done(), FormatError);
}

TEST(ProtocolCodec, EstimateClockOffsetMidpointMath) {
  // Worker clock reads 1500 when the coordinator's midpoint is 1000.
  EXPECT_EQ(estimate_clock_offset(900, 1100, 1500), 500);
  // Negative offsets (worker clock behind) work too.
  EXPECT_EQ(estimate_clock_offset(900, 1100, 400), -600);
  // Odd sum: midpoint of (3, 4) rounds to 3 by the halves-plus-carry form.
  EXPECT_EQ(estimate_clock_offset(3, 4, 10), 7);
  // Huge timestamps must not overflow the midpoint computation.
  const std::uint64_t big = 0xfffffffffffffff0ull;
  EXPECT_EQ(estimate_clock_offset(big, big, big), 0);
}

TEST(ProtocolCodec, MsgTypeNamesAreExhaustive) {
  for (MsgType type :
       {MsgType::kRunMap, MsgType::kRunReduce, MsgType::kShutdown,
        MsgType::kHeartbeat, MsgType::kMapDone, MsgType::kReduceDone,
        MsgType::kTaskFailed, MsgType::kTraceChunk}) {
    EXPECT_STRNE(msg_type_name(type), "unknown")
        << static_cast<int>(type);
  }
  EXPECT_STREQ(msg_type_name(static_cast<MsgType>(200)), "unknown");
}

TEST(ProtocolCodec, TaskFailedRoundTrip) {
  TaskFailedMsg msg;
  msg.kind = TaskKind::kReduce;
  msg.id = 9;
  msg.attempt = 4;
  msg.retryable = false;
  msg.message = "io error: disk on fire";
  const std::string frame = encode_task_failed(msg);
  auto r = reader_skipping_type(frame, MsgType::kTaskFailed);
  const TaskFailedMsg out = decode_task_failed(r);
  EXPECT_EQ(out.kind, TaskKind::kReduce);
  EXPECT_EQ(out.id, 9u);
  EXPECT_EQ(out.attempt, 4u);
  EXPECT_FALSE(out.retryable);
  EXPECT_EQ(out.message, "io error: disk on fire");
}

TEST(ProtocolCodec, MapDoneRoundTripPreservesMetricsAndCounters) {
  mr::MapTaskResult result;
  result.output.path = "/scratch/map7_a0_final";
  result.output.bytes = 4096;
  result.output.records = 123;
  io::PartitionExtent extent;
  extent.offset = 0;
  extent.bytes = 4096;
  extent.records = 123;
  result.output.partitions.push_back(extent);
  result.map_thread.op_ns(mr::Op::kMapUser) = 111;
  result.map_thread.input_records = 1000;
  result.support_thread.op_ns(mr::Op::kSort) = 222;
  result.support_thread.spilled_bytes = 9999;
  result.counters.increment("tokens", 1000);
  result.counters.increment("skipped", 3);
  result.wall_ns = 5555;
  result.pipeline_wall_ns = 4444;
  result.spills = 6;
  result.final_spill_threshold = 0.42;
  result.freq_sampling_fraction = 0.0625;

  const std::string frame = encode_map_done(7, 1, result);
  auto r = reader_skipping_type(frame, MsgType::kMapDone);
  std::uint32_t task = 0;
  std::uint32_t attempt = 0;
  mr::MapTaskResult out;
  decode_map_done(r, task, attempt, out);
  EXPECT_EQ(task, 7u);
  EXPECT_EQ(attempt, 1u);
  EXPECT_EQ(out.output.path, result.output.path);
  EXPECT_EQ(out.output.records, 123u);
  EXPECT_EQ(out.map_thread.op_ns(mr::Op::kMapUser), 111u);
  EXPECT_EQ(out.map_thread.input_records, 1000u);
  EXPECT_EQ(out.support_thread.op_ns(mr::Op::kSort), 222u);
  EXPECT_EQ(out.support_thread.spilled_bytes, 9999u);
  EXPECT_EQ(out.counters.value("tokens"), 1000u);
  EXPECT_EQ(out.counters.value("skipped"), 3u);
  EXPECT_EQ(out.wall_ns, 5555u);
  EXPECT_EQ(out.pipeline_wall_ns, 4444u);
  EXPECT_EQ(out.spills, 6u);
  EXPECT_EQ(out.final_spill_threshold, 0.42);
  EXPECT_EQ(out.freq_sampling_fraction, 0.0625);
}

TEST(ProtocolCodec, ReduceDoneRoundTrip) {
  mr::ReduceTaskResult result;
  result.output_path = "/out/part-r-00002";
  result.metrics.op_ns(mr::Op::kReduceUser) = 777;
  result.metrics.output_records = 88;
  result.counters.increment("groups", 88);
  result.wall_ns = 3141;

  const std::string frame = encode_reduce_done(2, 0, result);
  auto r = reader_skipping_type(frame, MsgType::kReduceDone);
  std::uint32_t partition = 0;
  std::uint32_t attempt = 99;
  mr::ReduceTaskResult out;
  decode_reduce_done(r, partition, attempt, out);
  EXPECT_EQ(partition, 2u);
  EXPECT_EQ(attempt, 0u);
  EXPECT_EQ(out.output_path, result.output_path);
  EXPECT_EQ(out.metrics.op_ns(mr::Op::kReduceUser), 777u);
  EXPECT_EQ(out.metrics.output_records, 88u);
  EXPECT_EQ(out.counters.value("groups"), 88u);
  EXPECT_EQ(out.wall_ns, 3141u);
}

TEST(ProtocolCodec, TraceChunkRoundTripOwnsStrings) {
  TraceChunkMsg msg;
  msg.final_chunk = true;
  obs::TraceData& trace = msg.trace;
  trace.enabled = true;
  trace.job_name = "wc";
  trace.epoch_ns = 100;
  trace.dropped_events = 2;
  trace.ring_drops.push_back({200001, 0, 2});
  trace.process_names.emplace_back(200001, "worker-1");
  trace.thread_names.push_back({200001, 0, "task-loop"});
  std::vector<std::string> frames;
  {
    // Build events whose strings die before decoding reads them — the
    // decoder must intern copies, not rely on the encoder's storage.
    // Encoding happens inside this scope (the encoder is allowed to
    // read the event's borrowed pointers); the events are then dropped
    // so decode cannot lean on their storage even by accident.
    const std::string name = "map_dispatch";
    const std::string category = "cluster";
    obs::TraceEvent e;
    e.name = name.c_str();
    e.category = category.c_str();
    e.ts_ns = 500;
    e.kind = obs::EventKind::kInstant;
    e.num_args = 1;
    e.arg_names[0] = "task";
    e.args[0] = 3.0;
    trace.events.push_back(e);
    e.ts_ns = 600;
    e.args[0] = 4.0;
    trace.events.push_back(e);
    frames = encode_trace_chunks(msg);
    trace.events.clear();
  }
  ASSERT_EQ(frames.size(), 1u);

  auto r = reader_skipping_type(frames[0], MsgType::kTraceChunk);
  const TraceChunkMsg out = decode_trace_chunk(r);
  EXPECT_TRUE(out.final_chunk);
  EXPECT_TRUE(out.trace.enabled);
  EXPECT_EQ(out.trace.job_name, "wc");
  EXPECT_EQ(out.trace.epoch_ns, 100u);
  EXPECT_EQ(out.trace.dropped_events, 2u);
  ASSERT_EQ(out.trace.ring_drops.size(), 1u);
  EXPECT_EQ(out.trace.ring_drops[0].pid, 200001u);
  EXPECT_EQ(out.trace.ring_drops[0].dropped, 2u);
  ASSERT_EQ(out.trace.process_names.size(), 1u);
  EXPECT_EQ(out.trace.process_names[0].second, "worker-1");
  ASSERT_EQ(out.trace.events.size(), 2u);
  EXPECT_STREQ(out.trace.events[0].name, "map_dispatch");
  EXPECT_STREQ(out.trace.events[0].category, "cluster");
  EXPECT_EQ(out.trace.events[0].args[0], 3.0);
  EXPECT_EQ(out.trace.events[1].args[0], 4.0);
  // Dedupe interning: both events share the same pooled pointer.
  EXPECT_EQ(out.trace.events[0].name, out.trace.events[1].name);
}

TEST(ProtocolCodec, TraceChunkSplitsUnderPayloadBudget) {
  TraceChunkMsg msg;
  msg.final_chunk = true;
  obs::TraceData& trace = msg.trace;
  trace.enabled = true;
  trace.job_name = "chunky";
  trace.epoch_ns = 10;
  trace.dropped_events = 5;
  trace.ring_drops.push_back({200002, 0, 5});
  trace.process_names.emplace_back(200002, "worker-2");
  for (int i = 0; i < 100; ++i) {
    obs::TraceEvent e;
    e.name = "spill_write";
    e.category = "spill";
    e.ts_ns = 1000 + static_cast<std::uint64_t>(i);
    e.dur_ns = 10;
    e.pid = 200002;
    e.kind = obs::EventKind::kSpan;
    trace.events.push_back(e);
  }

  // A tiny budget forces many frames; each must decode standalone.
  const std::vector<std::string> frames = encode_trace_chunks(msg, 256);
  ASSERT_GT(frames.size(), 1u);

  obs::TraceData merged;
  std::size_t finals = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto r = reader_skipping_type(frames[i], MsgType::kTraceChunk);
    TraceChunkMsg out = decode_trace_chunk(r);
    if (out.final_chunk) {
      ++finals;
      EXPECT_EQ(i, frames.size() - 1);
    }
    obs::merge_trace(merged, std::move(out.trace));
  }
  // The final flag rides only on the last frame; metadata only on the
  // first — so the merge reconstructs the original exactly once.
  EXPECT_EQ(finals, 1u);
  EXPECT_EQ(merged.job_name, "chunky");
  EXPECT_EQ(merged.dropped_events, 5u);
  ASSERT_EQ(merged.ring_drops.size(), 1u);
  EXPECT_EQ(merged.ring_drops[0].dropped, 5u);
  ASSERT_EQ(merged.process_names.size(), 1u);
  ASSERT_EQ(merged.events.size(), 100u);
  for (std::size_t i = 0; i < merged.events.size(); ++i) {
    EXPECT_EQ(merged.events[i].ts_ns, 1000 + i);
  }
}

// ---- enum bytes off the wire ----------------------------------------------
//
// Frames may come from an external worker over TCP, so an enum byte
// outside its type's range must be rejected, never cast. Each case
// encodes the enum's largest value, checks where it sits, and bumps it
// one past the end.

std::string with_byte(std::string frame, std::size_t offset,
                      std::uint8_t expected) {
  EXPECT_EQ(static_cast<std::uint8_t>(frame.at(offset)), expected);
  frame[offset] = static_cast<char>(expected + 1);
  return frame;
}

TEST(ProtocolEnumBytes, TaskFailedRejectsBadTaskKind) {
  TaskFailedMsg msg;
  msg.kind = TaskKind::kReduce;
  const std::string bad = with_byte(encode_task_failed(msg), 1, 2);
  auto r = reader_skipping_type(bad, MsgType::kTaskFailed);
  EXPECT_THROW(decode_task_failed(r), FormatError);
}

TEST(ProtocolEnumBytes, MapDoneRejectsBadFreqStage) {
  mr::MapTaskResult result;
  result.freq_stage_at_end = freqbuf::FreqBufferController::Stage::kOptimize;
  const std::string frame = encode_map_done(1, 0, result);
  // The stage is followed only by the f64 sampling fraction.
  const std::string bad = with_byte(frame, frame.size() - 9, 2);
  auto r = reader_skipping_type(bad, MsgType::kMapDone);
  std::uint32_t task = 0;
  std::uint32_t attempt = 0;
  mr::MapTaskResult out;
  EXPECT_THROW(decode_map_done(r, task, attempt, out), FormatError);
}

TEST(ProtocolEnumBytes, TraceChunkRejectsBadEventKind) {
  TraceChunkMsg msg;
  obs::TraceEvent e;
  e.name = "spill_write";
  e.category = "spill";
  e.kind = obs::EventKind::kCounter;
  msg.trace.events.push_back(e);
  const std::vector<std::string> frames = encode_trace_chunks(msg);
  ASSERT_EQ(frames.size(), 1u);
  // An argument-free event ends with its kind byte and a zero arg count.
  const std::string bad = with_byte(frames[0], frames[0].size() - 2, 2);
  auto r = reader_skipping_type(bad, MsgType::kTraceChunk);
  EXPECT_THROW(decode_trace_chunk(r), FormatError);
}

// Builds the wire bytes of one checksummed frame:
// [u32 len][u32 crc32(payload)][payload], little-endian.
std::string checksummed_wire(const std::string& payload) {
  std::string wire;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return wire + payload;
}

TEST(FrameDecoderTest, ReassemblesFramesAcrossArbitrarySplits) {
  const std::string a = encode_run_task(MsgType::kRunMap, RunTaskMsg{1, 0});
  const std::string b = encode_bare(MsgType::kHeartbeat);
  const std::string stream = checksummed_wire(a) + checksummed_wire(b);

  // Feed one byte at a time: frames must come out whole and in order.
  FrameDecoder decoder;
  std::vector<std::string> frames;
  for (char c : stream) {
    decoder.feed(&c, 1);
    while (auto frame = decoder.next()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(FrameDecoderTest, EmptyFrameIsDelivered) {
  FrameDecoder decoder;
  const std::string wire = checksummed_wire("");
  decoder.feed(wire.data(), wire.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->empty());
}

TEST(FrameDecoderTest, OversizedLengthPrefixThrows) {
  // A desynchronized stream whose next 4 bytes decode to ~4 GiB must be
  // rejected as a protocol error, not turned into a giant allocation.
  FrameDecoder decoder;
  const char header[8] = {'\xff', '\xff', '\xff', '\xff', 0, 0, 0, 0};
  decoder.feed(header, 8);
  EXPECT_THROW(decoder.next(), IoError);
}

// ---- transport/shuffle wire surface (DESIGN.md §14) -----------------------

TEST(ProtocolCodec, RunReduceRoundTripCarriesShuffleSources) {
  RunReduceMsg msg;
  msg.partition = 1;
  for (int i = 0; i < 2; ++i) {
    io::SpillRunInfo run;
    run.path = "/scratch/map" + std::to_string(i) + "_final";
    run.bytes = 64;
    io::PartitionExtent extent;
    extent.bytes = 64;
    extent.records = 4;
    run.partitions.push_back(extent);
    msg.map_outputs.push_back(run);
    Endpoint source;
    source.host = "10.0.0." + std::to_string(i + 1);
    source.port = static_cast<std::uint16_t>(9000 + i);
    msg.sources.push_back(source);
  }
  const std::string frame = encode_run_reduce(msg);
  auto r = reader_skipping_type(frame, MsgType::kRunReduce);
  const RunReduceMsg out = decode_run_reduce(r);
  ASSERT_EQ(out.sources.size(), 2u);
  EXPECT_EQ(out.sources[0].host, "10.0.0.1");
  EXPECT_EQ(out.sources[0].port, 9000);
  EXPECT_EQ(out.sources[1].host, "10.0.0.2");
  EXPECT_EQ(out.sources[1].port, 9001);

  // Sources must be exactly parallel to the runs: none at all is as much
  // a protocol violation as a count that disagrees (an unowned run is an
  // invalid endpoint, never a missing one).
  msg.sources.clear();
  auto r2_frame = encode_run_reduce(msg);
  auto r2 = reader_skipping_type(r2_frame, MsgType::kRunReduce);
  EXPECT_THROW(decode_run_reduce(r2), FormatError);

  msg.sources.push_back(Endpoint{});
  auto r3_frame = encode_run_reduce(msg);
  auto r3 = reader_skipping_type(r3_frame, MsgType::kRunReduce);
  EXPECT_THROW(decode_run_reduce(r3), FormatError);
}

TEST(ProtocolCodec, WelcomeAndHelloRoundTrip) {
  const std::string welcome =
      encode_welcome(WelcomeMsg{7, 40, 987654321});
  auto wr = reader_skipping_type(welcome, MsgType::kWelcome);
  const WelcomeMsg wout = decode_welcome(wr);
  EXPECT_EQ(wout.worker_id, 7u);
  EXPECT_EQ(wout.heartbeat_interval_ms, 40u);
  EXPECT_EQ(wout.t_send, 987654321u);

  HelloMsg hello;
  hello.shuffle.host = "192.168.1.42";
  hello.shuffle.port = 31337;
  hello.t_welcome = 987654321;
  hello.t_worker = 999999999;
  const std::string frame = encode_hello(hello);
  auto hr = reader_skipping_type(frame, MsgType::kHello);
  const HelloMsg hout = decode_hello(hr);
  EXPECT_EQ(hout.shuffle.host, "192.168.1.42");
  EXPECT_EQ(hout.shuffle.port, 31337);
  EXPECT_EQ(hout.t_welcome, 987654321u);
  EXPECT_EQ(hout.t_worker, 999999999u);
}

TEST(ProtocolCodec, WelcomeRejectsAZeroHeartbeatInterval) {
  // A zero cadence would spin the worker's heartbeat thread; it can come
  // off the wire from any coordinator, so the decoder refuses it.
  const std::string frame = encode_welcome(WelcomeMsg{1, 0});
  auto r = reader_skipping_type(frame, MsgType::kWelcome);
  EXPECT_THROW(decode_welcome(r), FormatError);
}

TEST(ProtocolCodec, ShuffleFetchRoundTrip) {
  ShuffleFetchMsg msg;
  msg.run_path = "/scratch/job/map3_a1_final";
  msg.partition = 5;
  const std::string frame = encode_shuffle_fetch(msg);
  auto r = reader_skipping_type(frame, MsgType::kShuffleFetch);
  const ShuffleFetchMsg out = decode_shuffle_fetch(r);
  EXPECT_EQ(out.run_path, msg.run_path);
  EXPECT_EQ(out.partition, 5u);
}

/// xorshift64 bytes: deterministic filler that exercises every byte value.
std::string pseudo_random_bytes(std::size_t n, std::uint64_t state) {
  std::string out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    out.push_back(static_cast<char>(state & 0xff));
  }
  return out;
}

TEST(ProtocolCodec, ShuffleDataRoundTripUnframedTail) {
  // The partition bytes ride as the frame's unframed tail (no inner
  // length prefix), so they may contain anything — including bytes that
  // look like length prefixes or NULs.
  ShuffleDataMsg msg;
  msg.records = 3;
  msg.bytes = std::string("\x00\x01\xff length-lookalike \x40\x00\x00\x00", 25);
  const std::string frame = encode_shuffle_data(msg);
  auto r = reader_skipping_type(frame, MsgType::kShuffleData);
  const ShuffleDataMsg out = decode_shuffle_data(r);
  EXPECT_EQ(out.records, 3u);
  EXPECT_EQ(out.bytes, msg.bytes);

  // Empty partitions are common (a map task may emit nothing for a
  // reducer) and must round-trip as genuinely empty.
  ShuffleDataMsg empty;
  auto e_frame = encode_shuffle_data(empty);
  auto er = reader_skipping_type(e_frame, MsgType::kShuffleData);
  EXPECT_TRUE(decode_shuffle_data(er).bytes.empty());

  // Large payloads survive (1 MiB of pseudo-random bytes).
  ShuffleDataMsg big;
  big.records = 1u << 16;
  big.bytes = pseudo_random_bytes(1u << 20, 0x9e3779b97f4a7c15ull);
  auto b_frame = encode_shuffle_data(big);
  auto br = reader_skipping_type(b_frame, MsgType::kShuffleData);
  EXPECT_EQ(decode_shuffle_data(br).bytes, big.bytes);
}

TEST(ProtocolCodec, ShuffleErrorRoundTrip) {
  ShuffleErrorMsg msg;
  msg.retryable = false;
  msg.message = "partition 9 out of range";
  const std::string frame = encode_shuffle_error(msg);
  auto r = reader_skipping_type(frame, MsgType::kShuffleError);
  const ShuffleErrorMsg out = decode_shuffle_error(r);
  EXPECT_FALSE(out.retryable);
  EXPECT_EQ(out.message, "partition 9 out of range");
}

TEST(ProtocolCodec, NewMsgTypeNamesAreKnown) {
  for (MsgType type :
       {MsgType::kWelcome, MsgType::kHello, MsgType::kShuffleFetch,
        MsgType::kShuffleData, MsgType::kShuffleError}) {
    EXPECT_STRNE(msg_type_name(type), "unknown") << static_cast<int>(type);
  }
}

TEST(ChecksummedFrames, Crc32KnownVectors) {
  // The standard IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
  // Incremental property sanity: different inputs, different sums.
  EXPECT_NE(crc32("a"), crc32("b"));
}

/// Byte-at-a-time CRC-32 (IEEE, reflected 0xEDB88320) over a 256-entry
/// table: the loop crc32() ran before it was sliced, kept as the
/// reference the sliced one must match.
std::uint32_t bytewise_crc32(std::string_view data) {
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

TEST(ChecksummedFrames, SlicedCrc32MatchesBytewiseReference) {
  // Every length through many 16-byte blocks plus every remainder, at
  // every start offset within a 16-byte block.
  const std::string buf =
      pseudo_random_bytes(2048 + 16, 0x9e3779b97f4a7c15ull);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t len = 0; len <= 2048; ++len) {
      const std::string_view piece(buf.data() + align, len);
      ASSERT_EQ(crc32(piece), bytewise_crc32(piece))
          << "align " << align << " len " << len;
    }
  }
  // The incremental form composes at every split point.
  const std::string_view data(buf.data(), 300);
  const std::uint32_t whole = bytewise_crc32(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    EXPECT_EQ(crc32_extend(crc32(data.substr(0, cut)), data.substr(cut)),
              whole)
        << "cut at " << cut;
  }
  EXPECT_EQ(crc32_extend(crc32("12345"), "6789"), 0xcbf43926u);
}

/// A kShuffleData frame as the shuffle server sends it: the fixed header
/// piece, then the partition bytes.
struct ShuffleDataPieces {
  std::string head = encode_shuffle_data(ShuffleDataMsg{7, ""});
  std::string tail = pseudo_random_bytes(100000, 0x243f6a8885a308d3ull);
  std::string whole() const { return head + tail; }
};

TEST(ChecksummedFrames, ShuffleDataHeaderIsFixedSize) {
  EXPECT_EQ(encode_shuffle_data(ShuffleDataMsg{}).size(),
            kShuffleDataHeaderBytes);
  EXPECT_EQ(encode_shuffle_data(ShuffleDataMsg{~0ull, ""}).size(),
            kShuffleDataHeaderBytes);
}

TEST(ChecksummedFrames, TwoPieceSendIsTheOnePieceFrame) {
  const ShuffleDataPieces frame;
  const std::string expected_wire = checksummed_wire(frame.whole());
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // The sender runs on its own thread: three 100 KB frames outgrow the
  // socket buffer, so they only complete while the receiver drains.
  // (A jthread, so a failed assertion below still joins it.)
  std::jthread sender([&] {
    EXPECT_TRUE(send_frame(sv[0], frame.head, frame.tail, 2000));
    EXPECT_TRUE(send_frame(sv[0], frame.head, frame.tail, 2000));
    EXPECT_TRUE(send_frame(sv[0], frame.head, frame.tail, 2000));
    EXPECT_TRUE(send_frame(sv[0], "ab", "c", 2000));
    ::close(sv[0]);
  });
  // Byte-identical to the single-piece frame, so FrameDecoder reads it.
  std::string wire(expected_wire.size(), '\0');
  std::size_t got = 0;
  while (got < wire.size()) {
    const ssize_t n = ::recv(sv[1], wire.data() + got, wire.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(wire, expected_wire);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  const auto decoded = decoder.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame.whole());

  // recv_frame reads it whole; recv_frame_pieces splits it where asked.
  const auto one = recv_frame(sv[1], 2000);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(*one, frame.whole());
  const auto pieces = recv_frame_pieces(sv[1], kShuffleDataHeaderBytes, 2000);
  ASSERT_TRUE(pieces.has_value());
  EXPECT_EQ(pieces->head, frame.head);
  EXPECT_EQ(pieces->tail, frame.tail);
  // A frame shorter than the head request lands wholly in the head.
  const auto shorter = recv_frame_pieces(sv[1], kShuffleDataHeaderBytes, 2000);
  ASSERT_TRUE(shorter.has_value());
  EXPECT_EQ(shorter->head, "abc");
  EXPECT_TRUE(shorter->tail.empty());
  EXPECT_FALSE(recv_frame_pieces(sv[1], kShuffleDataHeaderBytes, 2000));
  sender.join();
  ::close(sv[1]);
}

TEST(ChecksummedFrames, SendFaultsOnTwoPieceShuffleFrameAreCaught) {
  const ShuffleDataPieces frame;
  const auto run = [&](const char* spec, auto&& check) {
    SCOPED_TRACE(spec);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::optional<bool> sent;
    std::jthread sender([&] {
      failpoint::ScopedFailpoints guard(spec);
      try {
        sent = send_frame(sv[0], frame.head, frame.tail, 2000);
      } catch (const failpoint::InjectedFault&) {
      }
      ::close(sv[0]);
    });
    check(sv[1], sent, sender);
    ::close(sv[1]);
  };
  // corrupt: the frame arrives whole and the checksum rejects it.
  run("net.send:nth=1:action=corrupt",
      [&](int fd, std::optional<bool>& sent, std::jthread& sender) {
        EXPECT_THROW(recv_frame_pieces(fd, kShuffleDataHeaderBytes, 2000),
                     IoError);
        sender.join();
        EXPECT_EQ(sent, true);
      });
  // shortwrite: the sender reports the peer gone; the receiver sees the
  // torn frame once the connection drops.
  run("net.send:nth=1:action=shortwrite",
      [&](int fd, std::optional<bool>& sent, std::jthread& sender) {
        try {
          recv_frame_pieces(fd, kShuffleDataHeaderBytes, 2000);
          ADD_FAILURE() << "torn frame delivered";
        } catch (const IoError& e) {
          EXPECT_NE(std::string(e.what()).find("mid-frame"),
                    std::string::npos)
              << e.what();
        }
        sender.join();
        EXPECT_EQ(sent, false);
      });
  // throw: nothing reaches the wire.
  run("net.send:nth=1",
      [&](int fd, std::optional<bool>& sent, std::jthread& sender) {
        sender.join();
        EXPECT_FALSE(sent.has_value());
        EXPECT_FALSE(recv_frame_pieces(fd, kShuffleDataHeaderBytes, 2000));
      });
  // delay: the frame is late but intact.
  run("net.send:nth=1:action=delay:delay_ms=20",
      [&](int fd, std::optional<bool>& sent, std::jthread& sender) {
        const auto got = recv_frame_pieces(fd, kShuffleDataHeaderBytes, 2000);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->head, frame.head);
        EXPECT_EQ(got->tail, frame.tail);
        sender.join();
        EXPECT_EQ(sent, true);
      });
}

TEST(ChecksummedFrames, SendRecvRoundTrip) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string payload = encode_bare(MsgType::kHeartbeat);
  ASSERT_TRUE(send_frame(sv[0], payload));
  const auto got = recv_frame(sv[1]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  ::close(sv[0]);
  EXPECT_FALSE(recv_frame(sv[1]).has_value());
  ::close(sv[1]);
}

TEST(ChecksummedFrames, RecvTruncatedAtEveryOffsetNeverSucceeds) {
  const std::string wire = checksummed_wire(
      encode_shuffle_fetch(ShuffleFetchMsg{"/scratch/run", 2}));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    if (cut > 0) {
      ASSERT_EQ(::send(sv[0], wire.data(), cut, 0),
                static_cast<ssize_t>(cut));
    }
    ::close(sv[0]);  // peer dies mid-frame
    if (cut == 0) {
      // Nothing sent at all: a clean EOF, not an error.
      EXPECT_FALSE(recv_frame(sv[1]).has_value());
    } else {
      // A torn frame is always an error — never a short "success".
      EXPECT_THROW(recv_frame(sv[1]), IoError) << "cut at byte " << cut;
    }
    ::close(sv[1]);
  }
}

TEST(ChecksummedFrames, RecvCorruptedAtEveryByteNeverYieldsWrongBytes) {
  const std::string payload =
      encode_shuffle_fetch(ShuffleFetchMsg{"/scratch/run", 2});
  const std::string wire = checksummed_wire(payload);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(::send(sv[0], bad.data(), bad.size(), 0),
              static_cast<ssize_t>(bad.size()));
    ::close(sv[0]);
    // Three legal outcomes: IoError (bad length/crc mismatch/torn frame)
    // — never the corrupted payload delivered as-if-valid. (A flip in
    // the length prefix may also leave the reader waiting for bytes that
    // never come; the closed peer turns that into a torn-frame IoError.)
    try {
      const auto got = recv_frame(sv[1]);
      ADD_FAILURE() << "corrupt byte " << i << " slipped through: "
                    << (got.has_value() ? "frame delivered" : "EOF");
    } catch (const IoError&) {
      // expected
    }
    ::close(sv[1]);
  }
}

TEST(ChecksummedFrames, RecvOversizedLengthPrefixThrows) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const char header[8] = {'\xff', '\xff', '\xff', '\xff', 0, 0, 0, 0};
  ASSERT_EQ(::send(sv[0], header, 8, 0), 8);
  EXPECT_THROW(recv_frame(sv[1]), IoError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ChecksummedFrames, RecvTimesOutOnSilentPeer) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // No bytes at all: the deadline must fire instead of blocking forever.
  EXPECT_THROW(recv_frame(sv[1], 50), IoError);
  // A partial preamble then silence must also time out (torn frame that
  // never completes, peer still alive).
  const char partial[3] = {9, 0, 0};
  ASSERT_EQ(::send(sv[0], partial, 3, 0), 3);
  EXPECT_THROW(recv_frame(sv[1], 50), IoError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ChecksummedFrames, SendTimesOutWhenPeerStopsDraining) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Shrink both socket buffers so a large frame cannot be absorbed.
  const int small = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const std::string big(4u << 20, 'x');
  // The peer never reads: send must hit the deadline, not block forever.
  EXPECT_THROW(send_frame(sv[0], big, 50), IoError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ChecksummedFrames, DecoderReassemblesAtEveryBoundaryOffset) {
  const std::string a = encode_shuffle_fetch(ShuffleFetchMsg{"/r", 0});
  const std::string b = encode_shuffle_error(ShuffleErrorMsg{true, "busy"});
  const std::string stream = checksummed_wire(a) + checksummed_wire(b);
  // Split the stream at every offset; both frames must always come out
  // whole, in order, bit-exact.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder decoder;
    decoder.feed(stream.data(), split);
    std::vector<std::string> frames;
    while (auto f = decoder.next()) frames.push_back(*f);
    decoder.feed(stream.data() + split, stream.size() - split);
    while (auto f = decoder.next()) frames.push_back(*f);
    ASSERT_EQ(frames.size(), 2u) << "split at " << split;
    EXPECT_EQ(frames[0], a);
    EXPECT_EQ(frames[1], b);
  }
}

TEST(ChecksummedFrames, DecoderRejectsCorruptedPayload) {
  const std::string payload = encode_shuffle_fetch(ShuffleFetchMsg{"/r", 0});
  std::string wire = checksummed_wire(payload);
  wire[wire.size() - 1] = static_cast<char>(wire.back() ^ 0x01);
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.next(), IoError);
}

// Seeded structural fuzz of the shuffle codecs: random mutations of
// valid frames must decode cleanly or throw FormatError — never crash,
// hang, or return garbage silently. (ASan/TSan tiers run this too.)
TEST(ShuffleCodecFuzz, MutatedFramesNeverCrash) {
  std::uint64_t state = 0x243f6a8885a308d3ull;  // fixed seed: reproducible
  const auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::string> seeds = {
      encode_shuffle_fetch(ShuffleFetchMsg{"/scratch/jobX/map0_a0_final", 3}),
      encode_shuffle_data(ShuffleDataMsg{12, std::string(100, 'z')}),
      encode_shuffle_error(ShuffleErrorMsg{true, "transient"}),
      encode_welcome(WelcomeMsg{1, 25, 123456789}),
      encode_hello(HelloMsg{Endpoint{"127.0.0.1", 4242}, 123456789, 42}),
  };
  int decoded = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string frame = seeds[rng() % seeds.size()];
    switch (rng() % 3) {
      case 0:  // truncate
        frame.resize(rng() % (frame.size() + 1));
        break;
      case 1:  // flip 1-4 bytes
        for (std::uint64_t flips = 1 + rng() % 4; flips > 0 && !frame.empty();
             --flips) {
          frame[rng() % frame.size()] ^= static_cast<char>(1 + rng() % 255);
        }
        break;
      case 2:  // append junk
        for (std::uint64_t extra = 1 + rng() % 16; extra > 0; --extra) {
          frame.push_back(static_cast<char>(rng() & 0xff));
        }
        break;
    }
    try {
      WireReader r(frame);
      const MsgType type = static_cast<MsgType>(r.u8());
      switch (type) {
        case MsgType::kShuffleFetch: decode_shuffle_fetch(r); break;
        case MsgType::kShuffleData: decode_shuffle_data(r); break;
        case MsgType::kShuffleError: decode_shuffle_error(r); break;
        case MsgType::kWelcome: decode_welcome(r); break;
        case MsgType::kHello: decode_hello(r); break;
        default: ++rejected; continue;  // type byte mutated away
      }
      ++decoded;
    } catch (const FormatError&) {
      ++rejected;
    }
  }
  // Both outcomes must actually occur or the fuzz is not exercising
  // anything (e.g. every mutation dodged the parser).
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// ---- the straggler rule ---------------------------------------------------

constexpr std::uint64_t kMs = 1000000ull;
const std::vector<std::uint64_t> kNoCompletions;

TEST(IsStragglerTest, StaleAfterTheTimeout) {
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 100;
  policy.slowness_factor = 1e9;  // isolate the staleness path
  const std::uint64_t dispatched = 1000 * kMs;
  const std::uint64_t last_frame = dispatched;
  EXPECT_FALSE(is_straggler(policy, dispatched + 99 * kMs, dispatched,
                            last_frame, kNoCompletions));
  EXPECT_FALSE(is_straggler(policy, dispatched + 100 * kMs, dispatched,
                            last_frame, kNoCompletions));
  EXPECT_TRUE(is_straggler(policy, dispatched + 101 * kMs, dispatched,
                           last_frame, kNoCompletions));
}

TEST(IsStragglerTest, AFreshFrameRefreshes) {
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 100;
  policy.slowness_factor = 1e9;
  const std::uint64_t dispatched = 0;
  std::uint64_t now = dispatched;
  for (int i = 0; i < 5; ++i) {
    now += 80 * kMs;
    const std::uint64_t last_frame = now;  // a beat just arrived
    EXPECT_FALSE(
        is_straggler(policy, now, dispatched, last_frame, kNoCompletions))
        << i;
  }
  const std::uint64_t last_frame = now;  // beats stop
  EXPECT_TRUE(is_straggler(policy, now + 101 * kMs, dispatched, last_frame,
                           kNoCompletions));
}

TEST(IsStragglerTest, SilenceCountsFromTheDispatchAtTheEarliest) {
  // The worker's last frame predates the dispatch by 10 s (an idle
  // worker whose beats stalled): staleness still starts at the dispatch.
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 100;
  policy.slowness_factor = 1e9;
  const std::uint64_t last_frame = 1000 * kMs;
  const std::uint64_t dispatched = last_frame + 10000 * kMs;
  EXPECT_FALSE(is_straggler(policy, dispatched, dispatched, last_frame,
                            kNoCompletions));
  EXPECT_FALSE(is_straggler(policy, dispatched + 100 * kMs, dispatched,
                            last_frame, kNoCompletions));
  EXPECT_TRUE(is_straggler(policy, dispatched + 101 * kMs, dispatched,
                           last_frame, kNoCompletions));
}

TEST(IsStragglerTest, SlownessNeedsMinCompleted) {
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 1u << 30;  // isolate the slowness path
  policy.slowness_factor = 4.0;
  policy.min_completed_for_median = 2;
  const std::uint64_t now = 500 * kMs;  // the attempt is 500 ms old
  // No completions yet: runtime alone never flags.
  EXPECT_FALSE(is_straggler(policy, now, 0, now, kNoCompletions));
  EXPECT_FALSE(is_straggler(policy, now, 0, now, {10 * kMs}));
  // Median 20 ms, factor 4 -> threshold 80 ms.
  EXPECT_TRUE(is_straggler(policy, now, 0, now, {10 * kMs, 20 * kMs}));
  // A zero median never flags.
  EXPECT_FALSE(is_straggler(policy, now, 0, now, {0, 0}));
}

TEST(IsStragglerTest, TheUpperMedianSetsTheThreshold) {
  StragglerPolicy policy;
  policy.heartbeat_timeout_ms = 1u << 30;
  policy.slowness_factor = 4.0;
  policy.min_completed_for_median = 2;
  // Unsorted odd count: median 20 ms -> threshold 80 ms.
  const std::vector<std::uint64_t> odd = {30 * kMs, 10 * kMs, 20 * kMs};
  EXPECT_FALSE(is_straggler(policy, 80 * kMs, 0, 80 * kMs, odd));
  EXPECT_TRUE(is_straggler(policy, 81 * kMs, 0, 81 * kMs, odd));
  // Even count: the upper median, sorted[n/2] = 30 ms -> 120 ms.
  const std::vector<std::uint64_t> even = {40 * kMs, 10 * kMs, 30 * kMs,
                                           20 * kMs};
  EXPECT_FALSE(is_straggler(policy, 120 * kMs, 0, 120 * kMs, even));
  EXPECT_TRUE(is_straggler(policy, 121 * kMs, 0, 121 * kMs, even));
  // Runtime counts from the dispatch, not from the last frame.
  EXPECT_TRUE(is_straggler(policy, 1121 * kMs, 1000 * kMs, 1121 * kMs, even));
  EXPECT_FALSE(
      is_straggler(policy, 1120 * kMs, 1000 * kMs, 1120 * kMs, even));
}

}  // namespace
}  // namespace textmr::cluster
