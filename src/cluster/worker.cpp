#include "cluster/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/protocol.hpp"
#include "cluster/shuffle_client.hpp"
#include "cluster/shuffle_server.hpp"
#include "cluster/transport.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"
#include "mr/task_runner.hpp"

namespace textmr::cluster {
namespace {

/// State shared between the worker's task loop and its heartbeat thread.
/// One mutex serializes the channel writes: frames from two threads must
/// not interleave.
struct Channel {
  Channel(int fd, std::int32_t io_timeout_ms)
      : fd(fd), io_timeout_ms(io_timeout_ms) {}

  const int fd;
  const std::int32_t io_timeout_ms;
  textmr::Mutex mu{textmr::LockRank::kCluster, "cluster.worker_channel"};
  textmr::CondVar wake;
  bool stop TEXTMR_GUARDED_BY(mu) = false;
  bool broken TEXTMR_GUARDED_BY(mu) = false;

  /// Sends one frame under the channel lock; records a broken peer.
  bool send(std::string_view payload) {
    textmr::MutexLock lock(mu);
    return send_locked(payload);
  }

  bool send_locked(std::string_view payload) TEXTMR_REQUIRES(mu) {
    if (broken) return false;
    bool ok = false;
    try {
      ok = send_frame(fd, payload, io_timeout_ms);
    } catch (const IoError&) {
      // Timeout or injected net.send fault: the coordinator is as good
      // as gone from this worker's perspective.
      ok = false;
    }
    if (!ok) {
      broken = true;
      return false;
    }
    return true;
  }
};

/// Drains the collector and ships the result as one or more kTraceChunk
/// frames. With tracing off the final chunk still goes out carrying an
/// empty trace, so the coordinator always gets a clean "telemetry
/// complete" signal for this worker.
bool ship_trace_chunks(Channel& channel, obs::TraceCollector* collector,
                       bool final_chunk) {
  // Without tracing an empty mid-job chunk would be pure overhead.
  if (collector == nullptr && !final_chunk) return true;
  TraceChunkMsg msg;
  msg.final_chunk = final_chunk;
  if (collector != nullptr) {
    msg.trace = collector->drain();
  }
  textmr::MutexLock lock(channel.mu);
  for (const std::string& payload : encode_trace_chunks(msg)) {
    if (!channel.send_locked(payload)) return false;
  }
  return true;
}

/// Runs attempt `attempt` of a dispatched task (`id` is a map task id or
/// a reduce partition) the same way for both kinds, inside the caller's
/// busy span `exec` on the worker lane: the `cluster.dispatch` failpoint,
/// `run` (which returns the done frame), or on any throw the failure
/// report and `cleanup`. Then it closes the span — on the failure path
/// too, since the analyzer derives per-worker utilization from these —
/// and sends the done or failed frame and the attempt's trace chunks.
/// Returns false once the channel is broken.
template <typename Run, typename Cleanup>
bool run_attempt(Channel& channel, obs::SpanTimer& exec,
                 obs::TraceCollector* collector, TaskKind kind,
                 std::uint32_t id, std::uint32_t attempt, Run run,
                 Cleanup cleanup) {
  std::string frame;
  try {
    if (failpoint::enabled()) {
      failpoint::check("cluster.dispatch");
    }
    frame = run();
  } catch (...) {
    TaskFailedMsg failure;
    failure.kind = kind;
    failure.id = id;
    failure.attempt = attempt;
    failure.retryable = mr::is_retryable_error();
    failure.message = mr::current_error_message();
    cleanup();
    frame = encode_task_failed(failure);
  }
  exec.done();
  if (!channel.send(frame)) return false;
  return ship_trace_chunks(channel, collector, /*final_chunk=*/false);
}

/// Heartbeat loop: one bare kHeartbeat frame per interval. The
/// coordinator knows what this worker runs, so a beat carries nothing.
/// The `worker.heartbeat` failpoint acts here — kDelay stalls the beats
/// (making the coordinator see a straggler) and any throw-style action
/// drops the beat; neither kills the thread, so the fault model is
/// "heartbeats stop flowing", not "worker dies".
void heartbeat_loop(Channel& channel, std::uint32_t interval_ms) {
  const std::string beat = encode_bare(MsgType::kHeartbeat);
  while (true) {
    {
      textmr::MutexLock lock(channel.mu);
      if (channel.stop || channel.broken) return;
      channel.wake.wait_for(channel.mu,
                            std::chrono::milliseconds(interval_ms));
      if (channel.stop || channel.broken) return;
    }
    if (failpoint::enabled()) {
      if (auto action = failpoint::consume("worker.heartbeat")) {
        if (action->kind == failpoint::ActionKind::kDelay) {
          failpoint::maybe_delay(*action);
        } else {
          continue;  // drop this beat
        }
      }
    }
    if (!channel.send(beat)) return;
  }
}

}  // namespace

int worker_main(const WorkerContext& ctx, const mr::JobSpec& spec) {
  try {
    Channel channel(ctx.fd, ctx.io_timeout_ms);

    // Serve this worker's committed map runs and tell the coordinator
    // where (kHello). Reducers on other workers pull their partitions
    // from here.
    ShuffleServer::Options shuffle_opts;
    shuffle_opts.listen.host = ctx.shuffle_host;  // port 0: kernel-assigned
    shuffle_opts.root = spec.scratch_dir.string();
    if (ctx.io_timeout_ms > 0) shuffle_opts.io_timeout_ms = ctx.io_timeout_ms;
    ShuffleServer shuffle(std::move(shuffle_opts));
    HelloMsg hello;
    hello.shuffle = shuffle.endpoint();
    if (!channel.send(encode_hello(hello))) return 1;

    // Worker-local trace collector; drained and shipped to the
    // coordinator as bounded chunks at every task completion and at
    // shutdown, then rebased onto the coordinator's clock via the
    // kClockProbe/kClockSync handshake before the merge.
    std::unique_ptr<obs::TraceCollector> collector;
    obs::TraceBuffer* worker_trace = nullptr;
    if (spec.trace.enabled) {
      collector = std::make_unique<obs::TraceCollector>(spec.trace);
      worker_trace = collector->make_buffer(
          obs::worker_pid(ctx.worker_id), 0, "task-loop",
          "worker-" + std::to_string(ctx.worker_id));
    }

    // This worker models one node: its map tasks share a frozen
    // frequent-key set, persisted so a replacement worker for the same
    // node id reuses it (§III-B, DESIGN.md §10).
    freqbuf::NodeKeyCache node_cache;
    if (spec.freqbuf.enabled) {
      node_cache.attach_file(
          spec.scratch_dir /
          ("node-" + std::to_string(ctx.worker_id) + ".keycache"));
    }

    const mr::MemorySplit mem = mr::split_memory(spec);

    std::thread heartbeats(heartbeat_loop, std::ref(channel),
                           ctx.heartbeat_interval_ms);
    // RAII joiner: an exception thrown anywhere in the dispatch loop
    // (corrupt frame, channel IoError) must stop and join the heartbeat
    // thread before the std::thread destructor runs — a joinable
    // destructor calls std::terminate, skipping the crash log below.
    struct HeartbeatJoiner {
      Channel& channel;
      std::thread& thread;
      ~HeartbeatJoiner() {
        {
          textmr::MutexLock lock(channel.mu);
          channel.stop = true;
        }
        channel.wake.notify_all();
        if (thread.joinable()) thread.join();
      }
    } heartbeat_joiner{channel, heartbeats};

    const std::int32_t idle_timeout_ms =
        ctx.idle_timeout_ms == 0
            ? std::int32_t{-1}
            : static_cast<std::int32_t>(ctx.idle_timeout_ms);
    while (true) {
      std::optional<std::string> frame;
      try {
        frame = recv_frame(ctx.fd, idle_timeout_ms);
      } catch (const IoError& e) {
        // Coordinator died mid-frame, stream corrupt, or (with an idle
        // timeout armed) a dead TCP peer went silent too long. Either
        // way this worker has no coordinator — exit.
        TEXTMR_LOG(kWarn) << "worker " << ctx.worker_id
                          << ": control channel lost: " << e.what();
        break;
      }
      if (!frame.has_value()) break;  // clean EOF: coordinator closed
      WireReader r(*frame);
      const MsgType type = static_cast<MsgType>(r.u8());

      if (type == MsgType::kShutdown) {
        // Trace rings of finished tasks have no live writers and the
        // heartbeat thread never records, so finishing here is safe.
        // The final chunk goes out even with tracing disabled: it marks
        // this worker's telemetry complete.
        ship_trace_chunks(channel, collector.get(), /*final_chunk=*/true);
        if (collector != nullptr) collector->finish();
        break;
      }

      if (type == MsgType::kClockProbe) {
        const ClockProbeMsg probe = decode_clock_probe(r);
        ClockSyncMsg sync;
        sync.t_probe = probe.t_send;
        sync.t_worker = monotonic_ns();
        if (!channel.send(encode_clock_sync(sync))) break;
        continue;
      }

      if (type == MsgType::kRunMap) {
        const RunTaskMsg msg = decode_run_task(r);
        const auto id = static_cast<double>(msg.id);
        const auto attempt = static_cast<double>(msg.attempt);
        obs::record_instant(worker_trace, "cluster", "map_dispatch", "task",
                            id, "attempt", attempt);
        obs::SpanTimer exec(worker_trace, "cluster", "map_exec");
        exec.arg("task", id);
        exec.arg("attempt", attempt);
        const bool live = run_attempt(
            channel, exec, collector.get(), TaskKind::kMap, msg.id,
            msg.attempt,
            [&] {
              const mr::MapTaskConfig config = mr::make_map_task_config(
                  spec, mem, msg.id, msg.attempt, &node_cache,
                  collector.get());
              return encode_map_done(msg.id, msg.attempt,
                                     mr::run_map_task(config));
            },
            [&] { mr::cleanup_map_attempt(spec, msg.id, msg.attempt); });
        if (!live) break;
        continue;
      }

      if (type == MsgType::kRunReduce) {
        RunReduceMsg msg = decode_run_reduce(r);
        const auto id = static_cast<double>(msg.partition);
        const auto attempt = static_cast<double>(msg.attempt);
        obs::record_instant(worker_trace, "cluster", "reduce_dispatch",
                            "partition", id, "attempt", attempt);
        obs::SpanTimer exec(worker_trace, "cluster", "reduce_exec");
        exec.arg("partition", id);
        exec.arg("attempt", attempt);
        const bool live = run_attempt(
            channel, exec, collector.get(), TaskKind::kReduce,
            msg.partition, msg.attempt,
            [&] {
              // Pull each run from its owning worker's shuffle server;
              // fall back to the shared-filesystem read when the owner is
              // gone or its fetches are exhausted (speculation SIGKILLs
              // winners' losers, and a loser may own committed map
              // output — DESIGN.md §14). `sources` is parallel to
              // `map_outputs` (the wire check guarantees it).
              mr::ShuffleFetcher fetcher =
                  [client = ShuffleClient(), sources = std::move(msg.sources)](
                      std::uint32_t run_index, const io::SpillRunInfo& run,
                      std::uint32_t partition) {
                    mr::ShuffleFetchResult out;
                    const Endpoint& source = sources[run_index];
                    if (source.valid()) {
                      if (auto bytes = client.fetch(source, run, partition)) {
                        out.bytes = std::move(*bytes);
                        out.over_wire = true;
                        return out;
                      }
                      TEXTMR_LOG(kWarn)
                          << "shuffle fetch of " << run.path << "#"
                          << partition << " from " << source.to_string()
                          << " exhausted retries; falling back to local read";
                    }
                    out.bytes =
                        io::SpillRunReader(run.path).read_partition(partition);
                    return out;
                  };
              const mr::ReduceTaskConfig config = mr::make_reduce_task_config(
                  spec, msg.partition, msg.attempt, std::move(msg.map_outputs),
                  collector.get(), std::move(fetcher));
              return encode_reduce_done(msg.partition, msg.attempt,
                                        mr::run_reduce_task(config));
            },
            [&] {
              mr::cleanup_reduce_attempt(
                  mr::reduce_output_path(spec, msg.partition), msg.attempt);
            });
        if (!live) break;
        continue;
      }

      TEXTMR_LOG(kWarn) << "worker " << ctx.worker_id
                        << ": unknown message type "
                        << static_cast<int>(type);
    }

    return 0;
  } catch (const std::exception& e) {
    TEXTMR_LOG(kError) << "cluster worker crashed: " << e.what();
    return 1;
  } catch (...) {
    return 1;
  }
}

int run_remote_worker(const Endpoint& coordinator, const mr::JobSpec& spec,
                      const RemoteWorkerOptions& options) {
  const int fd = tcp_connect(coordinator, options.connect_timeout_ms);
  WorkerContext ctx;
  try {
    const auto frame = recv_frame(fd, options.connect_timeout_ms);
    if (!frame.has_value()) {
      throw IoError("coordinator closed before sending welcome");
    }
    WireReader r(*frame);
    const MsgType type = static_cast<MsgType>(r.u8());
    if (type != MsgType::kWelcome) {
      throw FormatError("expected welcome from coordinator, got " +
                        std::string(msg_type_name(type)));
    }
    const WelcomeMsg welcome = decode_welcome(r);
    ctx.fd = fd;
    ctx.worker_id = welcome.worker_id;
    ctx.heartbeat_interval_ms = welcome.heartbeat_interval_ms;
    ctx.shuffle_host = options.shuffle_host;
    ctx.io_timeout_ms = options.io_timeout_ms;
    ctx.idle_timeout_ms = options.idle_timeout_ms;
  } catch (...) {
    ::close(fd);
    throw;
  }
  const int code = worker_main(ctx, spec);
  ::close(fd);
  return code;
}

}  // namespace textmr::cluster
