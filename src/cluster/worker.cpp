#include "cluster/worker.hpp"

#include <unistd.h>

#include <atomic>
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
/// One mutex serializes both the channel writes (frames from two threads
/// must not interleave) and the current-task fields the beats report.
struct Channel {
  Channel(int fd, std::int32_t io_timeout_ms)
      : fd(fd), io_timeout_ms(io_timeout_ms) {}

  const int fd;
  const std::int32_t io_timeout_ms;
  textmr::Mutex mu{textmr::LockRank::kCluster, "cluster.worker_channel"};
  textmr::CondVar wake;
  bool stop TEXTMR_GUARDED_BY(mu) = false;
  bool broken TEXTMR_GUARDED_BY(mu) = false;
  TaskKind kind TEXTMR_GUARDED_BY(mu) = TaskKind::kNone;
  std::uint32_t task_id TEXTMR_GUARDED_BY(mu) = 0;
  std::uint32_t attempt TEXTMR_GUARDED_BY(mu) = 0;
  // Cumulative since worker start; the task loop folds each finished
  // task in, the heartbeat thread snapshots it into every beat.
  mr::WorkerTelemetry stats TEXTMR_GUARDED_BY(mu);
  // Written by the map thread mid-task, read by the heartbeat thread.
  std::atomic<double> progress{0.0};

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

  void set_task(TaskKind k, std::uint32_t id, std::uint32_t a) {
    progress.store(0.0, std::memory_order_relaxed);
    textmr::MutexLock lock(mu);
    kind = k;
    task_id = id;
    attempt = a;
  }

  void set_idle() { set_task(TaskKind::kNone, 0, 0); }
};

/// Drains the collector and ships the result as one or more kTraceChunk
/// frames together with the current stats snapshot. With tracing off the
/// final chunk still goes out carrying an empty trace, so the
/// coordinator always gets a terminal stats snapshot and a clean
/// "telemetry complete" signal for this worker.
bool ship_trace_chunks(Channel& channel, obs::TraceCollector* collector,
                       std::uint32_t worker_id, bool final_chunk) {
  // Mid-job chunks only matter when tracing: heartbeats already carry
  // the stats, so an empty per-task chunk would be pure overhead.
  if (collector == nullptr && !final_chunk) return true;
  TraceChunkMsg msg;
  msg.worker_id = worker_id;
  msg.final_chunk = final_chunk;
  if (collector != nullptr) {
    msg.trace = collector->drain();
  }
  std::uint64_t drained_drops = 0;
  for (const auto& ring : msg.trace.ring_drops) drained_drops += ring.dropped;
  {
    textmr::MutexLock lock(channel.mu);
    channel.stats.trace_dropped += drained_drops;
    msg.stats = channel.stats;
    for (const std::string& payload : encode_trace_chunks(msg)) {
      if (!channel.send_locked(payload)) return false;
    }
  }
  return true;
}

/// What a finished attempt reports: its done frame, and what it adds to
/// the worker's cumulative stats.
struct TaskDone {
  std::string frame;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t spills = 0;
  std::uint64_t wall_ns = 0;
};

/// Runs attempt `attempt` of a dispatched task (`id` is a map task id or
/// a reduce partition) the same way for both kinds: the dispatch instant
/// and the busy span on the worker lane, the `cluster.dispatch`
/// failpoint, `run` (which returns the TaskDone), or on any throw the
/// failure report and `cleanup`; then the stats fold, the done or failed
/// frame, and the attempt's trace chunks. Returns false once the channel
/// is broken.
template <typename Run, typename Cleanup>
bool run_attempt(Channel& channel, obs::TraceBuffer* worker_trace,
                 obs::TraceCollector* collector, std::uint32_t worker_id,
                 TaskKind kind, std::uint32_t id, std::uint32_t attempt,
                 Run run, Cleanup cleanup) {
  const bool map = kind == TaskKind::kMap;
  const char* id_arg = map ? "task" : "partition";
  channel.set_task(kind, id, attempt);
  obs::record_instant(worker_trace, "cluster",
                      map ? "map_dispatch" : "reduce_dispatch", id_arg,
                      static_cast<double>(id), "attempt",
                      static_cast<double>(attempt));
  std::optional<TaskDone> done;
  TaskFailedMsg failure;
  {
    // Worker-lane busy span: the analyzer derives per-worker utilization
    // from these, so the span must close (destructor) on the failure
    // path too.
    obs::SpanTimer exec(worker_trace, "cluster",
                        map ? "map_exec" : "reduce_exec");
    exec.arg(id_arg, static_cast<double>(id));
    exec.arg("attempt", static_cast<double>(attempt));
    try {
      if (failpoint::enabled()) {
        failpoint::check("cluster.dispatch");
      }
      done = run();
    } catch (...) {
      failure.kind = kind;
      failure.id = id;
      failure.attempt = attempt;
      failure.retryable = mr::is_retryable_error();
      failure.message = mr::current_error_message();
      cleanup();
    }
  }
  {
    textmr::MutexLock lock(channel.mu);
    if (done.has_value()) {
      channel.stats.records += done->records;
      channel.stats.bytes += done->bytes;
      channel.stats.spills += done->spills;
      channel.stats.tasks_completed += 1;
      channel.stats.task_latency_ns.record(done->wall_ns);
    } else {
      channel.stats.task_failures += 1;
    }
  }
  channel.set_idle();
  const std::string frame =
      done.has_value() ? std::move(done->frame) : encode_task_failed(failure);
  if (!channel.send(frame)) return false;
  return ship_trace_chunks(channel, collector, worker_id,
                           /*final_chunk=*/false);
}

/// Heartbeat loop: one beat per interval describing what the worker is
/// doing. The `worker.heartbeat` failpoint acts here — kDelay stalls the
/// beats (making the coordinator see a straggler) and any throw-style
/// action drops the beat; neither kills the thread, so the fault model
/// is "heartbeats stop flowing", not "worker dies".
void heartbeat_loop(Channel& channel, std::uint32_t worker_id,
                    std::uint32_t interval_ms) {
  while (true) {
    HeartbeatMsg msg;
    msg.worker_id = worker_id;
    {
      textmr::MutexLock lock(channel.mu);
      if (channel.stop || channel.broken) return;
      channel.wake.wait_for(channel.mu,
                            std::chrono::milliseconds(interval_ms));
      if (channel.stop || channel.broken) return;
      msg.kind = channel.kind;
      msg.id = channel.task_id;
      msg.attempt = channel.attempt;
      msg.stats = channel.stats;
    }
    msg.progress = channel.progress.load(std::memory_order_relaxed);
    if (failpoint::enabled()) {
      if (auto action = failpoint::consume("worker.heartbeat")) {
        if (action->kind == failpoint::ActionKind::kDelay) {
          failpoint::maybe_delay(*action);
        } else {
          continue;  // drop this beat
        }
      }
    }
    if (!channel.send(encode_heartbeat(msg))) return;
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
    hello.worker_id = ctx.worker_id;
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

    std::thread heartbeats(heartbeat_loop, std::ref(channel), ctx.worker_id,
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
        // The final chunk goes out even with tracing disabled: it
        // carries the terminal stats snapshot and marks this worker's
        // telemetry complete.
        ship_trace_chunks(channel, collector.get(), ctx.worker_id,
                          /*final_chunk=*/true);
        if (collector != nullptr) collector->finish();
        break;
      }

      if (type == MsgType::kClockProbe) {
        const ClockProbeMsg probe = decode_clock_probe(r);
        ClockSyncMsg sync;
        sync.worker_id = ctx.worker_id;
        sync.t_probe = probe.t_send;
        sync.t_worker = monotonic_ns();
        if (!channel.send(encode_clock_sync(sync))) break;
        continue;
      }

      if (type == MsgType::kRunMap) {
        const RunTaskMsg msg = decode_run_task(r);
        const bool live = run_attempt(
            channel, worker_trace, collector.get(), ctx.worker_id,
            TaskKind::kMap, msg.id, msg.attempt,
            [&] {
              mr::MapTaskConfig config = mr::make_map_task_config(
                  spec, mem, msg.id, msg.attempt, &node_cache,
                  collector.get());
              config.progress = &channel.progress;
              const mr::MapTaskResult result = mr::run_map_task(config);
              return TaskDone{encode_map_done(msg.id, msg.attempt, result),
                              result.map_thread.input_records,
                              result.map_thread.input_bytes, result.spills,
                              result.wall_ns};
            },
            [&] { mr::cleanup_map_attempt(spec, msg.id, msg.attempt); });
        if (!live) break;
        continue;
      }

      if (type == MsgType::kRunReduce) {
        RunReduceMsg msg = decode_run_reduce(r);
        const bool live = run_attempt(
            channel, worker_trace, collector.get(), ctx.worker_id,
            TaskKind::kReduce, msg.partition, msg.attempt,
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
              const mr::ReduceTaskResult result = mr::run_reduce_task(config);
              return TaskDone{
                  encode_reduce_done(msg.partition, msg.attempt, result),
                  result.metrics.reduce_input_records,
                  result.metrics.shuffled_bytes, 0, result.wall_ns};
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
