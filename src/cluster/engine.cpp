#include "cluster/engine.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/protocol.hpp"
#include "cluster/transport.hpp"
#include "cluster/worker.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "mr/task_runner.hpp"

namespace textmr::cluster {
namespace {

/// Coordinator-side view of one worker process.
struct WorkerHandle {
  std::uint32_t id = 0;
  Connection conn;
  pid_t pid = -1;  // -1 for external (non-forked) workers
  bool alive = true;
  bool reaped = false;
  FrameDecoder decoder;
  /// Shuffle-server endpoint advertised via kHello; invalid (port 0)
  /// until the hello arrives.
  Endpoint shuffle;
  // Current dispatch: the one attempt this worker runs, and since when.
  bool busy = false;
  TaskKind kind = TaskKind::kNone;
  std::uint32_t task_id = 0;
  std::uint32_t attempt = 0;
  std::uint64_t dispatched_ns = 0;
  /// When the last frame of any type arrived (set at registration too):
  /// the liveness and straggler rules measure silence from it.
  std::uint64_t last_frame_ns = 0;
  // Telemetry: the clock offset its kHello measured and the counters
  // handle_frame folds from this worker's done, failed and trace frames.
  std::int64_t clock_offset_ns = 0;
  bool got_final_telemetry = false;
  mr::WorkerTelemetry stats;
};

/// Scheduler state of one task within a phase.
struct TaskState {
  bool done = false;
  std::uint32_t next_attempt = 0;  // attempt id generator
  std::uint32_t failures = 0;      // charged attempts (worker death is free)
  bool retried = false;
  bool speculated = false;
};

/// Throws FormatError unless a done or failed frame names the attempt
/// the coordinator dispatched to `worker`, which runs one at a time. The
/// ids come off the wire, and the scheduler indexes its task table with
/// them.
void expect_dispatched(const WorkerHandle& worker, TaskKind kind,
                       std::uint32_t id, std::uint32_t attempt) {
  if (worker.busy && worker.kind == kind && worker.task_id == id &&
      worker.attempt == attempt) {
    return;
  }
  throw FormatError("cluster worker " + std::to_string(worker.id) +
                    " reported an attempt it was not running");
}

/// Folds one finished attempt, as its done frame reports it, into the
/// telemetry of the worker that ran it.
void count_done(mr::WorkerTelemetry& stats, std::uint64_t records,
                std::uint64_t bytes, std::uint64_t spills,
                std::uint64_t wall_ns) {
  stats.records += records;
  stats.bytes += bytes;
  stats.spills += spills;
  stats.tasks_completed += 1;
  stats.task_wall_ns.push_back(wall_ns);
}

constexpr int kPollMs = 5;
/// How long shutdown waits for a worker to drain and exit before
/// SIGKILLing it (a straggling duplicate attempt may still be running).
constexpr std::uint64_t kShutdownGraceMs = 10000;

class Coordinator {
 public:
  Coordinator(const mr::JobSpec& spec, const ClusterConfig& config,
              TcpTransport& tcp)
      : spec_(spec), config_(config), tcp_(tcp) {}

  mr::JobResult run();

 private:
  // ---- process management ----
  void spawn_workers();
  void register_worker(std::uint32_t id, Connection conn, pid_t pid);
  /// Sends one frame to a live worker, translating every failure mode
  /// (EPIPE, timeout, injected fault) into worker death. Returns false
  /// when the worker is now dead.
  bool send_to(WorkerHandle& worker, std::string_view frame);
  void on_worker_dead(WorkerHandle& worker);
  void kill_worker(WorkerHandle& worker);
  void kill_loser_attempts(TaskKind kind, std::uint32_t task);
  void shutdown_workers();
  void kill_and_reap_all();

  // ---- scheduling ----
  void run_phase(TaskKind kind, std::uint32_t num_tasks);
  void dispatch_ready(TaskKind kind);
  bool dispatch_to(WorkerHandle& worker, TaskKind kind, std::uint32_t task);
  void pump_events();
  void drain_worker(WorkerHandle& worker);
  void handle_frame(WorkerHandle& worker, const std::string& frame);
  void check_stragglers(TaskKind kind);
  void fail_job(std::exception_ptr error);

  std::uint32_t live_workers() const;

  const mr::JobSpec& spec_;
  const ClusterConfig& config_;

  // Owned by ClusterEngine (DESIGN.md §14), so it outlives the run.
  TcpTransport& tcp_;

  std::vector<WorkerHandle> workers_;
  std::unique_ptr<obs::TraceCollector> collector_;
  obs::TraceBuffer* driver_trace_ = nullptr;
  std::vector<obs::TraceData> worker_traces_;

  // Phase-scoped scheduler state. phase_ is kNone outside run_phase, so
  // a speculative loser reporting after its phase ended is recognized as
  // stale instead of indexing the next phase's task table.
  TaskKind phase_ = TaskKind::kNone;
  std::vector<TaskState> tasks_;
  std::deque<std::uint32_t> queue_;  // task ids awaiting (re)dispatch
  std::uint32_t done_count_ = 0;
  std::vector<std::uint64_t> completed_ns_;  // the phase's winning durations
  std::exception_ptr job_error_;

  // Results.
  std::vector<mr::MapTaskResult> map_results_;
  std::vector<mr::ReduceTaskResult> reduce_results_;
  std::vector<io::SpillRunInfo> map_outputs_;
  // Which worker's shuffle server owns each map task's winning run,
  // parallel to map_outputs_. Invalid endpoint = the owner is gone; the
  // reducer reads the run through the shared filesystem.
  std::vector<Endpoint> map_output_sources_;

  // Accounting.
  std::uint64_t task_attempts_ = 0;
  std::uint64_t tasks_retried_ = 0;
  std::uint64_t speculative_attempts_ = 0;

  // Set once kShutdown frames go out: a worker hanging up after that is
  // a clean exit, not a death worth a warning or a trace event.
  bool shutting_down_ = false;
};

void Coordinator::spawn_workers() {
  workers_.reserve(config_.num_workers);
  const std::uint32_t forked = config_.num_workers - config_.external_workers;
  for (std::uint32_t w = 0; w < forked; ++w) {
    // Both channel ends exist before fork (connect+accept against the
    // coordinator's own listener), so the child inherits an established
    // connection on which its welcome arrives.
    TcpTransport::WorkerChannel channel = tcp_.make_worker_channel();
    // Flush stdio so the child doesn't replay buffered output.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(channel.child_fd);
      kill_and_reap_all();
      throw IoError("fork failed: " + std::string(strerror(errno)));
    }
    if (pid == 0) {
      // Child: become worker `w`. Drop the coordinator ends — including
      // the channels of previously forked siblings, otherwise this
      // process would hold them open and mask a sibling's death (EOF) —
      // and the coordinator's listener.
      channel.coordinator.close();
      for (WorkerHandle& sibling : workers_) sibling.conn.close();
      tcp_.close_listener();
      if (config_.worker_init) config_.worker_init(w);
      WorkerOptions options;
      options.connect_timeout_ms = config_.io_timeout_ms;
      options.io_timeout_ms = config_.io_timeout_ms;
      int code = 1;
      try {
        code = worker_main(channel.child_fd, spec_, options);
      } catch (const Error& e) {
        TEXTMR_LOG(kError) << "cluster worker " << w << ": " << e.what();
      }
      // _exit: a forked clone must not run the parent's atexit chain or
      // gtest teardown; its heap intentionally dies with it.
      ::_exit(code);
    }
    ::close(channel.child_fd);
    register_worker(w, std::move(channel.coordinator), pid);
  }
  for (std::uint32_t w = forked; w < config_.num_workers; ++w) {
    Connection conn;
    try {
      conn = tcp_.accept_worker(config_.accept_timeout_ms);
    } catch (const IoError& e) {
      kill_and_reap_all();
      throw IoError("external worker " + std::to_string(w) +
                    " never connected: " + e.what());
    }
    register_worker(w, std::move(conn), -1);
  }
}

/// Every worker, forked or external, joins the same way: the coordinator
/// sends kWelcome (the worker's id, the heartbeat cadence and its own
/// clock) and reads the worker's first frame, which must be kHello.
/// Reading it here, not in the event pump, keeps the round trip that
/// bounds the clock-offset error as short as the worker's start-up. A
/// worker that hangs up, stays silent past accept_timeout_ms or answers
/// anything else joins dead, as if it had died right after.
void Coordinator::register_worker(std::uint32_t id, Connection conn,
                                  pid_t pid) {
  WorkerHandle& worker = workers_.emplace_back();
  worker.id = id;
  worker.conn = std::move(conn);
  worker.pid = pid;
  worker.last_frame_ns = monotonic_ns();
  if (config_.on_worker_spawn) config_.on_worker_spawn(id, pid);
  WelcomeMsg welcome;
  welcome.worker_id = id;
  welcome.heartbeat_interval_ms = config_.heartbeat_interval_ms;
  welcome.t_send = monotonic_ns();
  if (!send_to(worker, encode_welcome(welcome))) return;
  try {
    const auto hello = worker.conn.recv(config_.accept_timeout_ms);
    if (!hello.has_value() || hello->empty() ||
        static_cast<MsgType>(hello->front()) != MsgType::kHello) {
      throw FormatError("no hello in answer to the welcome");
    }
    handle_frame(worker, *hello);
  } catch (const Error& e) {
    TEXTMR_LOG(kWarn) << "cluster worker " << id
                      << " failed to join: " << e.what();
    kill_worker(worker);
  }
}

bool Coordinator::send_to(WorkerHandle& worker, std::string_view frame) {
  if (!worker.alive) return false;
  bool sent = false;
  try {
    sent = worker.conn.send(frame);
  } catch (const IoError&) {
    sent = false;
  }
  if (!sent) on_worker_dead(worker);
  return sent;
}

std::uint32_t Coordinator::live_workers() const {
  std::uint32_t n = 0;
  for (const auto& worker : workers_) n += worker.alive ? 1 : 0;
  return n;
}

void Coordinator::fail_job(std::exception_ptr error) {
  if (!job_error_) job_error_ = std::move(error);
}

void Coordinator::on_worker_dead(WorkerHandle& worker) {
  if (!worker.alive) return;
  worker.alive = false;
  worker.conn.close();
  if (shutting_down_) {
    TEXTMR_LOG(kDebug) << "cluster worker " << worker.id << " (pid "
                       << worker.pid << ") exited";
  } else {
    TEXTMR_LOG(kWarn) << "cluster worker " << worker.id << " (pid "
                      << worker.pid << ") died";
    obs::record_instant(driver_trace_, "cluster", "worker_death", "worker",
                        static_cast<double>(worker.id));
  }
  if (worker.busy) {
    // Same stale-attempt guard as handle_frame: a worker still busy with
    // a previous phase's task (a speculative loser) dying later must not
    // index the current phase's task table — its task id belongs to a
    // scheduler state that no longer exists.
    if (worker.kind == phase_) {
      // Worker death is the machine's fault, not the task's: re-queue
      // without charging max_task_attempts (Hadoop reschedules the same
      // way). The fresh dispatch gets a fresh attempt id.
      if (!tasks_[worker.task_id].done) queue_.push_back(worker.task_id);
    }
    worker.busy = false;
  }
}

void Coordinator::kill_worker(WorkerHandle& worker) {
  if (!worker.alive) return;
  if (worker.pid < 0) {
    // No pid to signal: closing the control channel is the kill. The
    // worker notices EOF (or the idle timeout) after its current task
    // and exits; a loser attempt's late result has nowhere to go.
    on_worker_dead(worker);
    return;
  }
  ::kill(worker.pid, SIGKILL);
  int status = 0;
  while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
  }
  worker.reaped = true;
  on_worker_dead(worker);
}

/// A task's winning attempt just committed: every other worker still
/// running a duplicate attempt of it is doing provably useless work and
/// would stall job completion (the shutdown drain would wait out its
/// remaining runtime). Kill those workers — Hadoop's backup-task kill,
/// which for one-slot worker processes means killing the process — and
/// drop the dead attempts' scratch files. Call with the task already
/// marked done so on_worker_dead() does not re-queue it.
void Coordinator::kill_loser_attempts(TaskKind kind, std::uint32_t task) {
  for (auto& worker : workers_) {
    if (!worker.alive || !worker.busy) continue;
    if (worker.kind != kind || worker.task_id != task) continue;
    const std::uint32_t attempt = worker.attempt;
    TEXTMR_LOG(kWarn) << "killing worker " << worker.id
                      << " running lost duplicate of "
                      << (kind == TaskKind::kMap ? "map" : "reduce")
                      << " task " << task << " attempt " << attempt;
    kill_worker(worker);
    if (kind == TaskKind::kMap) {
      mr::cleanup_map_attempt(spec_, task, attempt);
    } else {
      mr::cleanup_reduce_attempt(
          mr::reduce_output_path(spec_, task), attempt);
    }
  }
}

bool Coordinator::dispatch_to(WorkerHandle& worker, TaskKind kind,
                              std::uint32_t task) {
  TaskState& state = tasks_[task];
  const std::uint32_t attempt = state.next_attempt++;
  std::string frame;
  if (kind == TaskKind::kMap) {
    frame = encode_run_task(MsgType::kRunMap, RunTaskMsg{task, attempt});
  } else {
    RunReduceMsg msg;
    msg.partition = task;
    msg.attempt = attempt;
    msg.map_outputs = map_outputs_;
    // Tell the reducer which worker's shuffle server owns each run. An
    // invalid endpoint (owner died before or after committing) falls
    // back to the shared-filesystem read.
    msg.sources = map_output_sources_;
    frame = encode_run_reduce(msg);
  }
  if (!send_to(worker, frame)) {
    state.next_attempt = attempt;  // attempt never started
    return false;
  }
  worker.busy = true;
  worker.kind = kind;
  worker.task_id = task;
  worker.attempt = attempt;
  worker.dispatched_ns = monotonic_ns();
  task_attempts_ += 1;
  return true;
}

void Coordinator::dispatch_ready(TaskKind kind) {
  for (auto& worker : workers_) {
    if (queue_.empty()) return;
    if (!worker.alive || worker.busy) continue;
    // Take the oldest queued task that still needs running; drop stale
    // entries for tasks that completed while queued. A speculative
    // duplicate automatically lands on a different worker than the
    // straggling attempt: that worker is busy, and busy workers are
    // never dispatched to.
    std::optional<std::uint32_t> chosen;
    while (!queue_.empty()) {
      const std::uint32_t candidate = queue_.front();
      queue_.pop_front();
      if (tasks_[candidate].done) continue;
      chosen = candidate;
      break;
    }
    if (!chosen.has_value()) continue;
    if (!dispatch_to(worker, kind, *chosen)) {
      // The worker died between poll and dispatch: the task never left
      // the coordinator, so put it back at the head for the next worker.
      queue_.push_front(*chosen);
    }
  }
}

void Coordinator::handle_frame(WorkerHandle& worker,
                               const std::string& frame) {
  WireReader r(frame);
  const MsgType type = static_cast<MsgType>(r.u8());
  // Any frame is proof of life — heartbeats are the steady signal, but
  // a worker busy shipping a huge trace chunk is just as alive. Done,
  // failed and trace frames are counted into the worker's telemetry
  // before any phase or duplicate check, so a late loser or a failed
  // attempt counts for the worker that ran it.
  worker.last_frame_ns = monotonic_ns();
  switch (type) {
    case MsgType::kHeartbeat:
      r.expect_done();
      return;
    case MsgType::kHello: {
      // The reply to kWelcome: its echoed stamp and the worker's clock
      // give the offset that rebases this worker's trace before the
      // merge.
      const HelloMsg msg = decode_hello(r);
      worker.shuffle = msg.shuffle;
      worker.clock_offset_ns = estimate_clock_offset(
          msg.t_welcome, worker.last_frame_ns, msg.t_worker);
      obs::record_instant(driver_trace_, "cluster", "clock_sync", "worker",
                          static_cast<double>(worker.id), "offset_ns",
                          static_cast<double>(worker.clock_offset_ns));
      TEXTMR_LOG(kDebug) << "worker " << worker.id
                         << " serves shuffle at "
                         << worker.shuffle.to_string();
      return;
    }
    case MsgType::kTraceChunk: {
      TraceChunkMsg msg = decode_trace_chunk(r);
      for (const auto& ring : msg.trace.ring_drops) {
        worker.stats.trace_dropped += ring.dropped;
      }
      if (msg.final_chunk) worker.got_final_telemetry = true;
      if (msg.trace.enabled && worker.id < worker_traces_.size()) {
        obs::merge_trace(worker_traces_[worker.id], std::move(msg.trace));
      }
      return;
    }
    case MsgType::kMapDone: {
      std::uint32_t task = 0;
      std::uint32_t attempt = 0;
      mr::MapTaskResult result;
      decode_map_done(r, task, attempt, result);
      expect_dispatched(worker, TaskKind::kMap, task, attempt);
      count_done(worker.stats, result.map_thread.input_records,
                 result.map_thread.input_bytes, result.spills, result.wall_ns);
      worker.busy = false;
      if (phase_ != TaskKind::kMap) {
        // A speculative loser still running when the map phase ended,
        // now finishing during the reduce phase or shutdown: the phase's
        // scheduler state is gone, only the loser's files need dropping.
        mr::cleanup_map_attempt(spec_, task, attempt);
        return;
      }
      TaskState& state = tasks_[task];
      if (state.done) {
        // A speculative (or re-queued) duplicate lost the race: its run
        // file is redundant — drop the attempt's scratch files.
        mr::cleanup_map_attempt(spec_, task, attempt);
        return;
      }
      state.done = true;
      ++done_count_;
      completed_ns_.push_back(monotonic_ns() - worker.dispatched_ns);
      map_results_[task] = std::move(result);
      // The winner's shuffle server owns this run; reducers pull it
      // from there.
      map_output_sources_[task] = worker.shuffle;
      kill_loser_attempts(TaskKind::kMap, task);
      return;
    }
    case MsgType::kReduceDone: {
      std::uint32_t partition = 0;
      std::uint32_t attempt = 0;
      mr::ReduceTaskResult result;
      decode_reduce_done(r, partition, attempt, result);
      expect_dispatched(worker, TaskKind::kReduce, partition, attempt);
      count_done(worker.stats, result.metrics.reduce_input_records,
                 result.metrics.shuffled_bytes, 0, result.wall_ns);
      worker.busy = false;
      // A post-phase reduce loser already committed byte-identical output
      // through the atomic rename; nothing to clean up.
      if (phase_ != TaskKind::kReduce) return;
      TaskState& state = tasks_[partition];
      if (state.done) return;  // duplicate committed identical bytes
      state.done = true;
      ++done_count_;
      completed_ns_.push_back(monotonic_ns() - worker.dispatched_ns);
      reduce_results_[partition] = std::move(result);
      kill_loser_attempts(TaskKind::kReduce, partition);
      return;
    }
    case MsgType::kTaskFailed: {
      const TaskFailedMsg msg = decode_task_failed(r);
      expect_dispatched(worker, msg.kind, msg.id, msg.attempt);
      worker.stats.task_failures += 1;
      worker.busy = false;
      if (phase_ != msg.kind) return;  // failure of a post-phase loser
      TaskState& state = tasks_[msg.id];
      if (state.done) return;  // a sibling attempt already finished
      const char* kind_name = msg.kind == TaskKind::kMap ? "map" : "reduce";
      if (!msg.retryable) {
        fail_job(std::make_exception_ptr(TaskFailedError(
            std::string(kind_name) + " task " + std::to_string(msg.id) +
            " failed permanently: " + msg.message)));
        return;
      }
      state.failures += 1;
      if (state.failures >= spec_.max_task_attempts) {
        fail_job(std::make_exception_ptr(TaskFailedError(
            std::string(kind_name) + " task " + std::to_string(msg.id) +
            " failed after " + std::to_string(state.failures) +
            (state.failures == 1 ? " attempt: " : " attempts: ") +
            msg.message)));
        return;
      }
      TEXTMR_LOG(kWarn) << kind_name << " task " << msg.id << " attempt "
                        << msg.attempt << " failed (" << msg.message
                        << "); retrying";
      obs::record_instant(driver_trace_, "retry", "task_retry", "task",
                          static_cast<double>(msg.id), "failed_attempt",
                          static_cast<double>(msg.attempt));
      if (!state.retried) {
        state.retried = true;
        tasks_retried_ += 1;
      }
      queue_.push_back(msg.id);
      return;
    }
    // Coordinator-to-worker and shuffle-channel messages, listed
    // explicitly so adding a MsgType forces a decision here (-Wswitch +
    // switch-exhaustiveness). The kShuffle* family never belongs on the
    // control channel — it lives on dedicated server connections.
    case MsgType::kRunMap:
    case MsgType::kRunReduce:
    case MsgType::kShutdown:
    case MsgType::kWelcome:
    case MsgType::kShuffleFetch:
    case MsgType::kShuffleData:
    case MsgType::kShuffleError:
      TEXTMR_LOG(kWarn) << "coordinator: unexpected message type "
                        << static_cast<int>(type) << " from worker "
                        << worker.id;
      return;
  }
  TEXTMR_LOG(kWarn) << "coordinator: unknown message type "
                    << static_cast<int>(type) << " from worker " << worker.id;
}

void Coordinator::drain_worker(WorkerHandle& worker) {
  bool open = false;
  const auto unusable = [&](const Error& e) {
    TEXTMR_LOG(kWarn) << "cluster worker " << worker.id
                      << " channel unusable: " << e.what();
    open = false;
  };
  try {
    open = worker.conn.drain(worker.decoder);
    // Flush complete frames — including, on EOF, any that raced the
    // death. A corrupted stream (bad checksum, oversized frame) throws
    // IoError out of next(), and a checksummed frame that fails to
    // decode, or names an attempt the worker was not running, throws
    // FormatError out of handle_frame (which checks the whole frame
    // before it changes any state). Either way the channel is unusable,
    // which is indistinguishable from a dead worker.
    while (auto frame = worker.decoder.next()) {
      handle_frame(worker, *frame);
    }
  } catch (const IoError& e) {
    unusable(e);
  } catch (const FormatError& e) {
    unusable(e);
  }
  if (!open) on_worker_dead(worker);
}

void Coordinator::pump_events() {
  std::vector<pollfd> fds;
  std::vector<WorkerHandle*> owners;
  for (auto& worker : workers_) {
    if (!worker.alive) continue;
    fds.push_back(pollfd{worker.conn.fd(), POLLIN, 0});
    owners.push_back(&worker);
  }
  if (fds.empty()) return;
  const int rc = ::poll(fds.data(), fds.size(), kPollMs);
  if (rc < 0) {
    if (errno == EINTR) return;
    throw IoError("cluster poll failed: " + std::string(strerror(errno)));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    // A winner draining earlier in this loop may have killed this worker
    // (kill_loser_attempts); its fd is gone, skip it.
    if (!owners[i]->alive) continue;
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      drain_worker(*owners[i]);
    }
  }
  // Liveness: a TCP peer that lost power never EOFs — silence is the
  // only signal. Workers silent past the timeout are declared dead (and
  // SIGKILLed when forked, in case the process is alive but wedged).
  if (config_.liveness_timeout_ms != 0) {
    const std::uint64_t now = monotonic_ns();
    const std::uint64_t timeout_ns =
        static_cast<std::uint64_t>(config_.liveness_timeout_ms) * 1000000ull;
    for (auto& worker : workers_) {
      if (!worker.alive || now - worker.last_frame_ns <= timeout_ns) continue;
      TEXTMR_LOG(kWarn) << "cluster worker " << worker.id
                        << " silent past liveness timeout; declaring dead";
      kill_worker(worker);
    }
  }
}

/// Flags the current phase's straggling attempts (DESIGN.md §10). The
/// task's `speculated` latch gives each task at most one duplicate.
void Coordinator::check_stragglers(TaskKind kind) {
  if (!config_.speculation) return;
  const std::uint64_t now = monotonic_ns();
  for (const auto& worker : workers_) {
    if (!worker.alive || !worker.busy || worker.kind != kind) continue;
    TaskState& state = tasks_[worker.task_id];
    if (state.done || state.speculated) continue;
    if (!is_straggler(config_.straggler, now, worker.dispatched_ns,
                      worker.last_frame_ns, completed_ns_)) {
      continue;
    }
    state.speculated = true;
    speculative_attempts_ += 1;
    TEXTMR_LOG(kWarn) << "speculating "
                      << (kind == TaskKind::kMap ? "map" : "reduce")
                      << " task " << worker.task_id
                      << " (straggling attempt " << worker.attempt << ")";
    obs::record_instant(driver_trace_, "cluster", "speculative_attempt",
                        "task", static_cast<double>(worker.task_id),
                        "straggling_attempt",
                        static_cast<double>(worker.attempt));
    queue_.push_back(worker.task_id);
  }
}

void Coordinator::run_phase(TaskKind kind, std::uint32_t num_tasks) {
  phase_ = kind;
  tasks_.assign(num_tasks, TaskState{});
  queue_.clear();
  for (std::uint32_t t = 0; t < num_tasks; ++t) queue_.push_back(t);
  done_count_ = 0;
  completed_ns_.clear();

  while (done_count_ < num_tasks && !job_error_) {
    if (live_workers() == 0) {
      fail_job(std::make_exception_ptr(
          TaskFailedError("every cluster worker died")));
      break;
    }
    dispatch_ready(kind);
    pump_events();
    check_stragglers(kind);
  }
  phase_ = TaskKind::kNone;
  if (job_error_) {
    shutdown_workers();
    std::rethrow_exception(job_error_);
  }
}

void Coordinator::shutdown_workers() {
  shutting_down_ = true;
  const std::string shutdown_frame = encode_bare(MsgType::kShutdown);
  for (auto& worker : workers_) {
    send_to(worker, shutdown_frame);
  }
  // Drain until every worker EOFs (shipping its final trace chunk on the
  // way out) or the grace period expires — a still-running
  // loser attempt can hold a worker busy past the job's useful lifetime.
  const std::uint64_t deadline =
      monotonic_ns() + kShutdownGraceMs * 1000000ull;
  while (live_workers() > 0 && monotonic_ns() < deadline) {
    pump_events();
  }
  kill_and_reap_all();
}

void Coordinator::kill_and_reap_all() {
  for (auto& worker : workers_) {
    if (worker.alive) {
      // External workers have no pid here; dropping the channel is the
      // strongest signal the coordinator can send them.
      if (worker.pid > 0) ::kill(worker.pid, SIGKILL);
      on_worker_dead(worker);
    }
  }
  for (auto& worker : workers_) {
    if (worker.reaped || worker.pid <= 0) continue;
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    worker.reaped = true;
  }
}

mr::JobResult Coordinator::run() {
  mr::validate_job(spec_);
  if (config_.num_workers == 0) {
    throw ConfigError("cluster needs >= 1 worker");
  }
  if (config_.external_workers > config_.num_workers) {
    throw ConfigError("external_workers exceeds num_workers");
  }
  if (config_.io_timeout_ms == 0 || config_.io_timeout_ms < -1) {
    throw ConfigError("io_timeout_ms must be -1 (no limit) or > 0");
  }
  if (config_.heartbeat_interval_ms == 0) {
    throw ConfigError("heartbeat_interval_ms must be > 0");
  }
  if (!config_.network_shuffle) {
    throw ConfigError(
        "network_shuffle = false is not supported: reducers always pull map "
        "output from the owning worker's shuffle server");
  }
  std::filesystem::create_directories(spec_.scratch_dir);
  std::filesystem::create_directories(spec_.output_dir);

  mr::JobResult result;
  const std::uint64_t job_start = monotonic_ns();

  // Registration records each worker's clock_sync, so the driver's
  // trace buffer comes first. It is memory, not a thread: fork before
  // any coordinator thread exists, so the children are single-threaded
  // clones.
  if (spec_.trace.enabled) {
    collector_ = std::make_unique<obs::TraceCollector>(spec_.trace);
    collector_->set_job_name(spec_.name);
    driver_trace_ =
        collector_->make_buffer(obs::kDriverPid, 0, "coordinator", "driver");
  }
  worker_traces_.assign(config_.num_workers, obs::TraceData{});
  spawn_workers();

  try {
    // ---- map phase ------------------------------------------------------
    obs::SpanTimer map_span(driver_trace_, "phase", "map_phase");
    const std::uint64_t map_start = monotonic_ns();
    const std::uint32_t num_map_tasks =
        static_cast<std::uint32_t>(spec_.inputs.size());
    map_results_.assign(num_map_tasks, mr::MapTaskResult{});
    map_output_sources_.assign(num_map_tasks, Endpoint{});
    run_phase(TaskKind::kMap, num_map_tasks);
    map_span.done();
    result.metrics.map_phase_wall_ns = monotonic_ns() - map_start;
    result.metrics.map_tasks = num_map_tasks;

    // Ordered by map task id — required for byte-identical reduce merges.
    map_outputs_.clear();
    map_outputs_.reserve(num_map_tasks);
    for (auto& task_result : map_results_) {
      map_outputs_.push_back(task_result.output);
      mr::fold_map_result(task_result, result);
    }

    // ---- reduce phase ---------------------------------------------------
    obs::SpanTimer reduce_span(driver_trace_, "phase", "reduce_phase");
    const std::uint64_t reduce_start = monotonic_ns();
    reduce_results_.assign(spec_.num_reducers, mr::ReduceTaskResult{});
    run_phase(TaskKind::kReduce, spec_.num_reducers);
    reduce_span.done();
    result.metrics.reduce_phase_wall_ns = monotonic_ns() - reduce_start;
    result.metrics.reduce_tasks = spec_.num_reducers;
  } catch (...) {
    kill_and_reap_all();
    throw;
  }

  for (auto& reduce_result : reduce_results_) {
    mr::fold_reduce_result(reduce_result, result);
  }
  mr::note_partition_bytes(result, driver_trace_);
  result.metrics.task_attempts = task_attempts_;
  result.metrics.tasks_retried = tasks_retried_;
  result.counters.increment("cluster.speculative_attempts",
                            speculative_attempts_);

  shutdown_workers();

  if (!spec_.keep_intermediates) {
    for (const auto& run : map_outputs_) {
      std::error_code ec;
      std::filesystem::remove(run.path, ec);
    }
  }

  result.metrics.job_wall_ns = monotonic_ns() - job_start;

  // Fold each worker's telemetry into the job result. A worker that died
  // before its final chunk (SIGKILL, crash) keeps the counts of the
  // frames it did ship plus a telemetry_incomplete flag — partial
  // telemetry is reported, never a job failure.
  for (auto& worker : workers_) {
    mr::WorkerTelemetry telemetry = std::move(worker.stats);
    telemetry.worker_id = worker.id;
    telemetry.telemetry_complete = worker.got_final_telemetry;
    if (!worker.got_final_telemetry) {
      result.metrics.telemetry_incomplete = true;
    }
    result.metrics.workers.push_back(std::move(telemetry));
  }

  if (collector_ != nullptr) {
    result.trace = collector_->finish();
    for (std::size_t w = 0; w < worker_traces_.size(); ++w) {
      // Rebase onto the coordinator clock before merging so one merged
      // file holds a single consistent timeline.
      obs::rebase_trace(worker_traces_[w], workers_[w].clock_offset_ns);
      obs::merge_trace(result.trace, std::move(worker_traces_[w]));
    }
    worker_traces_.clear();
    result.trace.incomplete =
        result.trace.incomplete || result.metrics.telemetry_incomplete;
    result.metrics.trace_ring_dropped = result.trace.dropped_events;
  }
  return result;
}

}  // namespace

ClusterEngine::ClusterEngine(ClusterConfig config)
    : config_(std::move(config)), tcp_(config_.listen, config_.io_timeout_ms) {}

mr::JobResult ClusterEngine::run(const mr::JobSpec& spec) {
  Coordinator coordinator(spec, config_, tcp_);
  return coordinator.run();
}

}  // namespace textmr::cluster
