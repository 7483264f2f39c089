#pragma once

#include <cstdint>
#include <functional>

#include "cluster/straggler.hpp"
#include "cluster/transport.hpp"
#include "common/clock.hpp"
#include "mr/job.hpp"

namespace textmr::cluster {

/// Only kTcp; goes with ClusterConfig::transport (ROADMAP item 4).
enum class TransportKind : std::uint8_t { kTcp };

/// Cluster-execution knobs, orthogonal to the JobSpec (which describes
/// the computation; this describes the machinery running it).
struct ClusterConfig {
  /// Worker processes. Each models one shared-nothing node with one
  /// task slot; map_parallelism/reduce_parallelism in the JobSpec are
  /// ignored by this engine (parallelism = workers).
  std::uint32_t num_workers = 2;

  /// Unread; the benchmark still assigns it. ROADMAP item 4 deletes it.
  TransportKind transport = TransportKind::kTcp;

  /// TCP listener for worker channels (DESIGN.md §14). Port 0 = kernel
  /// assigned; give a fixed port when external workers must find it.
  Endpoint listen;

  /// Of num_workers, how many join externally (`textmr_cli worker
  /// --connect`) instead of being forked.
  std::uint32_t external_workers = 0;

  /// How long spawn waits for each external worker to dial in.
  std::int32_t accept_timeout_ms = 30000;

  /// Per-frame send/recv budget on coordinator↔worker channels;
  /// -1 = no limit (fine for forked workers: a local peer either
  /// responds or its sockets close when it dies).
  std::int32_t io_timeout_ms = -1;

  /// Coordinator-side liveness: a worker silent longer than this (no
  /// frames, heartbeats included) is declared dead. 0 disables — right
  /// for forked workers (the kernel closes a dead process's sockets, so
  /// EOF detection is reliable) and required by the heartbeat-stall
  /// failpoint tests; multi-host setups should arm it (a powered-off
  /// peer never EOFs).
  std::uint32_t liveness_timeout_ms = 0;

  /// Worker-side mirror of the same: exit when the coordinator sends
  /// nothing for this long while the worker is idle. 0 = wait forever.
  std::uint32_t worker_idle_timeout_ms = 0;

  /// Must stay true, or run() throws ConfigError. ROADMAP item 4 deletes it.
  bool network_shuffle = true;

  /// Clock injected into the liveness tracker (ManualClock in tests).
  const common::Clock* clock = nullptr;

  /// Launch speculative duplicate attempts for straggling tasks
  /// (paper §II-A backup tasks). First finished attempt wins; the
  /// duplicate's output commits through the same tmp+rename path, so a
  /// lost race never corrupts output.
  bool speculation = true;

  std::uint32_t heartbeat_interval_ms = 25;
  StragglerPolicy straggler;

  /// How long shutdown waits for a worker to drain and exit before
  /// SIGKILLing it (a straggling duplicate attempt may still be running).
  std::uint64_t shutdown_grace_ms = 10000;

  /// Test seam: runs inside each child process right after fork, before
  /// any task executes — e.g. re-arm failpoints asymmetrically so only
  /// worker 0 is slow. Inherited armed failpoints stay armed in every
  /// worker otherwise.
  std::function<void(std::uint32_t worker_id)> worker_init;

  /// Test seam: observes spawned worker pids in the coordinator
  /// (SIGKILL-based fault injection). External workers report pid -1.
  std::function<void(std::uint32_t worker_id, int pid)> on_worker_spawn;
};

/// Multi-process shared-nothing MapReduce engine (DESIGN.md §10, §14):
/// runs `num_workers` workers — forked clones of the current process
/// and/or externally-started processes that dial in — over per-worker
/// checksummed TCP control channels, shuffles by pulling partitions
/// from per-worker shuffle servers (reading a run through the shared
/// filesystem only when its owner is gone), and recovers from worker
/// death and stragglers (heartbeats + speculative execution). Produces
/// byte-identical output to LocalEngine for deterministic applications
/// — the cross-engine differential battery enforces exactly that.
class ClusterEngine {
 public:
  explicit ClusterEngine(ClusterConfig config = {});

  /// Validates `spec`, runs the job across worker processes, returns
  /// outputs + metrics (+ the merged multi-process trace when enabled).
  /// Throws ConfigError for invalid specs or configs (before any
  /// fork) and TaskFailedError when a task exhausts max_task_attempts
  /// or every worker dies.
  mr::JobResult run(const mr::JobSpec& spec);

  /// The resolved listener address external workers connect to (valid
  /// as soon as the engine is constructed).
  const Endpoint& listen_endpoint() const { return tcp_.listen_endpoint(); }

 private:
  ClusterConfig config_;
  // Engine-scoped, not per-run, so callers can read the resolved port —
  // and point external workers at it — before run().
  TcpTransport tcp_;
};

}  // namespace textmr::cluster
