#pragma once

#include <cstdint>
#include <string>

#include "cluster/protocol.hpp"
#include "mr/job.hpp"

namespace textmr::cluster {

/// One worker process's view of the cluster: the TCP control-channel fd
/// to the coordinator and its stable worker (node) id. The JobSpec is
/// inherited through fork — the engine runs workers as forked clones of
/// the coordinator process, which is what lets JobSpec carry arbitrary
/// std::function factories without a serialization story (DESIGN.md §10).
/// Externally-started workers (`textmr_cli worker --connect`) get the
/// same context from run_remote_worker after the welcome handshake.
struct WorkerContext {
  int fd = -1;
  std::uint32_t worker_id = 0;
  std::uint32_t heartbeat_interval_ms = 25;
  /// Where the worker's ShuffleServer listens. Every worker serves its
  /// scratch dir and advertises the endpoint with kHello; reducers pull
  /// map output from it (DESIGN.md §14).
  std::string shuffle_host = "127.0.0.1";
  /// Per-frame send/recv budget on the control channel; -1 = no limit
  /// (the forked-worker default — the peer is a local process).
  std::int32_t io_timeout_ms = -1;
  /// Max silence between coordinator frames while idle before the
  /// worker concludes the coordinator is dead and exits; 0 = wait
  /// forever, as forked workers do (a dead coordinator's socket EOFs).
  /// An external worker takes it from RemoteWorkerOptions.
  std::uint32_t idle_timeout_ms = 0;
};

/// Worker main loop: sends heartbeats from a side thread, executes
/// map/reduce tasks the coordinator dispatches, reports results or
/// per-attempt failures, uploads its trace on shutdown. Returns the
/// process exit code; never throws (a broken channel means the
/// coordinator died, and the worker just exits). A forked caller must
/// `_exit()` with the returned code — a forked child must not run the
/// parent's atexit/static-destructor chain.
int worker_main(const WorkerContext& ctx, const mr::JobSpec& spec);

/// Options for an externally-started worker process.
struct RemoteWorkerOptions {
  std::string shuffle_host = "127.0.0.1";
  std::int32_t connect_timeout_ms = 10000;
  std::int32_t io_timeout_ms = 10000;
  std::uint32_t idle_timeout_ms = 0;
};

/// Dials the coordinator, performs the kWelcome handshake (which
/// assigns the worker id), then runs worker_main over the TCP channel.
/// Returns worker_main's exit code; throws IoError/FormatError if the
/// handshake itself fails.
int run_remote_worker(const Endpoint& coordinator, const mr::JobSpec& spec,
                      const RemoteWorkerOptions& options = {});

}  // namespace textmr::cluster
