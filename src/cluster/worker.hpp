#pragma once

#include <cstdint>
#include <string>

#include "cluster/protocol.hpp"
#include "mr/job.hpp"

namespace textmr::cluster {

/// Options of one worker process. A forked worker inherits its JobSpec
/// through fork — the engine runs workers as forked clones of the
/// coordinator process, which is what lets JobSpec carry arbitrary
/// std::function factories without a serialization story (DESIGN.md
/// §10); an external worker (`textmr_cli worker --connect`) rebuilds the
/// same spec. Either way the worker id and the heartbeat cadence come
/// off the wire, in the coordinator's kWelcome.
struct WorkerOptions {
  /// Where the worker's ShuffleServer listens. Every worker serves its
  /// scratch dir and advertises the endpoint with kHello; reducers pull
  /// map output from it (DESIGN.md §14).
  std::string shuffle_host = "127.0.0.1";
  /// How long run_remote_worker waits for the coordinator to take its
  /// dial, and every worker for the kWelcome; -1 = no limit.
  std::int32_t connect_timeout_ms = 10000;
  /// Per-frame send/recv budget on the control channel; -1 = no limit.
  std::int32_t io_timeout_ms = 10000;
  /// Max silence between coordinator frames while idle before the
  /// worker concludes the coordinator is dead and exits; 0 = wait
  /// forever, as forked workers do (a dead coordinator's socket EOFs).
  std::uint32_t idle_timeout_ms = 0;
};

/// Runs one worker over its control channel `fd`, forked or external
/// alike. Reads the coordinator's kWelcome, which must be the first
/// frame, and answers with kHello before any other frame; then sends
/// heartbeats from a side thread, executes the map/reduce tasks the
/// coordinator dispatches, reports results or per-attempt failures, and
/// ships its trace. Throws IoError when no welcome arrives within
/// connect_timeout_ms and FormatError when the first frame is not a
/// valid welcome. Once welcomed it never throws: it returns the process
/// exit code (a broken channel means the coordinator died, and the
/// worker just exits). A forked caller must `_exit()` — a forked child
/// must not run the parent's atexit/static-destructor chain.
int worker_main(int fd, const mr::JobSpec& spec, const WorkerOptions& options);

/// Dials the coordinator and runs worker_main over the TCP channel.
/// Returns worker_main's exit code; throws ConfigError, before dialing,
/// unless io_timeout_ms is -1 or > 0, and IoError/FormatError if the
/// dial or the welcome fails.
int run_remote_worker(const Endpoint& coordinator, const mr::JobSpec& spec,
                      const WorkerOptions& options = {});

}  // namespace textmr::cluster
