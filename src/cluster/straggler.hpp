#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "cluster/protocol.hpp"
#include "common/clock.hpp"

namespace textmr::cluster {

/// Straggler policy knobs. A running attempt is flagged when either
///   - its worker's last heartbeat is older than `heartbeat_timeout_ms`
///     (the worker is alive on the channel but not making its beats —
///     e.g. stalled in I/O), or
///   - at least `min_completed_for_median` sibling tasks of the same kind
///     have finished, and the attempt's runtime exceeds
///     `slowness_factor` x the median completed duration.
struct StragglerPolicy {
  std::uint64_t heartbeat_timeout_ms = 1000;
  double slowness_factor = 4.0;
  std::uint32_t min_completed_for_median = 2;
};

/// Tracks running task attempts for the coordinator and decides which
/// deserve a speculative duplicate (paper §II-A's backup-task mechanism,
/// DESIGN.md §10). Pure bookkeeping over an injected Clock — no threads,
/// no syscalls — so the threshold arithmetic is testable with a
/// common::ManualClock.
class StragglerDetector {
 public:
  struct Attempt {
    TaskKind kind = TaskKind::kNone;
    std::uint32_t id = 0;
    std::uint32_t attempt = 0;
  };

  explicit StragglerDetector(StragglerPolicy policy,
                             const common::Clock* clock = nullptr);

  /// A new attempt started now.
  void on_dispatch(TaskKind kind, std::uint32_t id, std::uint32_t attempt);

  /// A heartbeat from the worker the coordinator dispatched the attempt
  /// to (refreshes its staleness clock).
  void on_beat(TaskKind kind, std::uint32_t id, std::uint32_t attempt);

  /// The attempt finished (any outcome); returns its runtime. A
  /// successful finish should also be fed to note_completed() so the
  /// median reflects it.
  std::uint64_t on_finish(TaskKind kind, std::uint32_t id,
                          std::uint32_t attempt);

  /// Records the duration of a successfully completed task, feeding the
  /// slowness baseline.
  void note_completed(TaskKind kind, std::uint64_t duration_ns);

  /// Attempts that currently qualify as stragglers. Each attempt is
  /// reported at most once (the flag is latched), so the coordinator
  /// launches at most one speculative duplicate per flagged attempt.
  std::vector<Attempt> take_stragglers();

  /// Median completed duration for `kind`; 0 until any completion.
  std::uint64_t median_duration_ns(TaskKind kind) const;

  std::size_t running() const { return running_.size(); }

 private:
  struct Running {
    std::uint64_t started_ns = 0;
    std::uint64_t last_beat_ns = 0;
    bool flagged = false;
  };
  using Key = std::tuple<std::uint8_t, std::uint32_t, std::uint32_t>;

  StragglerPolicy policy_;
  const common::Clock* clock_;
  std::map<Key, Running> running_;
  std::vector<std::uint64_t> completed_map_ns_;
  std::vector<std::uint64_t> completed_reduce_ns_;
};

}  // namespace textmr::cluster
