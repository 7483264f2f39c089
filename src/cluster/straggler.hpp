#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace textmr::cluster {

/// Straggler policy knobs. A running attempt is flagged when either
///   - its worker has been silent longer than `heartbeat_timeout_ms`
///     (alive on the channel but not making its beats — e.g. stalled in
///     I/O), counting from the dispatch at the earliest, or
///   - at least `min_completed_for_median` sibling tasks of the same
///     phase have finished, and the attempt's runtime exceeds
///     `slowness_factor` x the median completed duration.
struct StragglerPolicy {
  std::uint64_t heartbeat_timeout_ms = 1000;
  double slowness_factor = 4.0;
  std::uint32_t min_completed_for_median = 2;
};

/// The straggler rule (paper §II-A's backup tasks, DESIGN.md §10) over
/// one attempt the coordinator dispatched at `dispatched_ns` to a worker
/// whose last frame arrived at `last_frame_ns`. `completed_ns` holds the
/// durations of the phase's completed tasks; the median is the upper one,
/// sorted[n/2].
inline bool is_straggler(const StragglerPolicy& policy, std::uint64_t now_ns,
                         std::uint64_t dispatched_ns,
                         std::uint64_t last_frame_ns,
                         const std::vector<std::uint64_t>& completed_ns) {
  const std::uint64_t heard_ns = std::max(dispatched_ns, last_frame_ns);
  if (now_ns - heard_ns > policy.heartbeat_timeout_ms * 1000000ull) {
    return true;
  }
  if (completed_ns.empty() ||
      completed_ns.size() < policy.min_completed_for_median) {
    return false;
  }
  std::vector<std::uint64_t> sorted = completed_ns;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t median = sorted[sorted.size() / 2];
  return median > 0 && static_cast<double>(now_ns - dispatched_ns) >
                           policy.slowness_factor * static_cast<double>(median);
}

}  // namespace textmr::cluster
