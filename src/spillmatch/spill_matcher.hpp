#pragma once

#include <algorithm>

namespace textmr::spillmatch {

/// The paper's closed form (§IV, eq. (1)): given produce rate p and
/// consume rate c, the largest spill threshold x that keeps the *slower*
/// of the map/support threads wait-free is
///
///     x = max{ c/(p+c), 1/2 }.
///
/// Rates are measured on the same spill, so with wall times T_p and T_c
/// (p = bytes/T_p, c = bytes/T_c) this is
///
///     x = max{ T_p/(T_p+T_c), 1/2 }.
///
/// Only the ratio matters, so the two times may be in any one unit (the
/// ring passes nanoseconds, the simulator seconds).
///
/// Derivation sketch (§IV-C): with buffer size M and recurrence
/// m_i = max{xM, min{(p/c)·m_{i-1}, M − m_{i-1}}}:
///   * p < c (map slower): the map thread never blocks iff the consumer's
///     backlog plus the fresh region fits, M ≥ (1 + p/c)·m, and with
///     m ≥ xM this forces x ≤ c/(p+c) (> 1/2 in this case);
///   * p > c (support slower): the support thread finds the next region
///     already at the threshold iff M − m ≥ xM, i.e. x ≤ 1/2.
inline double matched_threshold(double produce_time, double consume_time) {
  if (produce_time + consume_time <= 0.0) return 0.5;
  return std::max(produce_time / (produce_time + consume_time), 0.5);
}

/// Upper bound of the applied threshold: a spill whose consume time
/// rounds to zero would otherwise ask for x ≈ 1, leaving the next region
/// no room to grow while the previous spill is still in flight.
inline constexpr double kMaxMatchedThreshold = 0.95;

/// The spill-matcher (SpillOpt): the threshold for the next region, from
/// the spill just consumed. The paper's hypothesis is that adjacent
/// spills behave alike, so the last spill's T_p and T_c predict the next
/// one's. The map task's support thread applies it after each release,
/// and `sim::simulate_map_pipeline` after each simulated spill; both
/// start from the job's spill_threshold.
///
/// Observability: on a traced run (JobSpec::trace.enabled) the support
/// thread records each decision as a "threshold_update" instant carrying
/// the measured T_p/T_c and the chosen x, and the applied threshold
/// appears as the "spill_threshold" counter track — extract it with
/// obs::counter_series(trace, "spill_threshold") to plot the matcher's
/// trajectory.
inline double next_threshold(double produce_time, double consume_time) {
  return std::min(matched_threshold(produce_time, consume_time),
                  kMaxMatchedThreshold);
}

}  // namespace textmr::spillmatch
