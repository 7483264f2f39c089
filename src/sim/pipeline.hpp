#pragma once

#include <cstdint>

namespace textmr::sim {

struct PipelineConfig {
  double produce_rate = 0.0;   // buffer bytes per second the map thread emits
  double consume_rate = 0.0;   // buffer bytes per second the support thread drains
  double total_bytes = 0.0;    // bytes that flow through the buffer
  double buffer_bytes = 0.0;   // M
  double threshold = 0.8;      // x (the first region's under the matcher)
  bool use_spill_matcher = false;
};

struct PipelineResult {
  double wall_s = 0.0;          // from first byte produced to last byte consumed
  double map_idle_s = 0.0;      // map thread blocked on a full buffer
  double support_idle_s = 0.0;  // support thread waiting for a sealed spill
  std::uint64_t spills = 0;
  double final_threshold = 0.8;
};

/// Simulates the map-task produce/consume pipeline of paper §IV-C exactly:
/// the map thread fills a circular buffer of M bytes at rate p; a region
/// is sealed when it reaches x·M *and* the support thread is free (so
/// regions grow while the previous spill is in flight, reproducing
///   m_i = max{ xM, min{ (p/c)·m_{i-1}, M − m_{i-1} } } );
/// a full buffer blocks the map thread and forces a seal on release.
/// Under the matcher the threshold is recomputed per spill from the last
/// spill's (T_p, T_c) by spillmatch::next_threshold, the rule the real
/// map task applies: eq. (1), x = max{T_p/(T_p+T_c), 1/2}, capped.
///
/// All quantities are continuous (fluid model): with per-record sizes
/// orders of magnitude below M, the discrete effects are negligible, and
/// the fluid recurrence is the one the paper derives.
PipelineResult simulate_map_pipeline(const PipelineConfig& config);

}  // namespace textmr::sim
