#include "sim/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "spillmatch/spill_matcher.hpp"

namespace textmr::sim {

PipelineResult simulate_map_pipeline(const PipelineConfig& config) {
  PipelineResult result;
  result.final_threshold = config.threshold;
  if (config.total_bytes <= 0.0) return result;
  TEXTMR_CHECK(config.produce_rate > 0.0 && config.consume_rate > 0.0,
               "pipeline rates must be positive");
  TEXTMR_CHECK(config.buffer_bytes > 0.0, "pipeline needs a buffer");

  const double p = config.produce_rate;
  const double c = config.consume_rate;
  const double M = config.buffer_bytes;
  double x = std::clamp(config.threshold, 0.01, 0.99);

  double t = 0.0;         // map thread clock at the start of the region
  double sup_free = 0.0;  // support thread busy until here (>= t always)
  double backlog = 0.0;   // bytes of the in-flight spill (freed at sup_free)
  double remaining = config.total_bytes;

  // Mirrors the real SpillBuffer's rules exactly, in fluid form:
  //  * the producer keeps appending to the open region until it is sealed;
  //  * while a spill is in flight, only cap = M − backlog bytes fit, and a
  //    full ring blocks the producer until the release at sup_free;
  //  * a region is sealed when it has reached x·M *and* the consumer is
  //    free (so regions overshoot the threshold while the consumer is
  //    busy — the paper's m_i = max{xM, min{(p/c)m_{i-1}, M − m_{i-1}}});
  //  * end of input seals whatever exists (close()).
  for (std::uint64_t iter = 0; remaining > 0.0 && iter < 100'000'000; ++iter) {
    const double cap = M - backlog;
    const double target = x * M;
    const double unblocked = p * (sup_free - t);  // if never capped
    const double region_at_sup_free =
        std::min(std::max(unblocked, 0.0), cap);

    double m;
    double seal_t;
    double consume_start;

    if (remaining <= region_at_sup_free) {
      // Input ends while the consumer is still busy; the final region
      // (<= cap, so never blocked) waits in the queue.
      m = remaining;
      seal_t = t + m / p;
      consume_start = sup_free;
    } else if (region_at_sup_free >= target) {
      // The region passed the threshold while the consumer was busy; it
      // is sealed the instant the consumer frees up. If the ring filled
      // first, the producer blocked for the remainder of that window.
      m = region_at_sup_free;
      if (unblocked > cap) {
        result.map_idle_s += sup_free - (t + cap / p);
      }
      seal_t = sup_free;
      consume_start = sup_free;
    } else {
      // The region is still short of the threshold when the consumer
      // frees (or the consumer is already idle): production continues —
      // after a possible blocked stretch if the ring filled — until the
      // threshold or the end of input, and the consumer waits.
      m = std::min(target, remaining);
      if (unblocked > cap) {
        // Ring filled before sup_free: idle, then resume at sup_free.
        result.map_idle_s += sup_free - (t + cap / p);
        seal_t = sup_free + (m - cap) / p;
      } else {
        seal_t = t + m / p;
      }
      result.support_idle_s += std::max(0.0, seal_t - sup_free);
      consume_start = seal_t;
    }

    const double t_p = m / p;  // active production time (blocks excluded)
    const double t_c = m / c;
    sup_free = consume_start + t_c;
    remaining -= m;
    backlog = m;
    t = seal_t;
    result.spills += 1;

    if (config.use_spill_matcher) x = spillmatch::next_threshold(t_p, t_c);
  }

  result.wall_s = sup_free;
  result.final_threshold = x;
  return result;
}

}  // namespace textmr::sim
