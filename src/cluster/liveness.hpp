#pragma once

/// Coordinator-side worker liveness tracking (DESIGN.md §14).
///
/// A dead forked worker is unmissable: the kernel closes its sockets and
/// the coordinator reads EOF immediately. A remote peer that loses power
/// (or sits behind a dropped route) just goes silent — the coordinator's
/// poll loop would wait forever. The LivenessTracker turns silence into
/// worker death: every frame refreshes the worker's deadline, and the
/// bare kHeartbeat frame a worker sends every interval exists for this
/// and for the straggler detector's staleness path; `expired()` reports
/// workers whose deadline passed.
///
/// Single-threaded by design: only the coordinator poll loop touches it,
/// so there is no lock. The Clock injection makes the timeout math
/// deterministic under test (ManualClock).

#include <cstdint>
#include <unordered_map>

#include "common/clock.hpp"

namespace textmr::cluster {

class LivenessTracker {
 public:
  /// `timeout_ms == 0` disables tracking entirely (the default — EOF
  /// detection is already reliable for forked workers, and the
  /// heartbeat-stall failpoint tests depend on silence not being fatal).
  explicit LivenessTracker(std::uint32_t timeout_ms,
                           const common::Clock* clock = nullptr)
      : timeout_ms_(timeout_ms),
        clock_(clock != nullptr ? clock : &common::system_clock()) {}

  bool enabled() const { return timeout_ms_ != 0; }

  /// Records that `worker_id` showed signs of life (any received frame).
  void note_activity(std::uint32_t worker_id) {
    if (!enabled()) return;
    last_seen_ns_[worker_id] = clock_->now_ns();
  }

  /// True when `worker_id` has been silent past the timeout. Workers
  /// never seen are not expired (spawn order vs first heartbeat is
  /// racy); call note_activity() at registration to arm the deadline.
  bool expired(std::uint32_t worker_id) const {
    if (!enabled()) return false;
    const auto it = last_seen_ns_.find(worker_id);
    if (it == last_seen_ns_.end()) return false;
    const std::uint64_t silence = clock_->now_ns() - it->second;
    return silence > static_cast<std::uint64_t>(timeout_ms_) * 1000000ull;
  }

  /// Stops tracking a worker that died for a known reason.
  void forget(std::uint32_t worker_id) { last_seen_ns_.erase(worker_id); }

 private:
  std::uint32_t timeout_ms_;
  const common::Clock* clock_;
  std::unordered_map<std::uint32_t, std::uint64_t> last_seen_ns_;
};

}  // namespace textmr::cluster
