#pragma once

#include <atomic>
#include <cstdint>

#include "common/stopwatch.hpp"

namespace textmr::common {

/// Injectable time source. Components whose behaviour depends on elapsed
/// time (the spill buffer's produce/consume timing that feeds the
/// spill-matcher's eq. (1), the cluster coordinator's heartbeat-timeout /
/// straggler math) take a `const Clock*` instead of calling
/// monotonic_ns() directly, so tests drive them with a ManualClock and
/// assert exact thresholds instead of sleeping.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::uint64_t now_ns() const = 0;
};

/// The real monotonic clock (CLOCK_MONOTONIC via std::chrono).
class SystemClock final : public Clock {
 public:
  std::uint64_t now_ns() const override { return monotonic_ns(); }
};

/// Process-wide SystemClock instance — the default everywhere a Clock is
/// optional.
const Clock& system_clock();

/// Test clock: time moves only when the test says so. Thread-safe, so a
/// test can advance it while the component under test reads it from
/// another thread.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::uint64_t start_ns = 0) : now_ns_(start_ns) {}

  std::uint64_t now_ns() const override {
    return now_ns_.load(std::memory_order_acquire);
  }

  void advance_ns(std::uint64_t delta_ns) {
    now_ns_.fetch_add(delta_ns, std::memory_order_acq_rel);
  }
  void advance_ms(std::uint64_t delta_ms) { advance_ns(delta_ms * 1000000); }

 private:
  std::atomic<std::uint64_t> now_ns_;
};

}  // namespace textmr::common
