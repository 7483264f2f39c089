#include "cluster/straggler.hpp"

#include <algorithm>

namespace textmr::cluster {

namespace {

StragglerDetector::Attempt to_attempt(
    const std::tuple<std::uint8_t, std::uint32_t, std::uint32_t>& key) {
  StragglerDetector::Attempt a;
  a.kind = static_cast<TaskKind>(std::get<0>(key));
  a.id = std::get<1>(key);
  a.attempt = std::get<2>(key);
  return a;
}

}  // namespace

StragglerDetector::StragglerDetector(StragglerPolicy policy,
                                     const common::Clock* clock)
    : policy_(policy),
      clock_(clock != nullptr ? clock : &common::system_clock()) {}

void StragglerDetector::on_dispatch(TaskKind kind, std::uint32_t id,
                                    std::uint32_t attempt) {
  Running state;
  state.started_ns = clock_->now_ns();
  state.last_beat_ns = state.started_ns;
  running_[Key{static_cast<std::uint8_t>(kind), id, attempt}] = state;
}

void StragglerDetector::on_beat(TaskKind kind, std::uint32_t id,
                                std::uint32_t attempt) {
  auto it = running_.find(Key{static_cast<std::uint8_t>(kind), id, attempt});
  if (it == running_.end()) return;
  it->second.last_beat_ns = clock_->now_ns();
}

std::uint64_t StragglerDetector::on_finish(TaskKind kind, std::uint32_t id,
                                           std::uint32_t attempt) {
  auto it = running_.find(Key{static_cast<std::uint8_t>(kind), id, attempt});
  if (it == running_.end()) return 0;
  const std::uint64_t duration = clock_->now_ns() - it->second.started_ns;
  running_.erase(it);
  return duration;
}

void StragglerDetector::note_completed(TaskKind kind,
                                       std::uint64_t duration_ns) {
  auto& completed =
      kind == TaskKind::kMap ? completed_map_ns_ : completed_reduce_ns_;
  completed.push_back(duration_ns);
}

std::uint64_t StragglerDetector::median_duration_ns(TaskKind kind) const {
  const auto& completed =
      kind == TaskKind::kMap ? completed_map_ns_ : completed_reduce_ns_;
  if (completed.empty()) return 0;
  std::vector<std::uint64_t> sorted = completed;
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

std::vector<StragglerDetector::Attempt> StragglerDetector::take_stragglers() {
  const std::uint64_t now = clock_->now_ns();
  const std::uint64_t stale_ns = policy_.heartbeat_timeout_ms * 1000000ull;
  std::vector<Attempt> flagged;
  for (auto& [key, state] : running_) {
    if (state.flagged) continue;
    const TaskKind kind = static_cast<TaskKind>(std::get<0>(key));
    bool straggling = now - state.last_beat_ns > stale_ns;
    if (!straggling) {
      const auto& completed =
          kind == TaskKind::kMap ? completed_map_ns_ : completed_reduce_ns_;
      if (completed.size() >= policy_.min_completed_for_median) {
        const std::uint64_t median = median_duration_ns(kind);
        straggling =
            median > 0 &&
            static_cast<double>(now - state.started_ns) >
                policy_.slowness_factor * static_cast<double>(median);
      }
    }
    if (straggling) {
      state.flagged = true;
      flagged.push_back(to_attempt(key));
    }
  }
  return flagged;
}

}  // namespace textmr::cluster
