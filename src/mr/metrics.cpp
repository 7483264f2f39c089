#include "mr/metrics.hpp"

namespace textmr::mr {

const char* op_name(Op op) {
  switch (op) {
    case Op::kMapRead: return "map_read";
    case Op::kMapUser: return "map_user";
    case Op::kEmit: return "emit";
    case Op::kProfile: return "profile";
    case Op::kFreqTable: return "freq_table";
    case Op::kSort: return "sort";
    case Op::kCombine: return "combine";
    case Op::kSpillWrite: return "spill_write";
    case Op::kMerge: return "merge";
    case Op::kMergeCombine: return "merge_combine";
    case Op::kShuffle: return "shuffle";
    case Op::kReduceMerge: return "reduce_merge";
    case Op::kReduceUser: return "reduce_user";
    case Op::kOutputWrite: return "output_write";
    case Op::kMapIdle: return "map_idle";
    case Op::kSupportIdle: return "support_idle";
    case Op::kNumOps: break;
  }
  return "unknown";
}

TaskMetrics& TaskMetrics::operator+=(const TaskMetrics& other) {
  for (std::size_t i = 0; i < kNumOps; ++i) ns[i] += other.ns[i];
  for (const VolumeCounter& counter : kVolumeCounters) {
    this->*counter.member += other.*counter.member;
  }
  return *this;
}

std::uint64_t TaskMetrics::total_ns(bool include_idle) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    if (!include_idle && (op == Op::kMapIdle || op == Op::kSupportIdle)) {
      continue;
    }
    total += ns[i];
  }
  return total;
}

void OpSampler::split(std::uint64_t ns, TaskMetrics& metrics) const {
  std::uint64_t total = 0;
  std::size_t last = kNumOps;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    total += sampled_[i];
    if (sampled_[i] != 0) last = i;
  }
  if (total == 0) return;
  std::uint64_t given = 0;
  for (std::size_t i = 0; i < last; ++i) {
    const auto part = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(ns) * sampled_[i] / total);
    metrics.ns[i] += part;
    given += part;
  }
  metrics.ns[last] += ns - given;
}

std::uint64_t OpSampler::scale(std::uint64_t sampled_ns,
                               std::uint64_t sampled_count,
                               std::uint64_t exact_count) {
  if (sampled_count == 0) return 0;
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(sampled_ns) * exact_count /
      sampled_count);
}

std::uint64_t TaskMetrics::user_ns() const {
  return op_ns(Op::kMapUser) + op_ns(Op::kCombine) +
         op_ns(Op::kMergeCombine) + op_ns(Op::kReduceUser);
}

std::uint64_t TaskMetrics::abstraction_ns(bool include_idle) const {
  return total_ns(include_idle) - user_ns();
}

}  // namespace textmr::mr
