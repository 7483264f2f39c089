#pragma once

#include <string_view>

#include "common/error.hpp"
#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/types.hpp"

namespace textmr::mr {

/// Sink appending combiner output to a run writer under a fixed
/// (partition, key); enforces the key-preserving combiner contract. The
/// combine-to-run sink of both sort_and_spill and merge_runs.
class CombineToRunSink final : public EmitSink {
 public:
  CombineToRunSink(io::SpillRunWriter& writer, std::uint32_t partition,
                   std::string_view expected_key)
      : writer_(writer), partition_(partition), expected_key_(expected_key) {}

  void emit(std::string_view key, std::string_view value) override {
    TEXTMR_CHECK(key == expected_key_, "combiner must be key-preserving");
    writer_.append(partition_, key, value);
  }

 private:
  io::SpillRunWriter& writer_;
  std::uint32_t partition_;
  std::string_view expected_key_;
};

/// Sorts one sealed spill by (partition, key), applies the combiner to
/// each key group, and writes the resulting sorted run. This is the
/// support thread's workload (paper §II-C2 / §IV-A): its cost is what the
/// spill-matcher balances against map-thread production.
///
/// Records stay in the ring throughout: sort_records permutes the
/// spill's 16-byte RecordRefs (a radix over partition and key prefix,
/// full keys read once only where prefixes tie), each key group's frames
/// are read back through `spill.frames`, and every uncombined record is
/// written as a verbatim frame blit — no per-record serialization
/// (DESIGN.md §8).
///
/// `combiner` may be null. `format` is a shim:
/// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
/// Returns the run info from the writer's `finish()`. Sort time goes to
/// Op::kSort, user combine time to Op::kCombine, and writing (including
/// framing) to Op::kSpillWrite.
/// `trace`, when non-null, receives spill_sort / spill_write spans (the
/// write span carries the embedded combine time as an argument).
io::SpillRunInfo sort_and_spill(Spill& spill, Reducer* combiner,
                                std::string_view run_path,
                                std::uint32_t num_partitions,
                                io::SpillFormat format, TaskMetrics& metrics,
                                obs::TraceBuffer* trace = nullptr);

}  // namespace textmr::mr
