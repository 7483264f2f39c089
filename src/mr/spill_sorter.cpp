#include "mr/spill_sorter.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/stopwatch.hpp"

namespace textmr::mr {
namespace {

/// ValueStream over a run [begin, end) of sorted RecordRefs sharing a key.
class RefValueStream final : public ValueStream {
 public:
  RefValueStream(const FrameStore& frames, const RecordRef* begin,
                 const RecordRef* end)
      : frames_(frames), it_(begin), end_(end) {}

  std::optional<std::string_view> next() override {
    if (it_ == end_) return std::nullopt;
    return frames_.frame(*it_++).value;
  }

 private:
  const FrameStore& frames_;
  const RecordRef* it_;
  const RecordRef* end_;
};

}  // namespace

io::SpillRunInfo sort_and_spill(Spill& spill, Reducer* combiner,
                                std::string_view run_path,
                                std::uint32_t num_partitions,
                                io::SpillFormat /*format*/,
                                TaskMetrics& metrics,
                                obs::TraceBuffer* trace) {
  TEXTMR_FAILPOINT("support.sort");
  const FrameStore& frames = spill.frames;
  {
    obs::SpanTimer sort_span(trace, "spill", "spill_sort");
    sort_span.arg("records", static_cast<double>(spill.records.size()));
    ScopedTimer sort_timer(metrics, Op::kSort);
    sort_records(spill.records,
                 [&frames](const RecordRef& ref) { return frames.key(ref); });
  }

  obs::SpanTimer write_span(trace, "spill", "spill_write");

  // Records are framed in the ring exactly as in the run file, so
  // uncombined records are written as verbatim frame blits.
  io::SpillRunWriter writer(std::string(run_path), num_partitions);
  const std::uint64_t pass_start = monotonic_ns();
  std::uint64_t combine_ns = 0;

  const RecordRef* const data = spill.records.data();
  const std::size_t n = spill.records.size();
  std::size_t i = 0;
  while (i < n) {
    const Frame first = frames.frame(data[i]);
    std::size_t j = i + 1;
    if (combiner != nullptr) {
      while (j < n && data[j].partition == data[i].partition &&
             data[j].key_prefix == data[i].key_prefix &&
             frames.key(data[j]) == first.key) {
        ++j;
      }
    }
    if (j - i > 1) {
      const std::uint64_t c0 = monotonic_ns();
      RefValueStream values(frames, data + i, data + j);
      CombineToRunSink sink(writer, data[i].partition, first.key);
      combiner->reduce(first.key, values, sink);
      combine_ns += monotonic_ns() - c0;
    } else {
      writer.append_frame(data[i].partition, first.bytes);
    }
    i = j;
  }

  auto info = writer.finish();
  const std::uint64_t pass_ns = monotonic_ns() - pass_start;
  write_span.arg("records", static_cast<double>(info.records));
  write_span.arg("bytes", static_cast<double>(info.bytes));
  write_span.arg("combine_ms", static_cast<double>(combine_ns) * 1e-6);
  metrics.op_ns(Op::kCombine) += combine_ns;
  metrics.op_ns(Op::kSpillWrite) += pass_ns - std::min(pass_ns, combine_ns);
  metrics.spilled_records += info.records;
  metrics.spilled_bytes += info.bytes;
  metrics.spill_count += 1;
  return info;
}

}  // namespace textmr::mr
