#include "mr/merger.hpp"

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "mr/spill_sorter.hpp"

namespace textmr::mr {

MergeStream::MergeStream(std::span<const FetchedRun> runs) {
  inputs_.reserve(runs.size());
  heap_.reserve(runs.size());
  for (const FetchedRun& run : runs) {
    Input& input = inputs_.emplace_back(Input{
        FrameStore{run.bytes}, run.refs.data(),
        run.refs.data() + run.refs.size()});
    if (auto record = input.take(); record.has_value()) {
      heap_.push_back(Head{*record, inputs_.size() - 1});
      sift_up(heap_.size() - 1);
    }
  }
}

bool MergeStream::less(const Head& a, const Head& b) const {
  const int cmp = a.record.key.compare(b.record.key);
  if (cmp != 0) return cmp < 0;
  return a.input < b.input;
}

void MergeStream::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void MergeStream::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = i;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    if (left < n && less(heap_[left], heap_[smallest])) smallest = left;
    if (right < n && less(heap_[right], heap_[smallest])) smallest = right;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

std::optional<io::RecordView> MergeStream::next() {
  if (heap_.empty()) return std::nullopt;
  // The top's view stays valid across the refill: it points into a run.
  const io::RecordView top = heap_[0].record;
  if (auto record = inputs_[heap_[0].input].take(); record.has_value()) {
    heap_[0].record = *record;
  } else {
    heap_[0] = heap_.back();
    heap_.pop_back();
  }
  if (!heap_.empty()) sift_down(0);
  return top;
}

std::optional<std::string_view> KeyGroups::next_group() {
  // Drain values the caller did not consume.
  while (!group_exhausted_) value_stream_.next();

  if (!lookahead_.has_value()) lookahead_ = stream_.next();
  if (!lookahead_.has_value()) return std::nullopt;
  current_key_ = lookahead_->key;
  first_value_ = lookahead_->value;
  lookahead_.reset();
  group_exhausted_ = false;
  return current_key_;
}

std::optional<std::string_view> KeyGroups::GroupValueStream::next() {
  KeyGroups& g = owner_;
  if (g.first_value_.has_value()) {
    const std::string_view value = *g.first_value_;
    g.first_value_.reset();
    return value;
  }
  if (g.group_exhausted_) return std::nullopt;
  auto record = g.stream_.next();
  if (!record.has_value() || record->key != g.current_key_) {
    g.lookahead_ = record;  // first record of the next group, if any
    g.group_exhausted_ = true;
    return std::nullopt;
  }
  return record->value;
}

namespace {

/// Hands out `first`, then the rest of `rest`: gives the combiner back
/// the values merge_runs pulled to tell a single-value group apart.
class SingleLookaheadStream final : public ValueStream {
 public:
  SingleLookaheadStream(std::string_view first, ValueStream& rest)
      : first_(first), rest_(rest) {}

  std::optional<std::string_view> next() override {
    if (!first_given_) {
      first_given_ = true;
      return first_;
    }
    return rest_.next();
  }

 private:
  std::string_view first_;
  bool first_given_ = false;
  ValueStream& rest_;
};

}  // namespace

io::SpillRunInfo merge_runs(const std::vector<io::SpillRunInfo>& runs,
                            Reducer* combiner, std::string_view out_path,
                            std::uint32_t num_partitions,
                            io::SpillFormat /*format*/,
                            TaskMetrics& metrics) {
  const std::uint64_t merge_start = monotonic_ns();
  std::uint64_t combine_ns = 0;

  std::vector<io::SpillRunReader> readers;
  readers.reserve(runs.size());
  for (const auto& run : runs) readers.emplace_back(run.path);
  io::SpillRunWriter writer(std::string(out_path), num_partitions);
  for (std::uint32_t partition = 0; partition < num_partitions; ++partition) {
    // The stream reads these bytes in place: `loaded` is left untouched
    // until the partition's merge ends.
    std::vector<FetchedRun> loaded(readers.size());
    for (std::size_t i = 0; i < readers.size(); ++i) {
      loaded[i].bytes = readers[i].read_partition(partition);
      loaded[i].refs = index_frames(loaded[i].bytes, partition);
    }
    MergeStream stream(loaded);
    KeyGroups groups(stream);
    while (auto key = groups.next_group()) {
      auto first = groups.values().next();
      TEXTMR_CHECK(first.has_value(), "empty key group in merge");
      auto second = groups.values().next();
      if (!second.has_value() || combiner == nullptr) {
        writer.append(partition, *key, *first);
        if (second.has_value()) writer.append(partition, *key, *second);
        while (auto value = groups.values().next()) {
          writer.append(partition, *key, *value);
        }
        continue;
      }
      // >= 2 values and a combiner: stream them through combine().
      const std::uint64_t c0 = monotonic_ns();
      SingleLookaheadStream tail(*second, groups.values());
      SingleLookaheadStream values(*first, tail);
      CombineToRunSink sink(writer, partition, *key);
      combiner->reduce(*key, values, sink);
      combine_ns += monotonic_ns() - c0;
    }
  }
  auto info = writer.finish();
  const std::uint64_t total_ns = monotonic_ns() - merge_start;
  metrics.op_ns(Op::kMergeCombine) += combine_ns;
  metrics.op_ns(Op::kMerge) += total_ns - std::min(total_ns, combine_ns);
  metrics.merged_records += info.records;
  metrics.merged_bytes += info.bytes;
  return info;
}

}  // namespace textmr::mr
