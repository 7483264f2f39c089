#include "mr/merger.hpp"

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace textmr::mr {

MergeStream::MergeStream(std::vector<std::unique_ptr<RecordCursor>> cursors)
    : cursors_(std::move(cursors)) {
  heap_.reserve(cursors_.size());
  for (std::size_t i = 0; i < cursors_.size(); ++i) {
    if (!cursors_[i]->stable_views()) stable_views_ = false;
    if (auto record = cursors_[i]->next(); record.has_value()) {
      heap_.push_back(Head{*record, i});
      sift_up(heap_.size() - 1);
    }
  }
}

bool MergeStream::less(const Head& a, const Head& b) const {
  const int cmp = a.record.key.compare(b.record.key);
  if (cmp != 0) return cmp < 0;
  return a.cursor < b.cursor;
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
  if (pending_advance_.has_value()) {
    const std::size_t cursor = *pending_advance_;
    pending_advance_.reset();
    if (auto record = cursors_[cursor]->next(); record.has_value()) {
      heap_[0] = Head{*record, cursor};
      sift_down(0);
    } else {
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0);
    }
  }
  if (heap_.empty()) return std::nullopt;
  // Hand out the heap top; refill that cursor lazily on the next call so
  // the returned views stay valid in the meantime.
  pending_advance_ = heap_[0].cursor;
  return heap_[0].record;
}

std::optional<std::string_view> KeyGroups::next_group() {
  // Drain values the caller did not consume.
  while (!group_exhausted_) value_stream_.next();

  if (!lookahead_.has_value()) {
    if (stream_done_) return std::nullopt;
    lookahead_ = stream_.next();
    if (!lookahead_.has_value()) {
      stream_done_ = true;
      return std::nullopt;
    }
  }
  if (stable_) {
    // Stream views outlive the group: pass them through untouched.
    current_key_ = lookahead_->key;
    pending_value_ = lookahead_->value;
  } else {
    key_stash_.assign(lookahead_->key);
    value_stash_.assign(lookahead_->value);
    current_key_ = key_stash_;
    pending_value_ = value_stash_;
  }
  pending_value_ready_ = true;
  lookahead_.reset();
  group_exhausted_ = false;
  return current_key_;
}

std::optional<std::string_view>
KeyGroups::GroupValueStream::next() {
  KeyGroups& g = owner_;
  if (g.pending_value_ready_) {
    g.pending_value_ready_ = false;
    return g.pending_value_;
  }
  if (g.group_exhausted_) return std::nullopt;
  auto record = g.stream_.next();
  if (!record.has_value()) {
    g.stream_done_ = true;
    g.group_exhausted_ = true;
    return std::nullopt;
  }
  if (record->key != g.current_key_) {
    g.lookahead_ = record;  // first record of the next group
    g.group_exhausted_ = true;
    return std::nullopt;
  }
  if (g.stable_) return record->value;
  // Stash the value: the view from the merge stream is only valid until
  // the stream's next() call, and callers may hold it across one step.
  // assign() reuses the stash's capacity — no steady-state allocation.
  g.value_stash_.assign(record->value);
  g.pending_value_ = g.value_stash_;
  return g.pending_value_;
}

namespace {

class CombineToRunSink final : public EmitSink {
 public:
  CombineToRunSink(io::SpillRunWriter& writer, std::uint32_t partition,
                   std::string_view expected_key)
      : writer_(writer), partition_(partition), expected_key_(expected_key) {}

  void emit(std::string_view key, std::string_view value) override {
    TEXTMR_CHECK(key == expected_key_,
                 "combiner must be key-preserving (merge path)");
    writer_.append(partition_, key, value);
  }

 private:
  io::SpillRunWriter& writer_;
  std::uint32_t partition_;
  std::string_view expected_key_;
};

/// Counts values while forwarding, so single-value groups skip the
/// combiner without materializing anything. `first` must stay valid for
/// the stream's lifetime (the caller owns the backing scratch buffer).
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

  io::SpillRunWriter writer(std::string(out_path), num_partitions);
  // Scratch for the one-step lookahead below; hoisted so steady state
  // reuses capacity instead of allocating per key group.
  std::string first_scratch;
  std::string second_scratch;
  for (std::uint32_t partition = 0; partition < num_partitions; ++partition) {
    std::vector<std::unique_ptr<RecordCursor>> cursors;
    cursors.reserve(runs.size());
    for (const auto& run : runs) {
      io::SpillRunReader reader(run.path);
      cursors.push_back(
          std::make_unique<FileRunCursor>(reader.open(partition)));
    }
    MergeStream stream(std::move(cursors));
    KeyGroups groups(stream);
    while (auto key = groups.next_group()) {
      auto first = groups.values().next();
      TEXTMR_CHECK(first.has_value(), "empty key group in merge");
      // Stash before pulling the second value: group value views are only
      // valid until the next call.
      first_scratch.assign(*first);
      auto second = groups.values().next();
      if (!second.has_value() || combiner == nullptr) {
        writer.append(partition, *key, first_scratch);
        if (second.has_value()) writer.append(partition, *key, *second);
        while (auto value = groups.values().next()) {
          writer.append(partition, *key, *value);
        }
        continue;
      }
      // >= 2 values and a combiner: stream them through combine().
      const std::uint64_t c0 = monotonic_ns();
      second_scratch.assign(*second);
      SingleLookaheadStream tail(second_scratch, groups.values());
      SingleLookaheadStream values(first_scratch, tail);
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
