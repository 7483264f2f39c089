#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "io/record.hpp"
#include "io/spill_file.hpp"
#include "mr/metrics.hpp"
#include "mr/record_arena.hpp"
#include "mr/types.hpp"

namespace textmr::mr {

/// One sorted run held in memory: the raw framed bytes of one partition
/// from a single bulk read (SpillRunReader::read_partition or a shuffle
/// fetch), plus RecordRefs indexing them by offset (index_frames). The
/// records are never copied out of `bytes` (DESIGN.md §8). Every merge
/// input, map side and reduce side, has this shape.
struct FetchedRun {
  std::string bytes;
  std::vector<RecordRef> refs;
};

/// K-way merge of sorted in-memory runs into one key-ordered stream.
/// Stability across runs follows run index, which callers arrange to be
/// deterministic (spill sequence / map task id). The runs are borrowed:
/// they must outlive the stream and stay unmodified, and every view the
/// stream hands out stays valid as long as they do.
class MergeStream {
 public:
  explicit MergeStream(std::span<const FetchedRun> runs);

  /// Next record in global key order, or nullopt at the end.
  std::optional<io::RecordView> next();

 private:
  /// The unread rest of one run.
  struct Input {
    FrameStore frames;
    const RecordRef* next;
    const RecordRef* end;

    /// The run's next record, or nullopt once it is used up.
    std::optional<io::RecordView> take() {
      if (next == end) return std::nullopt;
      const Frame frame = frames.frame(*next++);
      return io::RecordView{frame.key, frame.value};
    }
  };
  struct Head {
    io::RecordView record;
    std::size_t input;
  };
  // `heap_` is a binary min-heap on (key, input index).
  bool less(const Head& a, const Head& b) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Input> inputs_;
  std::vector<Head> heap_;
};

/// Iterates a MergeStream one key group at a time. The group's values are
/// streamed (never materialized), and keys and values are passed through
/// as the stream's views with no per-record copies.
class KeyGroups {
 public:
  explicit KeyGroups(MergeStream& stream) : stream_(stream) {}

  /// Advances to the next key group (draining any unconsumed values of
  /// the previous group). Returns the key, or nullopt at end of stream.
  std::optional<std::string_view> next_group();

  /// Value stream of the current group. Valid until next_group().
  ValueStream& values() TEXTMR_LIFETIME_BOUND { return value_stream_; }

 private:
  class GroupValueStream final : public ValueStream {
   public:
    explicit GroupValueStream(KeyGroups& owner) : owner_(owner) {}
    std::optional<std::string_view> next() override;

   private:
    KeyGroups& owner_;
  };

  MergeStream& stream_;
  GroupValueStream value_stream_{*this};
  std::string_view current_key_;
  std::optional<std::string_view> first_value_;  // not yet handed out
  std::optional<io::RecordView> lookahead_;      // first record of next group
  bool group_exhausted_ = true;
};

/// Map-side final merge: merges `runs` partition by partition, applying
/// the combiner once per key group, into a single output run file. Each
/// run file is opened once; for each partition every run's extent is
/// loaded whole (read_partition + index_frames), so the merge holds one
/// partition of the task's runs at a time.
/// Timing: structural work (reads included) to Op::kMerge, user combine
/// to Op::kMergeCombine.
/// `format` is a shim:
/// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
io::SpillRunInfo merge_runs(const std::vector<io::SpillRunInfo>& runs,
                            Reducer* combiner, std::string_view out_path,
                            std::uint32_t num_partitions,
                            io::SpillFormat format, TaskMetrics& metrics);

}  // namespace textmr::mr
