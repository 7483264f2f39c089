#pragma once

#include <memory>
#include <optional>
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

/// Minimal sorted-record source abstraction, so the k-way merge works the
/// same over spill-run files (map-side merge), fetched in-memory runs
/// (reduce-side merge) and test fixtures.
class RecordCursor {
 public:
  virtual ~RecordCursor() = default;
  /// Next record in key order; the view is valid until the next call on
  /// this cursor (longer if stable_views()).
  virtual std::optional<io::RecordView> next() = 0;
  /// True when every view this cursor hands out stays valid until the
  /// cursor is destroyed (records live in caller-owned memory, not in a
  /// reused read buffer). Downstream stages use this to skip defensive
  /// copies: KeyGroups over an all-stable merge holds raw views instead
  /// of stashing each key/value into owned strings.
  virtual bool stable_views() const { return false; }
};

/// Cursor over one partition of a spill-run file. Views point into the
/// cursor's read buffer and are invalidated by the next read — not stable.
class FileRunCursor final : public RecordCursor {
 public:
  explicit FileRunCursor(io::RunCursor cursor) : cursor_(std::move(cursor)) {}
  std::optional<io::RecordView> next() TEXTMR_LIFETIME_BOUND override {
    return cursor_.next();
  }
  std::uint64_t bytes_read() const { return cursor_.bytes_read(); }

 private:
  io::RunCursor cursor_;
};

/// Cursor over a sorted in-memory vector of records (test fixtures,
/// pre-materialized runs). The records outlive the cursor, so views are
/// stable.
class VectorRunCursor final : public RecordCursor {
 public:
  explicit VectorRunCursor(const std::vector<io::Record>* records)
      : records_(records) {}
  std::optional<io::RecordView> next() override {
    if (index_ >= records_->size()) return std::nullopt;
    const auto& r = (*records_)[index_++];
    return io::RecordView{r.key, r.value};
  }
  bool stable_views() const override { return true; }

 private:
  const std::vector<io::Record>* records_;
  std::size_t index_ = 0;
};

/// Cursor over sorted RecordRefs into caller-owned frame storage (a bulk
/// shuffle fetch indexed by index_frames, or a RecordArena). The
/// reduce-side zero-copy path: no io::Record is ever materialized.
class MemoryRunCursor final : public RecordCursor {
 public:
  MemoryRunCursor(FrameStore frames, const std::vector<RecordRef>* records)
      : frames_(frames), records_(records) {}
  std::optional<io::RecordView> next() override {
    if (index_ >= records_->size()) return std::nullopt;
    const Frame frame = frames_.frame((*records_)[index_++]);
    return io::RecordView{frame.key, frame.value};
  }
  bool stable_views() const override { return true; }

 private:
  FrameStore frames_;
  const std::vector<RecordRef>* records_;
  std::size_t index_ = 0;
};

/// K-way merge of sorted cursors into one key-ordered stream.
/// Stability across cursors follows cursor index, which callers arrange
/// to be deterministic (spill sequence / map task id).
class MergeStream {
 public:
  explicit MergeStream(std::vector<std::unique_ptr<RecordCursor>> cursors);

  /// Next record in global key order; view valid until the next call
  /// (longer if stable_views()).
  std::optional<io::RecordView> next() TEXTMR_LIFETIME_BOUND;

  /// True when every input cursor has stable views — then views handed
  /// out by next() remain valid for the life of the merge.
  bool stable_views() const { return stable_views_; }

 private:
  struct Head {
    io::RecordView record;
    std::size_t cursor;
  };
  // `heap_` is a binary min-heap on (key, cursor index).
  bool less(const Head& a, const Head& b) const;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<std::unique_ptr<RecordCursor>> cursors_;
  std::vector<Head> heap_;
  std::optional<std::size_t> pending_advance_;  // cursor to refill on next()
  bool stable_views_ = true;
};

/// Iterates a MergeStream one key group at a time. The group's values are
/// streamed (never materialized), which keeps reduce-side memory constant
/// even for keys with millions of values.
///
/// Over a stable-view stream (MemoryRunCursor inputs — the reduce path)
/// keys and values are passed through as raw views with no per-record
/// copies; otherwise each is stashed into a reused owned buffer, so the
/// steady-state cost is a memcpy but no allocation either way.
class KeyGroups {
 public:
  explicit KeyGroups(MergeStream& stream)
      : stream_(stream), stable_(stream.stable_views()) {}

  /// Advances to the next key group (draining any unconsumed values of
  /// the previous group). Returns the key, or nullopt at end of stream.
  /// The returned view is stable for the group's lifetime.
  std::optional<std::string_view> next_group() TEXTMR_LIFETIME_BOUND;

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
  const bool stable_;
  GroupValueStream value_stream_{*this};
  // Views of the current key / pending value; over a non-stable stream
  // they point into the owned stashes below.
  std::string_view current_key_;
  std::string_view pending_value_;
  std::string key_stash_;
  std::string value_stash_;
  bool pending_value_ready_ = false;  // pending_value_ not yet handed out
  std::optional<io::RecordView> lookahead_;
  bool group_exhausted_ = true;
  bool stream_done_ = false;
};

/// Map-side final merge: merges `runs` partition by partition, applying
/// the combiner once per key group, into a single output run file.
/// Timing: structural work to Op::kMerge, user combine to Op::kCombine.
/// `format` is a shim:
/// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
io::SpillRunInfo merge_runs(const std::vector<io::SpillRunInfo>& runs,
                            Reducer* combiner, std::string_view out_path,
                            std::uint32_t num_partitions,
                            io::SpillFormat format, TaskMetrics& metrics);

}  // namespace textmr::mr
