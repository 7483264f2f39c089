#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "io/line_reader.hpp"
#include "mr/partitioner.hpp"
#include "mr/types.hpp"

namespace textmr::obs {
class TraceBuffer;
}  // namespace textmr::obs

namespace textmr::mr {

struct JobSpec;
struct JobResult;

/// Skew-aware partitioning knobs (JobSpec::skew, DESIGN.md §12).
///
/// The thresholds are expressed as multiples of the *average* partition
/// share (1 / num_reducers), so the same configuration scales with the
/// reducer count: a key is placed on a dedicated reducer once it alone
/// accounts for `place_threshold` average-partitions worth of records,
/// and split across several reducers once it exceeds `split_threshold`
/// average partitions (splitting additionally requires a combiner — the
/// shares emit combiner partials that the finalize pass reduces).
struct SkewConfig {
  bool enabled = false;

  /// Space-Saving sketch capacity for the driver-side sampling pre-pass;
  /// also the maximum number of heavy-key candidates considered.
  std::size_t top_k = 64;

  /// Input bytes the sampling pre-pass reads (spread over the first
  /// lines of every split, in split order — deterministic).
  std::uint64_t sample_bytes = 4u << 20;

  /// Place a key on a dedicated reducer when its estimated share of all
  /// map output records is >= place_threshold / num_reducers.
  double place_threshold = 0.5;

  /// Split a key across reducers when its share is
  /// >= split_threshold / num_reducers (reduced to placement when the
  /// job has no combiner to merge the shares).
  double split_threshold = 1.1;

  /// Upper bound on the shares one split key fans out to.
  std::uint32_t max_split_shares = 4;

  /// Cap on dedicated (extra) physical partitions; 0 = num_reducers.
  std::uint32_t max_extra_partitions = 0;

  /// Combiner used by split shares and the finalize merge when the job
  /// itself runs without a map-side combiner (JobSpec::combiner empty).
  /// Lets a job keep full map output volume (no map-side combining) and
  /// still split heavy keys — the skew battery's configuration. Must
  /// satisfy the usual combiner contract for the job's reducer.
  ReducerFactory merge_combiner;
};

/// Deterministic heavy-key routing plan, computed once on the driver from
/// the Space-Saving sample and shared verbatim by every map task (the
/// cluster engine broadcasts it as a kSkewPlan frame). Partitions
/// 0..num_canonical-1 keep their hash-partitioner meaning; dedicated
/// partitions live above that. A split entry owns a contiguous range of
/// one partition per share; placed entries are bin-packed, so several
/// may share one dedicated partition (their reduce groups coexist in one
/// segment file and the finalize merge picks each key's group out by
/// key). A partition hosting a split share hosts nothing else.
struct SkewPlan {
  enum class Mode : std::uint8_t { kPlace = 0, kSplit = 1 };

  struct Entry {
    std::string key;
    Mode mode = Mode::kPlace;
    std::uint32_t first_physical = 0;  // first dedicated partition id
    std::uint32_t num_shares = 1;      // 1 for kPlace, >= 2 for kSplit
  };

  std::uint32_t num_canonical = 0;
  /// Sorted by key (bytewise) — the partitioner binary-searches it and
  /// the finalize merge relies on the order.
  std::vector<Entry> entries;

  bool empty() const { return entries.empty(); }
  std::uint32_t num_physical() const;
  const Entry* find(std::string_view key) const TEXTMR_LIFETIME_BOUND;
  /// An entry hosted on a dedicated partition id (the lowest-key one when
  /// a shared bin packs several placed keys — co-hosted entries always
  /// agree on mode), or null for canonical partitions
  /// (id < num_canonical).
  const Entry* entry_for_partition(std::uint32_t partition) const;
};

/// Builds the plan by sampling the job's own map output keys: reads up to
/// `spec.skew.sample_bytes` of input (spread across splits, in split
/// order), feeds the lines through a fresh mapper instance into a
/// Space-Saving sketch, then selects heavy keys against the thresholds.
/// Returns an empty plan when skew partitioning is disabled, nothing is
/// heavy, or num_reducers < 2. Deterministic: same spec => same plan.
SkewPlan build_skew_plan(const JobSpec& spec);

/// Drop-in replacement for HashPartitioner in the map emit path. With a
/// null (or empty) plan it is exactly the hash partitioner — one branch
/// per record. Heavy keys route to their dedicated partitions; split
/// keys round-robin across their shares, with the starting share seeded
/// by the map task id so shares fill evenly across tasks.
class SkewAwarePartitioner {
 public:
  SkewAwarePartitioner(std::uint32_t num_canonical, const SkewPlan* plan,
                       std::uint32_t task_id);

  std::uint32_t operator()(std::string_view key);

  /// Sets `out` to every partition operator() routes `key` to, advancing
  /// no cursor: the hash partition of a plain key, the dedicated one of a
  /// placed key, one per share of a split key.
  void partitions(std::string_view key, std::vector<std::uint32_t>& out) const;

  std::uint32_t num_partitions() const {
    return plan_ != nullptr ? plan_->num_physical() : hash_.num_partitions();
  }

 private:
  HashPartitioner hash_;
  const SkewPlan* plan_;              // null = pure hash mode
  std::vector<std::uint32_t> next_share_;  // per entry, round-robin cursor
};

/// In skew mode every reduce task writes a *segment* file instead of a
/// part file: entries keyed by the reduce group key, in group order.
///   entry: [u8 kind][varint klen][key][varint blob_len][blob]
/// kOutput blobs hold the final "key\tvalue\n" text the group produced;
/// kPartial blobs hold combiner partial values (length-prefixed) from one
/// share of a split key. The finalize pass merges segments back into the
/// canonical part files — the layout invariant that keeps skew runs
/// byte-identical to hash-partitioner runs.
enum class SegmentKind : std::uint8_t { kOutput = 0, kPartial = 1 };

class SegmentWriter {
 public:
  explicit SegmentWriter(const std::string& path);
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Buffers one entry; no I/O. Call flush() when flush_due().
  void add(SegmentKind kind, std::string_view key, std::string_view blob);
  bool flush_due() const;
  /// Writes the buffered entries out.
  void flush();

  /// Flushes and closes; returns total bytes. Must be called exactly once.
  std::uint64_t finish();

 private:
  std::string path_;
  std::FILE* file_;
  std::string buffer_;
  std::uint64_t bytes_ = 0;
  bool finished_ = false;
};

struct SegmentEntry {
  SegmentKind kind = SegmentKind::kOutput;
  std::string_view key;
  std::string_view blob;
};

/// Streaming reader over one segment file (whole file buffered; views are
/// stable for the reader's lifetime). Throws FormatError on malformed
/// entries.
class SegmentReader {
 public:
  explicit SegmentReader(const std::string& path);

  std::optional<SegmentEntry> next() TEXTMR_LIFETIME_BOUND;

 private:
  std::string data_;
  std::size_t pos_ = 0;
};

/// Scratch path one physical reduce task's segment file commits to in
/// skew mode (tmp + rename, like part files).
std::filesystem::path skew_segment_path(const JobSpec& spec,
                                        std::uint32_t partition);

/// Appends one combiner partial value to a kPartial blob.
void append_partial_value(std::string& blob, std::string_view value);

/// Decodes a kPartial blob back into its values (views into `blob`).
std::vector<std::string_view> decode_partial_values(
    std::string_view blob TEXTMR_LIFETIME_BOUND);

/// What the finalize merge did (folded into trace args / logs).
struct SkewFinalizeStats {
  std::uint64_t groups = 0;       // key groups written to part files
  std::uint64_t heavy_keys = 0;   // plan entries that produced output
  std::uint64_t split_keys = 0;   // entries reduced from share partials
  std::uint64_t bytes_written = 0;
};

/// Merges the per-task segment files back into canonical part files
/// (output_dir/part-r-*), restoring the exact byte layout a hash
/// partitioner run produces: canonical groups stay in group order and
/// each heavy key slots in at its sorted position; split keys are
/// reduced from their shares' combiner partials with the job's real
/// reducer. Writes via tmp + rename. Appends the part paths to
/// `result.outputs` and removes the segments unless keep_intermediates.
SkewFinalizeStats finalize_skew_outputs(const JobSpec& spec,
                                        const SkewPlan& plan,
                                        JobResult& result,
                                        obs::TraceBuffer* trace);

/// Bin-packing of different-sized input files onto map tasks (Afrati et
/// al., PAPERS.md): splits each file into chunks sized so every task gets
/// roughly total_bytes / num_tasks input, assigning more chunks to bigger
/// files (longest-processing-time order). Produces about `num_tasks`
/// splits — never fewer than one per file, so a job with more files than
/// tasks degrades to one split per file; small files are never merged (a
/// task reads one contiguous range of one file).
std::vector<io::InputSplit> pack_input_files(
    const std::vector<std::string>& paths, std::uint32_t num_tasks);

}  // namespace textmr::mr
