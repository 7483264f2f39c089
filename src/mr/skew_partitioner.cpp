#include "mr/skew_partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/varint.hpp"
#include "mr/job.hpp"
#include "mr/task_runner.hpp"
#include "obs/trace.hpp"
#include "sketch/space_saving.hpp"

namespace textmr::mr {
namespace {

constexpr std::size_t kSegmentFlushBytes = 1u << 18;

/// Emit sink that feeds map output keys into the sampling sketch.
class SketchSink final : public EmitSink {
 public:
  explicit SketchSink(sketch::SpaceSaving& sketch) : sketch_(sketch) {}
  void emit(std::string_view key, std::string_view /*value*/) override {
    sketch_.offer(key);
  }

 private:
  sketch::SpaceSaving& sketch_;
};

/// Emit sink that formats reducer output exactly like a part file —
/// "key\tvalue\n" — into an owned buffer (the finalize pass for split
/// keys).
class TextSink final : public EmitSink {
 public:
  void emit(std::string_view key, std::string_view value) override {
    text_.append(key.data(), key.size());
    text_.push_back('\t');
    text_.append(value.data(), value.size());
    text_.push_back('\n');
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// Buffered append-only part-file writer for the finalize merge.
class PartOutput {
 public:
  explicit PartOutput(const std::string& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) throw IoError("cannot create " + path);
    buffer_.reserve(kSegmentFlushBytes + 4096);
  }
  ~PartOutput() {
    if (file_ != nullptr) std::fclose(file_);
  }

  void write(std::string_view bytes) {
    buffer_.append(bytes.data(), bytes.size());
    bytes_ += bytes.size();
    if (buffer_.size() >= kSegmentFlushBytes) flush();
  }

  std::uint64_t close() {
    flush();
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) throw IoError("close failed for " + path_);
    return bytes_;
  }

 private:
  void flush() {
    if (buffer_.empty()) return;
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size()) {
      throw IoError("short write to " + path_);
    }
    buffer_.clear();
  }

  std::string path_;
  std::FILE* file_;
  std::string buffer_;
  std::uint64_t bytes_ = 0;
};

}  // namespace

std::uint32_t SkewPlan::num_physical() const {
  // Placed entries may share a dedicated partition (bin-packing), so the
  // physical count is the highest id any entry touches, not a sum.
  std::uint32_t physical = num_canonical;
  for (const Entry& entry : entries) {
    physical = std::max(physical, entry.first_physical + entry.num_shares);
  }
  return physical;
}

const SkewPlan::Entry* SkewPlan::find(std::string_view key) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const Entry& entry, std::string_view k) { return entry.key < k; });
  if (it == entries.end() || it->key != key) return nullptr;
  return &*it;
}

const SkewPlan::Entry* SkewPlan::entry_for_partition(
    std::uint32_t partition) const {
  if (partition < num_canonical) return nullptr;
  for (const Entry& entry : entries) {
    if (partition >= entry.first_physical &&
        partition < entry.first_physical + entry.num_shares) {
      return &entry;
    }
  }
  return nullptr;
}

SkewPlan build_skew_plan(const JobSpec& spec) {
  SkewPlan plan;
  plan.num_canonical = spec.num_reducers;
  if (!spec.skew.enabled || spec.num_reducers < 2 || !spec.mapper ||
      spec.inputs.empty()) {
    return plan;
  }

  // ---- sampling pre-pass ----------------------------------------------
  // Budget spread evenly across splits (in split order) so a multi-file
  // job samples every input, not just the first file. Single-threaded
  // and seed-free: the same spec always yields the same sketch.
  sketch::SpaceSaving sketch(std::max<std::size_t>(spec.skew.top_k, 8));
  SketchSink sink(sketch);
  Counters scratch_counters;
  const auto mapper = spec.mapper();
  mapper->begin_task(TaskInfo{0, &scratch_counters});
  const std::uint64_t per_split =
      std::max<std::uint64_t>(spec.skew.sample_bytes / spec.inputs.size(), 1);
  for (const io::InputSplit& split : spec.inputs) {
    try {
      io::LineReader reader(split);
      std::uint64_t consumed = 0;
      std::uint64_t ordinal = 0;
      while (consumed < per_split) {
        const auto line = reader.next_line();
        if (!line.has_value()) break;
        consumed += line->size() + 1;
        mapper->map(ordinal++, *line, sink);
      }
    } catch (const IoError&) {
      // Sampling is advisory: a split that cannot be read right now
      // contributes no sample, and the map phase will surface (and
      // retry) the real error through the task-attempt machinery.
      continue;
    }
  }
  if (sketch.observed() == 0) return plan;

  // ---- selection -------------------------------------------------------
  const double total = static_cast<double>(sketch.observed());
  const double reducers = static_cast<double>(spec.num_reducers);
  const bool can_split =
      static_cast<bool>(spec.combiner) ||
      static_cast<bool>(spec.skew.merge_combiner);
  // Candidates arrive ordered by decreasing count; weight is the key's
  // load in average-partition units (1.0 = one reducer's fair share).
  struct Candidate {
    SkewPlan::Entry entry;
    double weight = 0.0;
  };
  std::vector<Candidate> selected;
  double selected_weight = 0.0;
  for (const auto& candidate : sketch.top(spec.skew.top_k)) {
    const double weight =
        static_cast<double>(candidate.count) / total * reducers;
    if (weight < spec.skew.place_threshold) break;  // sorted: rest lighter
    Candidate c;
    c.entry.key = candidate.key;
    c.weight = weight;
    if (can_split && weight >= spec.skew.split_threshold) {
      c.entry.mode = SkewPlan::Mode::kSplit;
      c.entry.num_shares = std::clamp<std::uint32_t>(
          static_cast<std::uint32_t>(std::ceil(weight)), 2,
          std::max<std::uint32_t>(spec.skew.max_split_shares, 2));
    }
    selected_weight += weight;
    selected.push_back(std::move(c));
  }

  // ---- dedicated-partition assignment ----------------------------------
  // Split keys own one partition per share. Placed keys are bin-packed
  // (first-fit, decreasing weight) onto shared dedicated partitions so
  // each bin carries roughly what one canonical partition keeps after the
  // heavy keys leave — a dedicated partition full of light-but-heavy keys
  // finishes with the pack instead of dragging the wall-time median down.
  const std::uint32_t max_extra = spec.skew.max_extra_partitions != 0
                                      ? spec.skew.max_extra_partitions
                                      : spec.num_reducers;
  const double residual_per_canonical =
      std::max(reducers - selected_weight, 0.0) / reducers;
  const double bin_capacity = 1.25 * std::max(residual_per_canonical, 0.5);
  struct Bin {
    std::uint32_t id;
    double load;
  };
  std::vector<Bin> bins;
  std::uint32_t next_physical = spec.num_reducers;
  std::uint32_t budget = max_extra;
  for (Candidate& c : selected) {
    if (c.entry.mode == SkewPlan::Mode::kSplit) {
      // Budget exhaustion skips (not breaks): a lighter placed key may
      // still fit an open bin even when no whole share range does.
      if (c.entry.num_shares > budget) continue;
      c.entry.first_physical = next_physical;
      next_physical += c.entry.num_shares;
      budget -= c.entry.num_shares;
    } else {
      Bin* fit = nullptr;
      for (Bin& bin : bins) {
        if (bin.load + c.weight <= bin_capacity) {
          fit = &bin;
          break;
        }
      }
      if (fit == nullptr) {
        if (budget == 0) continue;  // stays on its hash partition
        bins.push_back(Bin{next_physical++, 0.0});
        --budget;
        fit = &bins.back();
      }
      fit->load += c.weight;
      c.entry.first_physical = fit->id;
    }
    plan.entries.push_back(std::move(c.entry));
  }

  // Plan order is bytewise key order — the partitioner binary-searches it
  // and the finalize merge walks heavy keys in sorted position.
  std::sort(plan.entries.begin(), plan.entries.end(),
            [](const SkewPlan::Entry& a, const SkewPlan::Entry& b) {
              return a.key < b.key;
            });
  return plan;
}

SkewAwarePartitioner::SkewAwarePartitioner(std::uint32_t num_canonical,
                                           const SkewPlan* plan,
                                           std::uint32_t task_id)
    : hash_(num_canonical),
      plan_(plan != nullptr && !plan->empty() ? plan : nullptr) {
  if (plan_ == nullptr) return;
  next_share_.resize(plan_->entries.size());
  for (std::size_t i = 0; i < plan_->entries.size(); ++i) {
    // Seeding the round-robin cursor by task id staggers which share
    // each map task hits first, so shares fill evenly even when most
    // tasks emit fewer records than there are shares.
    next_share_[i] = task_id % plan_->entries[i].num_shares;
  }
}

std::uint32_t SkewAwarePartitioner::operator()(std::string_view key) {
  const SkewPlan::Entry* entry = plan_ != nullptr ? plan_->find(key) : nullptr;
  if (entry == nullptr) return hash_(key);
  if (entry->mode == SkewPlan::Mode::kPlace) return entry->first_physical;
  const auto index = static_cast<std::size_t>(entry - plan_->entries.data());
  const std::uint32_t share = next_share_[index];
  next_share_[index] = share + 1 == entry->num_shares ? 0 : share + 1;
  return entry->first_physical + share;
}

void SkewAwarePartitioner::partitions(std::string_view key,
                                      std::vector<std::uint32_t>& out) const {
  const SkewPlan::Entry* entry = plan_ != nullptr ? plan_->find(key) : nullptr;
  // A placed entry has one share; a plain key's one partition is its hash.
  out.resize(entry != nullptr ? entry->num_shares : 1);
  std::iota(out.begin(), out.end(),
            entry != nullptr ? entry->first_physical : hash_(key));
}

std::filesystem::path skew_segment_path(const JobSpec& spec,
                                        std::uint32_t partition) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-r-%05u", partition);
  return spec.scratch_dir / name;
}

// ---- segment file ---------------------------------------------------------

SegmentWriter::SegmentWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) throw IoError("cannot create segment " + path);
  buffer_.reserve(kSegmentFlushBytes + 4096);
}

SegmentWriter::~SegmentWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void SegmentWriter::add(SegmentKind kind, std::string_view key,
                        std::string_view blob) {
  buffer_.push_back(static_cast<char>(kind));
  put_varint(buffer_, key.size());
  buffer_.append(key.data(), key.size());
  put_varint(buffer_, blob.size());
  buffer_.append(blob.data(), blob.size());
}

bool SegmentWriter::flush_due() const {
  return buffer_.size() >= kSegmentFlushBytes;
}

void SegmentWriter::flush() {
  if (buffer_.empty()) return;
  if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
      buffer_.size()) {
    throw IoError("short write to segment " + path_);
  }
  bytes_ += buffer_.size();
  buffer_.clear();
}

std::uint64_t SegmentWriter::finish() {
  TEXTMR_CHECK(!finished_, "SegmentWriter::finish called twice");
  finished_ = true;
  flush();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) throw IoError("close failed for segment " + path_);
  return bytes_;
}

SegmentReader::SegmentReader(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw IoError("cannot open segment " + path);
  char buf[1 << 16];
  while (true) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), file);
    if (n > 0) data_.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) throw IoError("read failed for segment " + path);
}

std::optional<SegmentEntry> SegmentReader::next() {
  if (pos_ >= data_.size()) return std::nullopt;
  const std::string_view data(data_);
  SegmentEntry entry;
  const auto kind = static_cast<std::uint8_t>(data[pos_++]);
  if (kind > static_cast<std::uint8_t>(SegmentKind::kPartial)) {
    throw FormatError("bad segment entry kind " + std::to_string(kind));
  }
  entry.kind = static_cast<SegmentKind>(kind);
  entry.key = get_length_prefixed(data, pos_);
  entry.blob = get_length_prefixed(data, pos_);
  return entry;
}

void append_partial_value(std::string& blob, std::string_view value) {
  put_length_prefixed(blob, value);
}

std::vector<std::string_view> decode_partial_values(std::string_view blob) {
  std::vector<std::string_view> values;
  std::size_t pos = 0;
  while (pos < blob.size()) {
    values.push_back(get_length_prefixed(blob, pos));
  }
  return values;
}

// ---- finalize merge --------------------------------------------------------

SkewFinalizeStats finalize_skew_outputs(const JobSpec& spec,
                                        const SkewPlan& plan,
                                        JobResult& result,
                                        obs::TraceBuffer* trace) {
  SkewFinalizeStats stats;
  obs::SpanTimer span(trace, "skew", "skew_finalize");
  const std::uint32_t canonical = plan.num_canonical;

  // Heavy entries grouped by the canonical partition their key hashes
  // to; plan.entries is key-sorted, so each home list stays key-sorted.
  std::vector<std::vector<const SkewPlan::Entry*>> by_home(canonical);
  for (const SkewPlan::Entry& entry : plan.entries) {
    by_home[hash_key(entry.key) % canonical].push_back(&entry);
  }

  // One reducer instance drives every split-key merge; combiner partials
  // are just another combine schedule, which the reducer contract
  // (associative/commutative combiners) makes equivalent to reducing the
  // raw values.
  std::unique_ptr<Reducer> reducer;
  if (spec.combiner || spec.skew.merge_combiner) {
    reducer = spec.reducer();
    reducer->begin_task(TaskInfo{0, &result.counters});
  }

  for (std::uint32_t c = 0; c < canonical; ++c) {
    const std::filesystem::path out_path = reduce_output_path(spec, c);
    const std::string tmp_path = out_path.string() + ".skewtmp";
    PartOutput out(tmp_path);
    SegmentReader canon(skew_segment_path(spec, c).string());
    const auto& heavy = by_home[c];
    std::size_t h = 0;
    std::optional<SegmentEntry> entry = canon.next();
    while (entry.has_value() || h < heavy.size()) {
      if (entry.has_value() &&
          (h == heavy.size() || entry->key < heavy[h]->key)) {
        out.write(entry->blob);
        ++stats.groups;
        entry = canon.next();
        continue;
      }
      const SkewPlan::Entry& e = *heavy[h++];
      if (e.mode == SkewPlan::Mode::kPlace) {
        // The segment may be a shared bin hosting several placed keys
        // (each with its own home partition) — copy only this key's group.
        SegmentReader seg(skew_segment_path(spec, e.first_physical).string());
        bool produced = false;
        while (const auto group = seg.next()) {
          if (group->key != e.key) continue;
          out.write(group->blob);
          produced = true;
        }
        if (produced) {
          ++stats.groups;
          ++stats.heavy_keys;
        }
        continue;
      }
      // Split key: concatenate the shares' combiner partials in share
      // order and run the real reducer once — this is the final combine
      // schedule, so the group's output bytes match a single-partition
      // run exactly.
      std::vector<std::string> blobs;
      for (std::uint32_t s = 0; s < e.num_shares; ++s) {
        SegmentReader seg(
            skew_segment_path(spec, e.first_physical + s).string());
        while (const auto group = seg.next()) {
          blobs.emplace_back(group->blob);
        }
      }
      if (blobs.empty()) continue;  // sampled key never materialized
      std::vector<std::string_view> values;
      for (const std::string& blob : blobs) {
        for (std::string_view value : decode_partial_values(blob)) {
          values.push_back(value);
        }
      }
      VectorValueStream stream(values);
      TextSink text;
      TEXTMR_CHECK(reducer != nullptr, "split plan entry without combiner");
      reducer->reduce(e.key, stream, text);
      out.write(text.text());
      ++stats.groups;
      ++stats.heavy_keys;
      ++stats.split_keys;
    }
    stats.bytes_written += out.close();
    if (std::rename(tmp_path.c_str(), out_path.string().c_str()) != 0) {
      throw IoError("rename failed for " + out_path.string());
    }
    result.outputs.push_back(out_path);
  }

  if (!spec.keep_intermediates) {
    const std::uint32_t physical = plan.num_physical();
    for (std::uint32_t p = 0; p < physical; ++p) {
      std::error_code ec;
      std::filesystem::remove(skew_segment_path(spec, p), ec);
    }
  }

  span.arg("groups", static_cast<double>(stats.groups));
  span.arg("heavy_keys", static_cast<double>(stats.heavy_keys));
  span.arg("split_keys", static_cast<double>(stats.split_keys));
  return stats;
}

// ---- bin-packing -----------------------------------------------------------

std::vector<io::InputSplit> pack_input_files(
    const std::vector<std::string>& paths, std::uint32_t num_tasks) {
  if (num_tasks == 0) throw ConfigError("pack_input_files needs >= 1 task");
  std::vector<std::uint64_t> sizes;
  sizes.reserve(paths.size());
  std::uint64_t total = 0;
  for (const std::string& path : paths) {
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) throw IoError("cannot stat " + path + ": " + ec.message());
    sizes.push_back(size);
    total += size;
  }
  std::vector<io::InputSplit> splits;
  if (total == 0) {
    for (const std::string& path : paths) splits.push_back({path, 0, 0});
    return splits;
  }
  // Every task targets total/num_tasks bytes; a file gets a chunk count
  // proportional to its size (at least one), so big files fan out over
  // several tasks while small files stay whole — the longest-processing-
  // time intuition of Afrati et al. without merging files into one task.
  const double target =
      static_cast<double>(total) / static_cast<double>(num_tasks);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    const std::uint64_t size = sizes[f];
    const auto chunks = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(size) / target)));
    const std::uint64_t base = size / chunks;
    std::uint64_t offset = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      // Last chunk absorbs the rounding remainder.
      const std::uint64_t length = c + 1 == chunks ? size - offset : base;
      splits.push_back({paths[f], offset, length});
      offset += length;
    }
  }
  return splits;
}

}  // namespace textmr::mr
