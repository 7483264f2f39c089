#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/hash.hpp"
#include "mr/task_runner.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

// Sizes give 1.5-4 s jobs on a 4-core x86 VM; `--scale` shrinks them.
const Workload kWorkloads[] = {
    {.name = "wordcount-hash",
     .kind = Kind::kWordCount,
     .words = 20'000'000,
     .vocab = 2'000'000,
     .split_bytes = 4u << 20,
     .map_slots = 4,
     .reduce_slots = 4,
     .hash_combine = true},
    {.name = "invertedindex-combined",
     .kind = Kind::kInvertedIndex,
     .words = 5'000'000,
     .vocab = 100'000,
     .split_bytes = 4u << 20,
     .freq = true,
     .matcher = true},
    {.name = "accesslog-join-tcp",
     .kind = Kind::kJoin,
     .visits = 2'000'000,
     .urls = 100'000,
     .split_bytes = 8u << 20,
     .cluster = true},
};

std::uint64_t scaled(std::uint64_t value, double scale, std::uint64_t floor) {
  return std::max<std::uint64_t>(
      floor, static_cast<std::uint64_t>(std::llround(value * scale)));
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Calls fn(line) for each '\n'-terminated (or final) line of `text`.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    fn(pos, text.substr(pos, end - pos));
    pos = end + 1;
  }
}

/// The oracle's own tokenizer, written from the documented semantics
/// (maximal runs of [A-Za-z0-9], ASCII-lowercased) rather than taken from
/// the library, so a tokenizer bug cannot hide in both sides.
struct TokenTable {
  char lower[256] = {};  // 0 = delimiter
  TokenTable() {
    for (int c = '0'; c <= '9'; ++c) lower[c] = static_cast<char>(c);
    for (int c = 'a'; c <= 'z'; ++c) lower[c] = static_cast<char>(c);
    for (int c = 'A'; c <= 'Z'; ++c) lower[c] = static_cast<char>(c - 'A' + 'a');
  }
};
const TokenTable kTokenTable;

template <typename Fn>
void oracle_tokens(std::string_view line, std::string& token, Fn&& fn) {
  const char* lower = kTokenTable.lower;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && lower[static_cast<unsigned char>(line[i])] == 0) ++i;
    if (i == line.size()) break;
    token.clear();
    char c;
    while (i < line.size() &&
           (c = lower[static_cast<unsigned char>(line[i])]) != 0) {
      token.push_back(c);
      ++i;
    }
    fn(std::string_view(token));
  }
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

/// Walks part file `p` of `num_parts`, checking each line's partition
/// and the strict key order; `check(key, value)` judges the value.
template <typename Check>
std::string walk_part(const fs::path& part, std::uint32_t p,
                      std::uint32_t num_parts, std::uint64_t& lines,
                      Check&& check) {
  lines = 0;
  std::string text;
  try {
    text = read_file(part);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (!text.empty() && text.back() != '\n') return "missing final newline";
  std::string previous;
  bool first = true;
  std::string error;
  for_each_line(text, [&](std::size_t, std::string_view line) {
    if (!error.empty()) return;
    const std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      error = "line without a tab";
      return;
    }
    const std::string_view key = line.substr(0, tab);
    if (hash_key(key) % num_parts != p) {
      error = "key '" + std::string(key) + "' in the wrong partition";
      return;
    }
    if (!first && !(std::string_view(previous) < key)) {
      error = "keys out of order at '" + std::string(key) + "'";
      return;
    }
    first = false;
    previous.assign(key);
    ++lines;
    error = check(key, line.substr(tab + 1));
  });
  return error;
}

/// Runs fn(p) for every partition on its own thread; returns the first
/// non-empty result, prefixed with its part name.
template <typename Fn>
std::string per_partition(Fn&& fn) {
  std::vector<std::string> errors(kReducers);
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kReducers; ++p) {
    threads.emplace_back([&, p] { errors[p] = fn(p); });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t p = 0; p < kReducers; ++p) {
    if (!errors[p].empty()) return mr::part_name(p) + ": " + errors[p];
  }
  return {};
}

/// The cache keeps one seed per generator setting: inputs are hundreds
/// of MB, and a run only ever reuses its own seed's.
void evict_other_seeds(const fs::path& dir, const std::string& params,
                       const std::string& key) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(params + "-s") && name != key &&
        !name.starts_with(key + ".")) {
      fs::remove(entry.path());
    }
  }
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs ensure_inputs(const Workload& w, const Options& opt, bool regenerate) {
  const fs::path dir = opt.work / "inputs";
  fs::create_directories(dir);
  Inputs in;
  if (w.kind == Kind::kJoin) {
    textgen::AccessLogSpec spec;
    spec.num_visits = scaled(w.visits, opt.scale, 1000);
    spec.num_urls = scaled(w.urls, opt.scale, 100);
    spec.seed = opt.seed;
    const std::string params = "log-n" + std::to_string(spec.num_visits) +
                               "-u" + std::to_string(spec.num_urls) + "-a0.8";
    const std::string key = params + "-s" + std::to_string(spec.seed);
    const fs::path visits = dir / (key + ".visits");
    const fs::path rankings = dir / (key + ".rankings");
    if (regenerate || !fs::exists(visits) || !fs::exists(rankings)) {
      evict_other_seeds(dir, params, key);
      const fs::path tmp_v = dir / (key + ".visits.tmp");
      const fs::path tmp_r = dir / (key + ".rankings.tmp");
      textgen::generate_access_log(spec, tmp_v.string(), tmp_r.string());
      fs::rename(tmp_v, visits);
      fs::rename(tmp_r, rankings);
    }
    in.files = {visits, rankings};
  } else {
    textgen::CorpusSpec spec;
    spec.total_words = scaled(w.words, opt.scale, 1000);
    spec.vocabulary = scaled(w.vocab, opt.scale, 1000);
    spec.alpha = 1.0;
    spec.seed = opt.seed;
    const std::string params = "corpus-w" + std::to_string(spec.total_words) +
                               "-v" + std::to_string(spec.vocabulary) + "-a1.0";
    const std::string key = params + "-s" + std::to_string(spec.seed) + ".txt";
    const fs::path corpus = dir / key;
    if (regenerate || !fs::exists(corpus)) {
      evict_other_seeds(dir, params, key);
      const fs::path tmp = dir / (key + ".tmp");
      textgen::generate_corpus(spec, tmp.string());
      fs::rename(tmp, corpus);
    }
    in.files = {corpus};
  }
  for (const auto& file : in.files) in.bytes += fs::file_size(file);
  return in;
}

apps::AppBundle app_for(const Workload& w) {
  switch (w.kind) {
    case Kind::kWordCount:
      return apps::wordcount_app();
    case Kind::kInvertedIndex:
      return apps::inverted_index_app();
    case Kind::kJoin:
      return apps::access_log_join_sorted_app();
  }
  throw std::logic_error("unknown workload kind");
}

mr::JobSpec make_spec(const Workload& w, const Inputs& in,
                      const fs::path& job_dir) {
  const apps::AppBundle app = app_for(w);
  mr::JobSpec spec;
  spec.name = w.name;
  for (const auto& file : in.files) {
    const auto splits = io::make_splits(file.string(), w.split_bytes);
    spec.inputs.insert(spec.inputs.end(), splits.begin(), splits.end());
  }
  spec.mapper = app.mapper;
  spec.reducer = app.reducer;
  spec.combiner = app.combiner;
  spec.num_reducers = kReducers;
  spec.spill_buffer_bytes = kMapMemoryBytes;
  spec.map_parallelism = w.map_slots;
  spec.reduce_parallelism = w.reduce_slots;
  spec.use_spill_matcher = w.matcher;
  if (w.hash_combine) spec.combine_mode = mr::CombineMode::kHash;
  if (w.freq) {
    spec.freqbuf.enabled = true;
    spec.freqbuf.top_k = app.freq_top_k;
    spec.freqbuf.sampling_fraction = app.freq_sampling_fraction;
  }
  spec.scratch_dir = job_dir / "scratch";
  spec.output_dir = job_dir / "out";
  return spec;
}

cluster::ClusterConfig make_cluster_config() {
  cluster::ClusterConfig config;
  config.num_workers = kClusterWorkers;
  config.transport = cluster::TransportKind::kTcp;
  config.network_shuffle = true;
  // A duplicate attempt launched on a timing race would make wall time
  // bimodal.
  config.speculation = false;
  config.io_timeout_ms = 30000;
  return config;
}

mr::JobResult run_job(const Workload& w, const mr::JobSpec& spec) {
  if (w.cluster) {
    cluster::ClusterEngine engine(make_cluster_config());
    return engine.run(spec);
  }
  mr::LocalEngine engine;
  return engine.run(spec);
}

std::vector<fs::path> part_paths(const fs::path& job_dir) {
  std::vector<fs::path> parts;
  for (std::uint32_t p = 0; p < kReducers; ++p) {
    parts.push_back(job_dir / "out" / mr::part_name(p));
  }
  return parts;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- reference -------------------------------------------------------------

// The oracles are kept per reduce partition (a key's partition is
// hash_key(key) % 4, as the job's partitioner places it), so set-up and
// checking both run one thread per partition.
struct Reference::State {
  std::vector<sketch::ExactCounter> counts;  // WordCount
  std::vector<std::map<std::string, std::vector<std::uint64_t>, std::less<>>>
      postings;                            // InvertedIndex
  std::vector<std::string> join_parts;     // LocalEngine sort-mode part files
};

Reference::Reference(const Workload& w, const Inputs& in, const fs::path& dir)
    : w_(w), state_(std::make_unique<State>()) {
  if (w.kind == Kind::kJoin) {
    // LocalEngine in sort mode is the canonical output the cross-engine
    // differential grid compares every engine against.
    const fs::path ref_dir = dir / "reference";
    fs::remove_all(ref_dir);
    mr::JobSpec spec = make_spec(w, in, ref_dir);
    mr::LocalEngine engine;
    const mr::JobResult result = engine.run(spec);
    for (const auto& part : result.outputs) {
      state_->join_parts.push_back(read_file(part));
    }
    fs::remove_all(ref_dir);
    return;
  }
  state_->counts.resize(kReducers);
  state_->postings.resize(kReducers);
  const std::string text = read_file(in.files.front());
  const auto splits = io::make_splits(in.files.front().string(), w.split_bytes);
  per_partition([&](std::uint32_t p) {
    std::size_t split = 0;
    std::uint64_t ordinal = 0;
    std::string token;
    auto& counts = state_->counts[p];
    auto& postings = state_->postings[p];
    // A line belongs to the split holding its first byte; its location is
    // (task id, ordinal within the split), as InvertedIndex defines it.
    for_each_line(text, [&](std::size_t start, std::string_view line) {
      while (split + 1 < splits.size() && start >= splits[split + 1].offset) {
        ++split;
        ordinal = 0;
      }
      const std::uint64_t location = apps::postings::make_location(
          static_cast<std::uint32_t>(split), ordinal++);
      oracle_tokens(line, token, [&](std::string_view t) {
        if (hash_key(t) % kReducers != p) return;
        if (w.kind == Kind::kWordCount) {
          counts.offer(t);
          return;
        }
        auto it = postings.find(t);
        if (it == postings.end()) {
          it = postings.emplace(std::string(t), std::vector<std::uint64_t>{})
                   .first;
        }
        it->second.push_back(location);
      });
    });
    return std::string();
  });
}

Reference::~Reference() = default;

std::string Reference::verify(const std::vector<fs::path>& parts) const {
  if (parts.size() != kReducers) return "wrong number of part files";
  if (w_.kind == Kind::kJoin) {
    for (std::size_t p = 0; p < parts.size(); ++p) {
      std::string text;
      try {
        text = read_file(parts[p]);
      } catch (const std::exception& e) {
        return e.what();
      }
      if (text != state_->join_parts[p]) {
        return parts[p].filename().string() + " differs from the reference";
      }
    }
    return {};
  }
  if (w_.kind == Kind::kWordCount) {
    return per_partition([&](std::uint32_t p) {
      const sketch::ExactCounter& oracle = state_->counts[p];
      std::uint64_t lines = 0, total = 0;
      std::string error = walk_part(
          parts[p], p, kReducers, lines,
          [&](std::string_view key, std::string_view value) {
            std::uint64_t count = 0;
            if (!parse_u64(value, count)) return std::string("bad count");
            if (count != oracle.count(key)) {
              return "wrong count for '" + std::string(key) + "'";
            }
            total += count;
            return std::string();
          });
      if (error.empty() &&
          (lines != oracle.distinct() || total != oracle.observed())) {
        error = "covers " + std::to_string(lines) + " keys / " +
                std::to_string(total) + " words, reference " +
                std::to_string(oracle.distinct()) + " / " +
                std::to_string(oracle.observed());
      }
      return error;
    });
  }
  return per_partition([&](std::uint32_t p) {
    const auto& oracle = state_->postings[p];
    std::uint64_t lines = 0;
    std::string error = walk_part(
        parts[p], p, kReducers, lines,
        [&](std::string_view key, std::string_view value) {
          const auto it = oracle.find(key);
          if (it == oracle.end()) {
            return "unexpected key '" + std::string(key) + "'";
          }
          const std::vector<std::uint64_t>& expected = it->second;
          const std::size_t colon = value.find(':');
          std::uint64_t count = 0;
          if (colon == std::string_view::npos ||
              !parse_u64(value.substr(0, colon), count) ||
              count != expected.size()) {
            return "wrong posting count for '" + std::string(key) + "'";
          }
          std::string_view rest = value.substr(colon + 1);
          for (const std::uint64_t location : expected) {
            const std::size_t comma = rest.find(',');
            std::uint64_t parsed = 0;
            if (!parse_u64(rest.substr(0, comma), parsed) ||
                parsed != location) {
              return "wrong postings for '" + std::string(key) + "'";
            }
            rest = comma == std::string_view::npos ? std::string_view()
                                                   : rest.substr(comma + 1);
          }
          if (!rest.empty()) {
            return "extra postings for '" + std::string(key) + "'";
          }
          return std::string();
        });
    if (error.empty() && lines != oracle.size()) {
      error = "has " + std::to_string(lines) + " keys, reference " +
              std::to_string(oracle.size());
    }
    return error;
  });
}

}  // namespace perfbench
