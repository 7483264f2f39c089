#pragma once

// End-to-end benchmark harness for textmr (see run.py for how it is
// built and invoked). Three workloads each run one batch job at a time in
// a closed loop; every timed job runs in a fresh child process so its CPU
// time and peak RSS (coordinator plus forked workers) are its own, and
// every job's part files are checked against a reference built during
// set-up. A separate traced run measures the layers from outside the
// library, with spans around the calls the harness makes into them.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "textmr.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace textmr;

enum class Kind { kWordCount, kInvertedIndex, kJoin };

/// One workload: generator parameters plus the job configuration.
struct Workload {
  const char* name;
  Kind kind;
  std::uint64_t words = 0;   // corpus workloads
  std::uint64_t vocab = 0;
  std::uint64_t visits = 0;  // join workload
  std::uint64_t urls = 0;
  std::uint64_t split_bytes = 4u << 20;
  std::uint32_t map_slots = 1;
  std::uint32_t reduce_slots = 1;
  bool hash_combine = false;
  bool freq = false;
  bool matcher = false;
  bool cluster = false;  // ClusterEngine, 4 forked workers over TCP
};

inline constexpr std::uint32_t kReducers = 4;
inline constexpr std::size_t kMapMemoryBytes = 16u << 20;
inline constexpr std::uint32_t kClusterWorkers = 4;

const Workload* find_workload(std::string_view name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work = ".bench_work";
  /// Multiplies generator sizes (the self-test runs at a tiny scale).
  double scale = 1.0;
  /// Test seam: corrupt part-r-00000 after this timed job (1-based).
  int corrupt_run = 0;
};

/// Generated input files for one (workload, scale, seed).
struct Inputs {
  std::vector<fs::path> files;  // corpus, or visits + rankings
  std::uint64_t bytes = 0;
};

/// Returns the cached inputs, generating them when absent or when
/// `regenerate` is set. The cache key holds every generator parameter
/// and the seed.
Inputs ensure_inputs(const Workload& w, const Options& opt, bool regenerate);

apps::AppBundle app_for(const Workload& w);
mr::JobSpec make_spec(const Workload& w, const Inputs& in,
                      const fs::path& job_dir);
cluster::ClusterConfig make_cluster_config();

/// Runs one job of the workload on its engine (in this process).
mr::JobResult run_job(const Workload& w, const mr::JobSpec& spec);

/// The reference each job's part files are checked against: an
/// independent in-harness oracle for WordCount and InvertedIndex, and
/// LocalEngine's sort-mode output for the join.
class Reference {
 public:
  Reference(const Workload& w, const Inputs& in, const fs::path& dir);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Empty when `parts` (part-r-00000.. in order) match; else a reason.
  std::string verify(const std::vector<fs::path>& parts) const;

 private:
  struct State;
  const Workload& w_;
  std::unique_ptr<State> state_;
};

/// Paths of the part files a job writes into `job_dir`.
std::vector<fs::path> part_paths(const fs::path& job_dir);

using Metrics = std::vector<std::pair<std::string, double>>;

struct TracedOutcome {
  Metrics metrics;
  bool ok = true;       // job ran and its output matched the reference
  std::string error;
};

/// The traced run: one job driven with spans around each layer call,
/// then the single-layer replays. `untraced_wall_s` is the median wall
/// of untraced jobs of the same inputs (for trace.overhead_fraction).
TracedOutcome traced_run(const Workload& w, const Options& opt,
                         const Inputs& in, const Reference& ref,
                         double untraced_wall_s);

double median(std::vector<double> values);

}  // namespace perfbench
