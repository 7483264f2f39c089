// Entry point of the benchmark harness.
//
//   perfbench_harness bench --workload W --seed N --seconds S --trace 0|1
//                           [--work DIR] [--scale F] [--corrupt-run K]
//   perfbench_harness job   --workload W --seed N [--work DIR] [--scale F]
//
// `bench` is the measured run: set-up, then jobs in a closed loop for S
// seconds (or the traced run), then one JSON result line on stdout.
// `job` is the child mode `bench` spawns for each timed job: it runs one
// untraced job in a fresh process and prints its wall time.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0; BENCHMARK.json lists the same names and units.
constexpr MetricDef kEndToEnd[] = {
    {"job_wall_s", "s"},    {"input_mb_per_s", "MB/s"}, {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},  {"setup_s", "s"},
};

// Printed with --trace 1, in BENCHMARK.json's order.
constexpr MetricDef kPerLayer[] = {
    {"failed_run_ratio", "ratio"},
    {"engine.map_phase_s", "s"},
    {"engine.reduce_phase_s", "s"},
    {"engine.map_task_p50_s", "s"},
    {"engine.map_task_max_s", "s"},
    {"engine.slot_busy_fraction", "ratio"},
    {"engine.task_attempts", "count"},
    {"engine.tasks_retried", "count"},
    {"io.read_mb_per_s", "MB/s"},
    {"io.spills", "count"},
    {"io.spilled_mb", "MB"},
    {"text.tokens", "count"},
    {"text.tokenize_ns_per_token", "ns"},
    {"apps.map_s", "s"},
    {"apps.combine_s", "s"},
    {"apps.reduce_s", "s"},
    {"apps.combine_calls", "count"},
    {"emit.records", "count"},
    {"emit.mb", "MB"},
    {"emit.ns_per_record", "ns"},
    {"emit.map_task_other_s", "s"},
    {"hash_combine.insert_ns_per_record", "ns"},
    {"hash_combine.finish_s", "s"},
    {"hash_combine.hit_ratio", "ratio"},
    {"hash_combine.flushes", "count"},
    {"hash_combine.demotions", "count"},
    {"spill.sort_and_spill_ns_per_record", "ns"},
    {"spill.combine_ratio", "ratio"},
    {"spill.count", "count"},
    {"merge.map_merge_ns_per_record", "ns"},
    {"merge.runs_per_task", "count"},
    {"freqbuf.absorb_ratio", "ratio"},
    {"freqbuf.flushes", "count"},
    {"spillmatch.final_threshold", "ratio"},
    {"spillmatch.map_idle_fraction", "ratio"},
    {"spillmatch.support_idle_fraction", "ratio"},
    {"reduce.task_p50_s", "s"},
    {"reduce.task_max_s", "s"},
    {"reduce.shuffled_mb", "MB"},
    {"reduce.output_mb", "MB"},
    {"reduce.partition_skew_ratio", "ratio"},
    {"cluster.shuffled_wire_mb", "MB"},
    {"cluster.worker_records_skew", "ratio"},
    {"cluster.speculative_attempts", "count"},
    {"cluster.shuffle_fetch_mb_per_s", "MB/s"},
    {"cluster.overhead_s", "s"},
    {"trace.overhead_fraction", "ratio"},
    {"trace.unattributed_fraction", "ratio"},
};

// Set-up is repeated this many times per untraced run; setup_s is the
// median.
constexpr int kSetupRepeats = 3;
// Floor on timed jobs per untraced run, whatever --seconds says.
constexpr int kMinTimedJobs = 3;
// Untraced jobs a traced run times for trace.overhead_fraction.
constexpr int kTracedBaselineJobs = 3;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness bench|job --workload W --seed N "
               "[--seconds S] [--trace 0|1] [--work DIR] [--scale F] "
               "[--corrupt-run K]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--work") {
        opt.work = value;
      } else if (flag == "--scale") {
        opt.scale = std::stod(value);
      } else if (flag == "--corrupt-run") {
        opt.corrupt_run = std::stoi(value);
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (find_workload(opt.workload) == nullptr) usage("unknown --workload");
  return opt;
}

// ---- child: one untraced job ------------------------------------------------

/// Peak resident set of this process image, in KiB. ru_maxrss would not
/// do: across exec it keeps the high-water mark of the image it replaced,
/// i.e. of the forking harness.
long self_peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

int job_main(const Options& opt) {
  const Workload& w = *find_workload(opt.workload);
  const Inputs in = ensure_inputs(w, opt, /*regenerate=*/false);
  const mr::JobSpec spec = make_spec(w, in, opt.work / "run");
  const double start = now_s();
  run_job(w, spec);
  const double wall = now_s() - start;
  // Forked cluster workers are reaped by the engine, so their peak is in
  // RUSAGE_CHILDREN.
  struct rusage children {};
  ::getrusage(RUSAGE_CHILDREN, &children);
  std::printf("{\"wall_s\": %.9f, \"peak_rss_kb\": %ld}\n", wall,
              std::max(self_peak_rss_kb(), children.ru_maxrss));
  return 0;
}

// ---- parent: timed jobs in fresh processes ----------------------------------

struct JobSample {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;    // user + sys of the job process and its workers
  double peak_rss_mb = 0.0;
};

/// Spawns `job` mode in a fresh process and reaps it with wait4, whose
/// CPU times cover the child and every worker it reaped.
JobSample spawn_job(const Options& opt) {
  JobSample sample;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) throw std::runtime_error("pipe failed");
  const std::string seed = std::to_string(opt.seed);
  const std::string scale = std::to_string(opt.scale);
  const std::string work = opt.work.string();
  std::vector<const char*> args = {"perfbench_harness", "job",
                                   "--workload",        opt.workload.c_str(),
                                   "--seed",            seed.c_str(),
                                   "--scale",           scale.c_str(),
                                   "--work",            work.c_str(),
                                   nullptr};
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execv("/proc/self/exe", const_cast<char* const*>(args.data()));
    std::_Exit(127);
  }
  ::close(out_pipe[1]);
  std::string output;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
    if (n > 0) {
      output.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(out_pipe[0]);
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                 static_cast<double>(usage.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                            usage.ru_stime.tv_usec);
  const std::size_t wall = output.find("\"wall_s\": ");
  const std::size_t rss = output.find("\"peak_rss_kb\": ");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      wall == std::string::npos || rss == std::string::npos) {
    sample.error = "job process failed (status " + std::to_string(status) + ")";
    return sample;
  }
  sample.wall_s = std::stod(output.substr(wall + 10));
  sample.peak_rss_mb = std::stod(output.substr(rss + 15)) / 1024.0;
  sample.ok = true;
  return sample;
}

/// Flips one byte in the middle of a part file: the self-test's proof that
/// a corrupted output is caught and counted.
void corrupt_part(const fs::path& part) {
  std::fstream file(part, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(file.tellg());
  if (size <= 0) return;
  file.seekg(size / 2);
  char c = 0;
  file.read(&c, 1);
  c = c == '1' ? '2' : '1';
  file.seekp(size / 2);
  file.write(&c, 1);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One job in a fresh process plus its reference check; failures count.
JobSample timed_job(const Options& opt, const Reference& ref, Tally& tally,
                    bool corrupt) {
  fs::remove_all(opt.work / "run");
  JobSample sample = spawn_job(opt);
  ++tally.attempted;
  if (sample.ok) {
    const auto parts = part_paths(opt.work / "run");
    if (corrupt) corrupt_part(parts.front());
    const double start = now_s();
    sample.error = ref.verify(parts);
    sample.ok = sample.error.empty();
    std::fprintf(stderr,
                 "perfbench: job %llu: wall %.3f s, cpu %.3f s, peak rss "
                 "%.1f MB, check %.3f s\n",
                 static_cast<unsigned long long>(tally.attempted),
                 sample.wall_s, sample.cpu_s, sample.peak_rss_mb,
                 now_s() - start);
  }
  if (!sample.ok) {
    ++tally.failed;
    std::fprintf(stderr, "perfbench: run %llu failed: %s\n",
                 static_cast<unsigned long long>(tally.attempted),
                 sample.error.c_str());
  }
  return sample;
}

void print_result(const Tally& tally, const Metrics& metrics,
                  const MetricDef* defs, std::size_t count) {
  std::fprintf(stderr, "%-38s %16s  %s\n", "metric", "value", "unit");
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    for (const auto& [name, v] : metrics) {
      if (name == defs[i].name) value = v;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    std::fprintf(stderr, "%-38s %16.6g  %s\n", defs[i].name, value,
                 defs[i].unit);
    if (i > 0) json += ", ";
    json += std::string("\"") + defs[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int bench_main(const Options& opt) {
  const Workload& w = *find_workload(opt.workload);
  fs::create_directories(opt.work);
  Tally tally;

  if (opt.trace) {
    // Inputs may come from the cache; set-up time is not reported here.
    const Inputs in = ensure_inputs(w, opt, /*regenerate=*/false);
    const Reference ref(w, in, opt.work);
    std::vector<double> walls;
    for (int i = 0; i < kTracedBaselineJobs; ++i) {
      const JobSample sample = timed_job(opt, ref, tally, false);
      if (sample.ok) walls.push_back(sample.wall_s);
    }
    fs::remove_all(opt.work / "run");
    TracedOutcome traced = traced_run(w, opt, in, ref, median(walls));
    ++tally.attempted;
    if (!traced.ok) {
      ++tally.failed;
      std::fprintf(stderr, "perfbench: traced run failed: %s\n",
                   traced.error.c_str());
    }
    traced.metrics.emplace_back(
        "failed_run_ratio", static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted));
    print_result(tally, traced.metrics, kPerLayer, std::size(kPerLayer));
    fs::remove_all(opt.work / "run");
    return 0;
  }

  // Set-up: input generation, the reference output and engine
  // construction, repeated; each repeat regenerates the inputs.
  std::vector<double> setup_times;
  std::unique_ptr<Reference> ref;
  Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = now_s();
    ref.reset();
    in = ensure_inputs(w, opt, /*regenerate=*/true);
    const double generated = now_s();
    ref = std::make_unique<Reference>(w, in, opt.work);
    const double referenced = now_s();
    if (w.cluster) {
      cluster::ClusterEngine engine(make_cluster_config());
    }
    setup_times.push_back(now_s() - start);
    std::fprintf(stderr,
                 "perfbench: set-up %d: inputs %.3f s, reference %.3f s, "
                 "engine %.3f s\n",
                 i + 1, generated - start, referenced - generated,
                 now_s() - referenced);
  }
  // No warm-up job: set-up has just written the inputs, so they are in
  // the page cache, and each job is a fresh process with nothing to warm.
  std::vector<double> walls, cpus, rss;
  const double loop_start = now_s();
  int timed = 0;
  while (timed < kMinTimedJobs || now_s() - loop_start < opt.seconds) {
    ++timed;
    const JobSample sample =
        timed_job(opt, *ref, tally, timed == opt.corrupt_run);
    if (!sample.ok) continue;
    walls.push_back(sample.wall_s);
    cpus.push_back(sample.cpu_s);
    rss.push_back(sample.peak_rss_mb);
  }
  fs::remove_all(opt.work / "run");

  const double wall = median(walls);
  const Metrics metrics = {
      {"job_wall_s", wall},
      {"input_mb_per_s", wall > 0 ? static_cast<double>(in.bytes) / 1e6 / wall : 0.0},
      {"cpu_s", median(cpus)},
      {"peak_rss_mb", median(rss)},
      {"setup_s", median(setup_times)},
  };
  std::fprintf(stderr, "perfbench: %s seed %llu: %d timed jobs, input %.1f MB\n",
               w.name, static_cast<unsigned long long>(opt.seed), timed,
               static_cast<double>(in.bytes) / 1e6);
  print_result(tally, metrics, kEndToEnd, std::size(kEndToEnd));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  if (mode != "bench" && mode != "job") usage("mode must be bench or job");
  const Options opt = parse_options(argc, argv);
  try {
    return mode == "bench" ? bench_main(opt) : job_main(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
