// Reproduces Table III: overall job runtimes on the paper's local
// cluster (6 worker nodes, 12 mappers + 12 reducers) under the four
// settings, at the paper's input scales (8.52 GB corpus, 18.68 GB logs,
// 22.89 GB crawl).
//
// Method (DESIGN.md §2): each app × {baseline, freqbuf} is *measured* on
// the real engine at MB scale to extract a per-byte AppProfile, then the
// cluster simulator composes that profile over the 6-node cluster; the
// spill-matcher settings replay the same profiles through the §IV-C
// pipeline model with the adaptive threshold. Absolute seconds depend on
// the cpu_scale calibration constant; the *ratios* are the reproduction
// target.
//
// Paper: Combined = 60.8% of baseline for WordCount (571s -> 347s, the
// headline "up to 39.1%"), 65.7% InvertedIndex, 98.1% WordPOSTag,
// 95.4%/96.0% AccessLogSum/Join, 88.2% PageRank.

// `--real [workers]` switches from the calibrated simulator to *actual*
// multi-process execution: every app x setting runs on the ClusterEngine
// (forked workers, heartbeats, speculative execution) at bench scale,
// next to a LocalEngine run of the identical spec, so the abstraction
// cost of process isolation + a TCP shuffle is measured rather than
// modeled. Absolute seconds are bench-scale; ratios are the signal.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.hpp"

using namespace textmr;

namespace {

int run_real_cluster(std::uint32_t workers) {
  bench::JsonReport report("table3_real_cluster");
  report.add_note("mode", "real multi-process execution");
  std::printf(
      "Table III (real-execution mode) — ClusterEngine, %u forked workers\n"
      "per cell: cluster wall | local wall (same spec on the thread "
      "engine)\n\n",
      workers);
  std::printf("%-14s | %-22s %-22s %-22s %-22s\n", "Application", "Baseline",
              "FreqOpt", "SpillOpt", "Combined");
  bench::print_rule('-', 110);

  for (const auto& app : bench::bench_apps()) {
    std::printf("%-14s |", app.name.c_str());
    for (const auto& setting : bench::kAllSettings) {
      TempDir scratch("textmr-bench-cluster");
      auto spec = bench::make_bench_job(app, setting, scratch.path());

      cluster::ClusterConfig config;
      config.num_workers = workers;
      Stopwatch cluster_watch;
      cluster_watch.start();
      const auto cluster_result = cluster::ClusterEngine(config).run(spec);
      cluster_watch.stop();
      const double cluster_s = cluster_watch.total_seconds();
      report.add_job(app.name, std::string(setting.name) + "/cluster",
                     cluster_result);

      TempDir local_scratch("textmr-bench-local");
      auto local_spec =
          bench::make_bench_job(app, setting, local_scratch.path());
      Stopwatch local_watch;
      local_watch.start();
      const auto local_result = mr::LocalEngine().run(local_spec);
      local_watch.stop();
      const double local_s = local_watch.total_seconds();
      report.add_job(app.name, std::string(setting.name) + "/local",
                     local_result);

      std::printf(" %6.2fs | %6.2fs     ", cluster_s, local_s);
    }
    std::printf("\n");
  }
  std::printf(
      "\nThe cluster column prices the multi-process abstraction: fork,\n"
      "loopback TCP control traffic, heartbeats and a shuffle pulled from\n"
      "per-worker shuffle servers instead of shared memory. Output bytes\n"
      "are engine-independent (enforced by the cross-engine differential\n"
      "battery).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--real") == 0) {
    const std::uint32_t workers =
        argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10))
                 : 4u;
    return run_real_cluster(workers == 0 ? 4u : workers);
  }
  bench::JsonReport report("table3_local_cluster");
  std::printf(
      "Table III — simulated local-cluster runtimes (4 settings x 6 apps)\n"
      "cluster: 6 nodes x (2 map + 2 reduce slots), profile-calibrated\n\n");
  std::printf("%-14s | %-16s %-16s %-16s %-16s\n", "Application", "Baseline",
              "FreqOpt", "SpillOpt", "Combined");
  bench::print_rule('-', 86);

  sim::ClusterSpec cluster;  // defaults model the paper's local cluster

  for (const auto& app : bench::bench_apps()) {
    // Two real measurement runs: baseline and frequency-buffering.
    const auto [base_profile, freq_profile] = bench::measure_profiles(app);

    sim::SimJobConfig job;
    job.input_bytes = bench::paper_input_bytes(app);
    job.num_reducers = 12;

    double seconds[4];
    int column = 0;
    for (const auto& setting : bench::kAllSettings) {
      auto config = job;
      config.use_spill_matcher = setting.matcher;
      config.freq_table_fraction = setting.freq ? 0.3 : 0.0;
      const auto& profile = setting.freq ? freq_profile : base_profile;
      seconds[column++] = sim::simulate_job(profile, cluster, config).total_s;
    }

    std::printf("%-14s |", app.name.c_str());
    for (int i = 0; i < 4; ++i) {
      std::printf(" %7.0fs (%5s) ", seconds[i],
                  bench::pct(seconds[i] / seconds[0]).c_str());
    }
    std::printf("\n");
  }

  std::printf(
      "\nPaper (Table III, %% of baseline): WordCount 78.4/78.7/60.8,\n"
      "InvertedIndex 77.8/78.0/65.7, WordPOSTag 99.4/100.0/98.1,\n"
      "AccessLogSum 97.4/96.6/95.4, AccessLogJoin 100.3/92.7/96.0,\n"
      "PageRank 92.9/96.3/88.2 (FreqOpt/SpillOpt/Combined).\n");
  return 0;
}
