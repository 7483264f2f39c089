// Ablation harness for the design choices DESIGN.md calls out (§5):
//
//  C. frequent-key table budget — sensitivity of FreqOpt to the fraction
//     of the spill buffer devoted to the table (the paper fixes 30%);
//  D. sampling fraction s — fixed paper values vs the §III-C auto-tuner.

#include <cstdio>

#include "bench_util.hpp"

using namespace textmr;

namespace {

double run_seconds(mr::JobSpec spec) {
  mr::LocalEngine engine;
  const auto result = engine.run(spec);
  return static_cast<double>(result.metrics.work.total_ns()) * 1e-9;
}

}  // namespace

int main() {
  bench::JsonReport report("ablation_design_choices");
  std::printf("Ablations over WordCount (serialized work seconds)\n\n");
  const auto app = apps::wordcount_app();

  {
    std::printf("C. frequent-key table budget (fraction of spill buffer)\n");
    for (const double fraction : {0.1, 0.3, 0.5, 0.7}) {
      TempDir dir("textmr-ablation");
      auto spec = bench::make_bench_job(app, bench::kFreqOpt, dir.path());
      spec.freqbuf.table_budget_fraction = fraction;
      std::printf("   %-16.1f %s\n", fraction,
                  bench::secs(run_seconds(std::move(spec))).c_str());
    }
  }

  {
    std::printf("\nD. sampling fraction s: fixed vs auto-tuned (0 = auto)\n");
    mr::LocalEngine engine;
    for (const double s : {0.01, 0.1, 0.3, 0.0}) {
      TempDir dir("textmr-ablation");
      auto spec = bench::make_bench_job(app, bench::kFreqOpt, dir.path());
      spec.freqbuf.sampling_fraction = s;
      const auto result = engine.run(spec);
      double effective_s = 0.0;
      for (const auto& task : result.map_tasks) {
        effective_s = std::max(effective_s, task.freq_sampling_fraction);
      }
      std::printf("   s=%-5.2f (eff %.3f) work %-9s freq hits %llu\n", s,
                  effective_s,
                  bench::secs(static_cast<double>(
                                  result.metrics.work.total_ns()) *
                              1e-9)
                      .c_str(),
                  static_cast<unsigned long long>(
                      result.metrics.work.freq_hits));
    }
  }
  return 0;
}
