// Observability smoke check, run in CI: executes WordCount under the
// baseline and combined settings with tracing enabled, then asserts that
// the exported artifacts are usable — the Chrome trace parses as JSON and
// contains the spill lifecycle events (seal, sort, write) plus the
// spill-matcher's threshold updates, and the bench JSON artifact carries
// non-zero wall/work numbers. A final cluster-mode pass (ISSUE 6) runs
// the same job across forked workers and checks the merged cross-process
// trace, the per-worker telemetry, and the critical-path analyzer on the
// real artifact. Exits non-zero on any failure so CI fails loudly rather
// than shipping a broken exporter.
//
// Set TEXTMR_SMOKE_TRACE_OUT to a path to also write the merged cluster
// Chrome trace there (CI feeds it to textmr-analyze and uploads it).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "mr/report.hpp"

using namespace textmr;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

mr::JobResult run_traced(const apps::AppBundle& app,
                         const bench::Setting& setting) {
  TempDir scratch("textmr-smoke");
  auto spec = bench::make_bench_job(app, setting, scratch.path());
  spec.trace.enabled = true;
  mr::LocalEngine engine;
  auto result = engine.run(spec);
  if (auto* report = bench::JsonReport::active()) {
    report->add_job(app.name, setting.name, result);
  }
  return result;
}

void check_trace(const mr::JobResult& result, const bench::Setting& setting) {
  const auto& trace = result.trace;
  std::printf("-- %s: %zu trace events\n", setting.name, trace.events.size());
  expect(trace.enabled, "trace data present");
  expect(!trace.events.empty(), "trace has events");

  const std::string chrome = obs::format_chrome_trace(trace);
  expect(obs::json_valid(chrome), "chrome trace is valid JSON");

  expect(obs::count_events(trace, "map_task") > 0, "map_task spans");
  expect(obs::count_events(trace, "spill_seal") > 0, "spill_seal events");
  expect(obs::count_events(trace, "spill_sort") > 0, "spill_sort spans");
  expect(obs::count_events(trace, "spill_write") > 0, "spill_write spans");
  expect(obs::count_events(trace, "reduce_task") > 0, "reduce_task spans");
  expect(obs::count_events(trace, "shuffle") > 0, "shuffle spans");
  expect(!obs::counter_series(trace, "spill_threshold").empty(),
         "spill_threshold counter series");
  if (setting.matcher) {
    expect(obs::count_events(trace, "threshold_update") > 0,
           "spill-matcher threshold updates");
  }
  if (setting.freq) {
    expect(obs::count_events(trace, "freq_profile_begin") > 0,
           "freq profile begin");
  }

  const std::string metrics = mr::format_job_metrics_json(result, "smoke");
  expect(obs::json_valid(metrics), "metrics JSON is valid");
  expect(result.metrics.job_wall_ns > 0, "non-zero job wall");
  expect(result.metrics.work.total_ns() > 0, "non-zero total work");
}

// Cluster-mode pass: the same job forked across two workers must come
// back with one coherent timeline (worker rows merged and clock-aligned),
// complete per-worker telemetry, and an analyzer critical path that
// accounts for (nearly) the whole wall.
void check_cluster_trace(const apps::AppBundle& app) {
  TempDir scratch("textmr-smoke-cluster");
  auto spec = bench::make_bench_job(app, bench::kBaseline, scratch.path());
  spec.trace.enabled = true;
  cluster::ClusterConfig config;
  config.num_workers = 2;
  cluster::ClusterEngine engine(config);
  const auto result = engine.run(spec);
  if (auto* report = bench::JsonReport::active()) {
    report->add_job(app.name, "Cluster2", result);
  }
  const auto& trace = result.trace;
  std::printf("-- Cluster2: %zu trace events\n", trace.events.size());
  expect(trace.enabled, "cluster trace data present");

  bool worker0 = false;
  bool worker1 = false;
  for (const auto& event : trace.events) {
    if (event.pid == obs::worker_pid(0)) worker0 = true;
    if (event.pid == obs::worker_pid(1)) worker1 = true;
  }
  expect(worker0 && worker1, "events from every worker pid");
  expect(obs::count_events(trace, "map_exec") > 0, "worker map_exec spans");
  expect(obs::count_events(trace, "clock_sync") == 2,
         "one clock handshake per worker");
  expect(!trace.incomplete, "telemetry complete");
  expect(result.metrics.workers.size() == 2, "per-worker telemetry entries");
  std::uint64_t worker_tasks = 0;
  for (const auto& w : result.metrics.workers) {
    worker_tasks += w.tasks_completed;
  }
  expect(worker_tasks > 0, "workers reported completed tasks");

  const std::string metrics = mr::format_job_metrics_json(result, "smoke");
  expect(obs::json_valid(metrics), "cluster metrics JSON is valid");
  expect(metrics.find("\"cluster\"") != std::string::npos,
         "metrics JSON has cluster section");

  const obs::TraceAnalysis analysis = obs::analyze_trace(trace);
  std::printf("-- analyzer: wall %.3fs, critical path %.1f%%\n",
              static_cast<double>(analysis.wall_ns) * 1e-9,
              100.0 * analysis.critical_path_coverage());
  expect(analysis.critical_path_coverage() >= 0.95,
         "critical path covers >=95% of wall");
  expect(analysis.unknown_event_names.empty(), "no unknown event names");

  const char* trace_out = std::getenv("TEXTMR_SMOKE_TRACE_OUT");
  if (trace_out != nullptr && trace_out[0] != '\0') {
    obs::write_file(trace_out, obs::format_chrome_trace(trace));
    std::printf("-- merged cluster trace written to %s\n", trace_out);
  }
}

}  // namespace

int main() {
  bench::JsonReport report("smoke_observability");
  const auto app = apps::wordcount_app();

  check_trace(run_traced(app, bench::kBaseline), bench::kBaseline);
  check_trace(run_traced(app, bench::kCombined), bench::kCombined);
  check_cluster_trace(app);

  report.add_note("failures", static_cast<double>(g_failures));
  if (g_failures > 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall observability checks passed\n");
  return 0;
}
