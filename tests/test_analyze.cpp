// Tests for the offline trace analyzer (ISSUE 6): phase partition,
// critical-path decomposition, straggler attribution, worker lanes, and
// the Chrome trace file loader — all on hand-built synthetic traces
// with exactly known timings, so every expected number is derivable by
// hand from the event list.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "textmr.hpp"

namespace textmr {
namespace {

obs::TraceEvent span(const char* name, std::uint64_t ts_ns,
                     std::uint64_t dur_ns, std::uint32_t pid,
                     std::uint32_t tid = 0) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "test";
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.pid = pid;
  e.tid = tid;
  e.kind = obs::EventKind::kSpan;
  return e;
}

obs::TraceEvent instant(const char* name, std::uint64_t ts_ns,
                        std::uint32_t pid, std::uint32_t tid = 0) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "test";
  e.ts_ns = ts_ns;
  e.pid = pid;
  e.tid = tid;
  e.kind = obs::EventKind::kInstant;
  return e;
}

/// A synthetic 20µs cluster job with exactly known structure:
///
///   [0, 1000)      startup (first event at ts 0, map_phase starts 1000)
///   [1000, 10000)  map_phase; tasks 0 (4000ns), 1 (8000ns, gating) and a
///                  speculative loser 2 that ends at 11000 — after the
///                  phase, so it must NOT be picked as the gating task
///   [10000, 12000) barrier
///   [12000, 18000) reduce_phase; partitions 0 (5000ns, gating), 1 (3000)
///   [18000, 20000) finalize (output_close driver span)
///
/// Worker lanes: worker 0 (pid 200000) runs map 0, the loser attempt and
/// reduce 0; worker 1 (pid 200001) runs map 1 and reduce 1. All
/// timestamps are multiples of 1000ns so the Chrome µs round-trip below
/// is exact.
obs::TraceData synthetic_cluster_trace() {
  obs::TraceData t;
  t.enabled = true;
  t.job_name = "synthetic";
  t.epoch_ns = 0;
  t.events.push_back(instant("map_dispatch", 0, obs::kDriverPid));
  t.events.push_back(span("map_phase", 1000, 9000, obs::kDriverPid));
  t.events.push_back(span("map_task", 1000, 4000, obs::map_task_pid(0)));
  t.events.push_back(span("map_exec", 1000, 4000, obs::worker_pid(0)));
  t.events.push_back(span("map_task", 1500, 8000, obs::map_task_pid(1)));
  t.events.push_back(span("map_exec", 1500, 8000, obs::worker_pid(1)));
  t.events.push_back(span("map_task", 2000, 9000, obs::map_task_pid(2)));
  t.events.push_back(span("map_exec", 2000, 9000, obs::worker_pid(0)));
  t.events.push_back(span("spill_sort", 2000, 300, obs::map_task_pid(0), 1));
  t.events.push_back(span("spill_sort", 3000, 200, obs::map_task_pid(1), 1));
  t.events.push_back(span("reduce_phase", 12000, 6000, obs::kDriverPid));
  t.events.push_back(span("reduce_task", 12000, 5000, obs::reduce_task_pid(0)));
  t.events.push_back(span("reduce_exec", 12000, 5000, obs::worker_pid(0)));
  t.events.push_back(span("reduce_task", 12500, 3000, obs::reduce_task_pid(1)));
  t.events.push_back(span("reduce_exec", 12500, 3000, obs::worker_pid(1)));
  t.events.push_back(span("shuffle", 13000, 400, obs::reduce_task_pid(0)));
  t.events.push_back(span("output_close", 18000, 2000, obs::kDriverPid));
  t.process_names.emplace_back(obs::worker_pid(0), "worker-0");
  t.process_names.emplace_back(obs::worker_pid(1), "worker-1");
  return t;
}

TEST(Analyze, PhasesPartitionTheWallExactly) {
  const obs::TraceAnalysis a = obs::analyze_trace(synthetic_cluster_trace());

  EXPECT_EQ(a.job_name, "synthetic");
  EXPECT_EQ(a.num_events, 17u);
  EXPECT_EQ(a.wall_ns, 20000u);
  EXPECT_FALSE(a.telemetry_incomplete);
  EXPECT_TRUE(a.unknown_event_names.empty());

  ASSERT_EQ(a.phases.size(), 5u);
  const char* expected_names[] = {"startup", "map_phase", "barrier",
                                  "reduce_phase", "finalize"};
  const std::uint64_t expected_start[] = {0, 1000, 10000, 12000, 18000};
  const std::uint64_t expected_dur[] = {1000, 9000, 2000, 6000, 2000};
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.phases[i].name, expected_names[i]) << i;
    EXPECT_EQ(a.phases[i].start_ns, expected_start[i]) << i;
    EXPECT_EQ(a.phases[i].dur_ns, expected_dur[i]) << i;
    // Contiguous partition: each phase starts where the previous ended.
    EXPECT_EQ(a.phases[i].start_ns, covered) << i;
    covered += a.phases[i].dur_ns;
  }
  EXPECT_EQ(covered, a.wall_ns);
}

TEST(Analyze, CriticalPathCoversTheWallAndSkipsSpeculativeLosers) {
  const obs::TraceAnalysis a = obs::analyze_trace(synthetic_cluster_trace());

  // The map phase decomposes around task 1 (ends 9500, inside the
  // phase), NOT task 2 (the longest attempt, but it ends at 11000 —
  // after the phase closed, so it lost the speculative race and cannot
  // be what released the barrier).
  ASSERT_EQ(a.critical_path.size(), 9u);
  EXPECT_EQ(a.critical_path[0].label, "startup");
  EXPECT_EQ(a.critical_path[0].dur_ns, 1000u);
  EXPECT_EQ(a.critical_path[1].label, "map waves before critical task 1");
  EXPECT_EQ(a.critical_path[1].dur_ns, 500u);
  EXPECT_EQ(a.critical_path[2].label, "map critical task 1");
  EXPECT_EQ(a.critical_path[2].dur_ns, 8000u);
  EXPECT_EQ(a.critical_path[3].label, "map completion tail");
  EXPECT_EQ(a.critical_path[3].dur_ns, 500u);
  EXPECT_EQ(a.critical_path[4].label, "barrier");
  EXPECT_EQ(a.critical_path[4].dur_ns, 2000u);
  EXPECT_EQ(a.critical_path[5].label, "reduce waves before critical task 0");
  EXPECT_EQ(a.critical_path[5].dur_ns, 0u);
  EXPECT_EQ(a.critical_path[6].label, "reduce critical task 0");
  EXPECT_EQ(a.critical_path[6].dur_ns, 5000u);
  EXPECT_EQ(a.critical_path[7].label, "reduce completion tail");
  EXPECT_EQ(a.critical_path[7].dur_ns, 1000u);
  EXPECT_EQ(a.critical_path[8].label, "finalize");
  EXPECT_EQ(a.critical_path[8].dur_ns, 2000u);

  // Exhaustive phase partition + exhaustive phase decomposition =>
  // the path accounts for every wall nanosecond.
  EXPECT_EQ(a.critical_path_ns, a.wall_ns);
  EXPECT_DOUBLE_EQ(a.critical_path_coverage(), 1.0);
}

TEST(Analyze, StragglersAndMediansFromTaskSpans) {
  const obs::TraceAnalysis a = obs::analyze_trace(synthetic_cluster_trace());

  // Map durations {4000, 8000, 9000}: median (upper) 8000, slowest first.
  EXPECT_EQ(a.median_map_task_ns, 8000u);
  ASSERT_EQ(a.slowest_map_tasks.size(), 3u);
  EXPECT_EQ(a.slowest_map_tasks[0].id, 2u);
  EXPECT_EQ(a.slowest_map_tasks[0].dur_ns, 9000u);
  EXPECT_EQ(a.slowest_map_tasks[1].id, 1u);
  EXPECT_EQ(a.slowest_map_tasks[2].id, 0u);

  // Reduce durations {5000, 3000}: upper median 5000.
  EXPECT_EQ(a.median_reduce_task_ns, 5000u);
  ASSERT_EQ(a.slowest_reduce_tasks.size(), 2u);
  EXPECT_EQ(a.slowest_reduce_tasks[0].id, 0u);
  EXPECT_EQ(a.slowest_reduce_tasks[0].dur_ns, 5000u);
}

TEST(Analyze, ReduceStragglersAttributeShuffleBytes) {
  // Every run leaves a driver "partition_bytes" instant per reduce
  // partition in the trace. The straggler table must fold them onto the
  // reduce task spans so a slow reducer shows the volume it received.
  obs::TraceData t = synthetic_cluster_trace();
  const auto volume = [](std::uint32_t partition, double bytes) {
    obs::TraceEvent e = instant("partition_bytes", 17000, obs::kDriverPid);
    e.num_args = 2;
    e.arg_names[0] = "partition";
    e.args[0] = partition;
    e.arg_names[1] = "bytes";
    e.args[1] = bytes;
    return e;
  };
  t.events.push_back(volume(0, 48.0 * 1024));
  t.events.push_back(volume(1, 4.0 * 1024));

  const obs::TraceAnalysis a = obs::analyze_trace(t);
  ASSERT_EQ(a.slowest_reduce_tasks.size(), 2u);
  EXPECT_EQ(a.slowest_reduce_tasks[0].id, 0u);
  EXPECT_EQ(a.slowest_reduce_tasks[0].shuffled_bytes, 48u * 1024);
  EXPECT_EQ(a.slowest_reduce_tasks[1].id, 1u);
  EXPECT_EQ(a.slowest_reduce_tasks[1].shuffled_bytes, 4u * 1024);
  // partition_bytes is a known instant, not an unknown-name complaint.
  EXPECT_TRUE(a.unknown_event_names.empty());

  const std::string text = obs::format_analysis(a);
  EXPECT_NE(text.find("reduce stragglers:"), std::string::npos);
  EXPECT_NE(text.find("48.0 KB shuffled"), std::string::npos);

  const auto parsed = obs::JsonValue::parse(obs::format_analysis_json(a));
  ASSERT_TRUE(parsed.has_value());
  const auto& stragglers = parsed->get("slowest_reduce_tasks")->array();
  ASSERT_EQ(stragglers.size(), 2u);
  EXPECT_DOUBLE_EQ(stragglers[0].get("shuffled_bytes")->number_or(0.0),
                   48.0 * 1024);
}

TEST(Analyze, StragglerTableOmittedWithoutSkewEvidence) {
  // A trace without partition_bytes instants: the text report keeps the
  // one-line "slowest partition" summary and skips the per-straggler
  // table.
  const obs::TraceAnalysis a = obs::analyze_trace(synthetic_cluster_trace());
  for (const auto& task : a.slowest_reduce_tasks) {
    EXPECT_EQ(task.shuffled_bytes, 0u);
  }
  const std::string text = obs::format_analysis(a);
  EXPECT_NE(text.find("slowest partition"), std::string::npos);
  EXPECT_EQ(text.find("reduce stragglers:"), std::string::npos);
}

TEST(Analyze, WorkerLanesUseExecSpansAndProcessNames) {
  const obs::TraceAnalysis a = obs::analyze_trace(synthetic_cluster_trace());

  // Window = [map_phase start 1000, reduce_phase end 18000) = 17000ns.
  ASSERT_EQ(a.workers.size(), 2u);
  const auto& w0 = a.workers[0];
  EXPECT_EQ(w0.pid, obs::worker_pid(0));
  EXPECT_EQ(w0.name, "worker-0");
  EXPECT_EQ(w0.window_ns, 17000u);
  // Busy 4000 + 9000 + 5000 = 18000, clamped to the window => idle 0.
  EXPECT_EQ(w0.busy_ns, 18000u);
  EXPECT_EQ(w0.tasks, 3u);
  EXPECT_DOUBLE_EQ(w0.idle_fraction, 0.0);

  const auto& w1 = a.workers[1];
  EXPECT_EQ(w1.pid, obs::worker_pid(1));
  EXPECT_EQ(w1.name, "worker-1");
  EXPECT_EQ(w1.busy_ns, 11000u);
  EXPECT_EQ(w1.tasks, 2u);
  EXPECT_DOUBLE_EQ(w1.idle_fraction, 6000.0 / 17000.0);
}

TEST(Analyze, OpTotalsExcludeContainerSpans) {
  const obs::TraceAnalysis a = obs::analyze_trace(synthetic_cluster_trace());

  // output_close (2000), spill_sort (300 + 200), shuffle (400) — the
  // driver's output_close span is leaf work too, just on pid 0.
  ASSERT_EQ(a.op_totals.size(), 3u);
  EXPECT_EQ(a.op_totals[0].name, "output_close");
  EXPECT_EQ(a.op_totals[0].total_ns, 2000u);
  EXPECT_EQ(a.op_totals[1].name, "spill_sort");
  EXPECT_EQ(a.op_totals[1].total_ns, 500u);
  EXPECT_EQ(a.op_totals[1].count, 2u);
  EXPECT_EQ(a.op_totals[2].name, "shuffle");
  EXPECT_EQ(a.op_totals[2].total_ns, 400u);
  EXPECT_EQ(a.op_totals[2].count, 1u);
  for (const auto& op : a.op_totals) {
    EXPECT_NE(op.name, "map_phase");
    EXPECT_NE(op.name, "map_task");
    EXPECT_NE(op.name, "map_exec");
  }
}

TEST(Analyze, UnknownEventNamesSurface) {
  obs::TraceData t = synthetic_cluster_trace();
  t.events.push_back(instant("mystery_op", 5000, obs::kDriverPid));
  const obs::TraceAnalysis a = obs::analyze_trace(t);
  ASSERT_EQ(a.unknown_event_names.size(), 1u);
  EXPECT_EQ(a.unknown_event_names[0], "mystery_op");
}

TEST(Analyze, TraceWithoutPhaseSpansFallsBackToUntracked) {
  obs::TraceData t;
  t.enabled = true;
  t.events.push_back(span("spill_sort", 100, 400, 1, 1));
  t.events.push_back(span("spill_write", 600, 900, 1, 1));
  const obs::TraceAnalysis a = obs::analyze_trace(t);

  EXPECT_EQ(a.wall_ns, 1400u);  // [100, 1500)
  ASSERT_EQ(a.phases.size(), 1u);
  EXPECT_EQ(a.phases[0].name, "untracked");
  EXPECT_EQ(a.phases[0].dur_ns, 1400u);
  ASSERT_EQ(a.critical_path.size(), 1u);
  EXPECT_DOUBLE_EQ(a.critical_path_coverage(), 1.0);
}

TEST(Analyze, EmptyTraceYieldsEmptyAnalysis) {
  const obs::TraceAnalysis a = obs::analyze_trace(obs::TraceData{});
  EXPECT_EQ(a.num_events, 0u);
  EXPECT_EQ(a.wall_ns, 0u);
  EXPECT_TRUE(a.phases.empty());
  EXPECT_TRUE(a.critical_path.empty());
  EXPECT_DOUBLE_EQ(a.critical_path_coverage(), 0.0);
}

TEST(Analyze, FormatsMentionTheHeadlineNumbers) {
  const obs::TraceAnalysis a = obs::analyze_trace(synthetic_cluster_trace());

  const std::string text = obs::format_analysis(a);
  EXPECT_NE(text.find("synthetic"), std::string::npos);
  EXPECT_NE(text.find("map_phase"), std::string::npos);
  EXPECT_NE(text.find("critical path (100.0% of wall)"), std::string::npos);
  EXPECT_NE(text.find("worker-1"), std::string::npos);

  const std::string json = obs::format_analysis_json(a);
  const auto parsed = obs::JsonValue::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("job")->string_value(), "synthetic");
  EXPECT_EQ(parsed->get("phases")->array().size(), 5u);
  EXPECT_DOUBLE_EQ(parsed->get("critical_path_coverage")->number_or(0.0), 1.0);
}

// ---- file loaders ---------------------------------------------------------

class AnalyzeFileTest : public ::testing::Test {
 protected:
  TempDir dir_{"textmr-analyze-test"};
};

TEST_F(AnalyzeFileTest, ChromeTraceRoundTripsThroughLoadTraceFile) {
  obs::TraceData original = synthetic_cluster_trace();
  original.dropped_events = 7;
  original.incomplete = true;
  original.ring_drops.push_back({obs::map_task_pid(0), 1, 7});

  const auto path = dir_.file("job.trace.json");
  obs::write_file(path, obs::format_chrome_trace(original));
  const obs::TraceData loaded = obs::load_trace_file(path);

  EXPECT_EQ(loaded.job_name, "synthetic");
  EXPECT_EQ(loaded.dropped_events, 7u);
  EXPECT_TRUE(loaded.incomplete);
  ASSERT_EQ(loaded.ring_drops.size(), 1u);
  EXPECT_EQ(loaded.ring_drops[0].pid, obs::map_task_pid(0));
  EXPECT_EQ(loaded.ring_drops[0].dropped, 7u);
  ASSERT_EQ(loaded.events.size(), original.events.size());

  // Every synthetic timestamp is a multiple of 1000ns, so the µs Chrome
  // encoding is lossless and the reloaded analysis must be identical.
  const obs::TraceAnalysis before = obs::analyze_trace(original);
  const obs::TraceAnalysis after = obs::analyze_trace(loaded);
  EXPECT_EQ(after.wall_ns, before.wall_ns);
  EXPECT_EQ(after.critical_path_ns, before.critical_path_ns);
  ASSERT_EQ(after.phases.size(), before.phases.size());
  for (std::size_t i = 0; i < before.phases.size(); ++i) {
    EXPECT_EQ(after.phases[i].name, before.phases[i].name);
    EXPECT_EQ(after.phases[i].dur_ns, before.phases[i].dur_ns);
  }
  ASSERT_EQ(after.workers.size(), 2u);
  EXPECT_EQ(after.workers[0].name, "worker-0");  // M-event metadata survived
  EXPECT_TRUE(after.unknown_event_names.empty());
}

TEST_F(AnalyzeFileTest, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_THROW((void)obs::load_trace_file(dir_.file("absent.json")), IoError);
  const auto bad = dir_.file("bad.json");
  obs::write_file(bad, "{\"traceEvents\": [{\"ph\": ");
  EXPECT_THROW((void)obs::load_trace_file(bad), FormatError);
  // One event object per line is not a trace file.
  obs::write_file(bad, "{\"ph\": \"i\"}\n{\"ph\": \"i\"}\n");
  EXPECT_THROW((void)obs::load_trace_file(bad), FormatError);
}

// ---- merge / rebase determinism -------------------------------------------

/// Builds the per-worker chunk traces a cluster run would ship: the
/// driver's own trace plus two worker traces whose clocks run ahead of
/// the coordinator's by a known offset.
std::vector<obs::TraceData> synthetic_chunks() {
  std::vector<obs::TraceData> chunks;
  obs::TraceData w0;
  w0.enabled = true;
  w0.events.push_back(span("map_exec", 5000, 400, obs::worker_pid(0)));
  w0.events.push_back(
      instant("spill_seal", 5200, obs::worker_pid(0)));
  w0.process_names.emplace_back(obs::worker_pid(0), "worker-0");
  chunks.push_back(std::move(w0));

  obs::TraceData w1;
  w1.enabled = true;
  w1.events.push_back(span("reduce_exec", 6000, 300, obs::worker_pid(1)));
  w1.ring_drops.push_back({obs::worker_pid(1), 0, 2});
  w1.dropped_events = 2;
  w1.process_names.emplace_back(obs::worker_pid(1), "worker-1");
  chunks.push_back(std::move(w1));
  return chunks;
}

TEST(Analyze, MergedTraceIsByteIdenticalAcrossRuns) {
  // Same chunk set, merged twice in the same order, must render to the
  // exact same bytes — the determinism the golden CI artifacts rely on.
  std::string rendered[2];
  for (auto& out : rendered) {
    obs::TraceData job = synthetic_cluster_trace();
    for (auto& chunk : synthetic_chunks()) {
      obs::merge_trace(job, std::move(chunk));
    }
    out = obs::format_chrome_trace(job);
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_FALSE(rendered[0].empty());
}

TEST(Analyze, RebaseAlignsWorkerClocksBeforeMerge) {
  // Worker 0's clock runs 2000ns ahead of the coordinator: its events
  // carry worker timestamps that must be rebased by the handshake offset
  // before merging, after which its exec span lines up with the
  // coordinator timeline exactly.
  obs::TraceData job = synthetic_cluster_trace();
  auto chunks = synthetic_chunks();
  obs::rebase_trace(chunks[0], 2000);   // worker-minus-coordinator offset
  obs::rebase_trace(chunks[1], -1000);  // and one running behind
  for (auto& chunk : chunks) obs::merge_trace(job, std::move(chunk));

  std::vector<std::uint64_t> w0_exec_ts;
  std::vector<std::uint64_t> w1_exec_ts;
  for (const auto& e : job.events) {
    if (e.pid == obs::worker_pid(0) &&
        std::string_view(e.name) == "map_exec") {
      w0_exec_ts.push_back(e.ts_ns);
    }
    if (e.pid == obs::worker_pid(1) &&
        std::string_view(e.name) == "reduce_exec") {
      w1_exec_ts.push_back(e.ts_ns);
    }
  }
  // The base trace has exec spans of its own; the chunk events land at
  // their rebased timestamps among them.
  EXPECT_NE(std::find(w0_exec_ts.begin(), w0_exec_ts.end(), 3000u),
            w0_exec_ts.end());  // 5000 - 2000
  EXPECT_NE(std::find(w1_exec_ts.begin(), w1_exec_ts.end(), 7000u),
            w1_exec_ts.end());  // 6000 - (-1000)
  EXPECT_EQ(job.dropped_events, 2u);

  // The merged trace analyzes cleanly: worker lanes for both workers,
  // with the rebased busy time intact (durations are offset-invariant).
  const obs::TraceAnalysis a = obs::analyze_trace(job);
  bool saw_w0 = false;
  for (const auto& lane : a.workers) {
    if (lane.pid == obs::worker_pid(0)) {
      saw_w0 = true;
      EXPECT_EQ(lane.busy_ns, 18000u + 400u);
    }
  }
  EXPECT_TRUE(saw_w0);
}

}  // namespace
}  // namespace textmr
