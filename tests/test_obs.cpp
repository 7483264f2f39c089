// Tests for the observability subsystem (src/obs): the JSON writer and
// validity check, the trace ring buffers and collector, the Chrome trace
// exporter, the job-metrics JSON serializer, and the
// engine integration (a traced WordCount run carries a usable timeline).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "helpers.hpp"
#include "mr/report.hpp"
#include "textmr.hpp"

namespace textmr {
namespace {

// ---- JsonWriter -----------------------------------------------------------

TEST(JsonWriter, NestedDocumentIsValid) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "WordCount");
  w.field("tasks", std::uint64_t{6});
  w.field("fraction", 0.125);
  w.field("enabled", true);
  w.key("nothing").null();
  w.key("ops").begin_object();
  w.field("sort", std::uint64_t{123});
  w.field("merge", std::uint64_t{456});
  w.end_object();
  w.key("list").begin_array();
  w.value(1).value(2).value(3);
  w.begin_object().field("k", "v").end_object();
  w.end_array();
  w.end_object();
  const std::string json = w.take();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"sort\":123"), std::string::npos);
  EXPECT_NE(json.find("[1,2,3,{\"k\":\"v\"}]"), std::string::npos);
}

TEST(JsonWriter, EmptyContainers) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("a").begin_array().end_array();
  w.key("o").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":[],\"o\":{}}");
  EXPECT_TRUE(obs::json_valid(w.str()));
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("k\"ey\\", "line1\nline2\ttab\x01" "end");
  w.end_object();
  const std::string json = w.take();
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\\\"ey\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(0.0 / 0.0);  // NaN
  w.value(1e308 * 10);  // inf
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, RawSplicesSubdocument) {
  obs::JsonWriter inner;
  inner.begin_object().field("x", 1).end_object();
  obs::JsonWriter w;
  w.begin_object();
  w.key("inner").raw(inner.str());
  w.end_object();
  EXPECT_EQ(w.str(), "{\"inner\":{\"x\":1}}");
  EXPECT_TRUE(obs::json_valid(w.str()));
}

TEST(JsonValid, AcceptsRfc8259Documents) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[]"));
  EXPECT_TRUE(obs::json_valid("  {\"a\": [1, -2.5, 1e-3, \"s\", null]} "));
  EXPECT_TRUE(obs::json_valid("true"));
  EXPECT_TRUE(obs::json_valid("\"\\u00e9\\n\""));
  EXPECT_TRUE(obs::json_valid("0"));
}

TEST(JsonValid, RejectsMalformedDocuments) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{\"a\":}"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}"));
  EXPECT_FALSE(obs::json_valid("[1,]"));
  EXPECT_FALSE(obs::json_valid("{} extra"));
  EXPECT_FALSE(obs::json_valid("{'a':1}"));
  EXPECT_FALSE(obs::json_valid("\"unterminated"));
  EXPECT_FALSE(obs::json_valid("\"bad\\q\""));
  EXPECT_FALSE(obs::json_valid("\"raw\ncontrol\""));
  EXPECT_FALSE(obs::json_valid("01"));
  EXPECT_FALSE(obs::json_valid("nul"));
}

// ---- trace buffer / collector ---------------------------------------------

TEST(TraceBuffer, PreservesPerThreadOrder) {
  obs::TraceCollector collector(obs::TraceConfig{true, 1024});
  obs::TraceBuffer* buffer = collector.make_buffer(1, 0, "worker", "task_1");
  obs::record_instant(buffer, "t", "first");
  obs::record_instant(buffer, "t", "second");
  {
    obs::SpanTimer span(buffer, "t", "spanning");
    obs::record_instant(buffer, "t", "inside");
  }
  const auto trace = collector.finish();
  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_EQ(trace.dropped_events, 0u);
  // Events come back sorted by begin timestamp; the span began before
  // "inside" was recorded, so it sorts ahead of it.
  EXPECT_STREQ(trace.events[0].name, "first");
  EXPECT_STREQ(trace.events[1].name, "second");
  EXPECT_STREQ(trace.events[2].name, "spanning");
  EXPECT_STREQ(trace.events[3].name, "inside");
  EXPECT_EQ(trace.events[2].kind, obs::EventKind::kSpan);
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LE(trace.events[i - 1].ts_ns, trace.events[i].ts_ns);
  }
}

TEST(TraceBuffer, DropsOldestOnOverflow) {
  obs::TraceCollector collector(obs::TraceConfig{true, 64});  // min capacity
  obs::TraceBuffer* buffer = collector.make_buffer(1, 0, "worker");
  for (int i = 0; i < 100; ++i) {
    obs::record_instant(buffer, "t", "event", "i", static_cast<double>(i));
  }
  EXPECT_EQ(buffer->dropped(), 36u);
  const auto trace = collector.finish();
  ASSERT_EQ(trace.events.size(), 64u);
  EXPECT_EQ(trace.dropped_events, 36u);
  // The survivors are the newest 64, still in order.
  EXPECT_DOUBLE_EQ(trace.events.front().args[0], 36.0);
  EXPECT_DOUBLE_EQ(trace.events.back().args[0], 99.0);
}

TEST(TraceBuffer, NullBufferIsANoOp) {
  obs::record_instant(nullptr, "t", "nothing");
  obs::record_counter(nullptr, "t", "series", 1.0);
  obs::SpanTimer span(nullptr, "t", "nothing");
  span.arg("x", 1.0);
  span.done();
}

TEST(TraceCollector, ExportsChromeTrace) {
  obs::TraceCollector collector(obs::TraceConfig{true, 1024});
  collector.set_job_name("unit");
  obs::TraceBuffer* buffer = collector.make_buffer(7, 2, "support-1", "map_7");
  obs::record_counter(buffer, "spill", "spill_threshold", 0.8);
  {
    obs::SpanTimer span(buffer, "spill", "spill_sort");
    span.arg("records", 42.0);
  }
  const auto trace = collector.finish();

  const std::string chrome = obs::format_chrome_trace(trace);
  EXPECT_TRUE(obs::json_valid(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"spill_sort\""), std::string::npos);
  EXPECT_NE(chrome.find("process_name"), std::string::npos);
  EXPECT_NE(chrome.find("\"map_7\""), std::string::npos);
  EXPECT_NE(chrome.find("\"support-1\""), std::string::npos);

  const auto series = obs::counter_series(trace, "spill_threshold");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].value, 0.8);
  EXPECT_EQ(series[0].pid, 7u);
  EXPECT_EQ(obs::count_events(trace, "spill_sort"), 1u);
}

// ---- op_name exhaustiveness ------------------------------------------------

TEST(OpName, EveryOpHasADistinctName) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < mr::kNumOps; ++i) {
    const char* name = mr::op_name(static_cast<mr::Op>(i));
    ASSERT_NE(name, nullptr) << "op " << i;
    EXPECT_STRNE(name, "") << "op " << i;
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate op name: " << name;
  }
  EXPECT_EQ(names.size(), mr::kNumOps);
}

// ---- engine integration ----------------------------------------------------

class TracedJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("textmr-obs-test");
    corpus_ = dir_->path() / "corpus.txt";
    textgen::CorpusSpec spec;
    spec.total_words = 120'000;
    spec.vocabulary = 5'000;
    spec.seed = 99;
    textgen::generate_corpus(spec, corpus_.string());
  }

  mr::JobResult run(bool traced) {
    auto spec = test::make_job(
        apps::wordcount_app(),
        io::make_splits(corpus_.string(), 256u << 10),
        dir_->path() / (traced ? "scratch_t" : "scratch"),
        dir_->path() / (traced ? "out_t" : "out"));
    spec.spill_buffer_bytes = 64u << 10;  // force several spills
    spec.use_spill_matcher = true;
    spec.trace.enabled = traced;
    return mr::LocalEngine().run(spec);
  }

  std::unique_ptr<TempDir> dir_;
  std::filesystem::path corpus_;
};

TEST_F(TracedJobTest, DisabledTracingLeavesResultEmpty) {
  const auto result = run(false);
  EXPECT_FALSE(result.trace.enabled);
  EXPECT_TRUE(result.trace.events.empty());
}

TEST_F(TracedJobTest, TracedRunCarriesSpillTimeline) {
  const auto result = run(true);
  ASSERT_TRUE(result.trace.enabled);
  ASSERT_FALSE(result.trace.events.empty());

  EXPECT_GT(obs::count_events(result.trace, "map_phase"), 0u);
  EXPECT_GT(obs::count_events(result.trace, "reduce_phase"), 0u);
  EXPECT_GT(obs::count_events(result.trace, "map_task"), 0u);
  EXPECT_GT(obs::count_events(result.trace, "spill_seal"), 0u);
  EXPECT_GT(obs::count_events(result.trace, "spill_sort"), 0u);
  EXPECT_GT(obs::count_events(result.trace, "spill_write"), 0u);
  EXPECT_GT(obs::count_events(result.trace, "threshold_update"), 0u);
  EXPECT_GT(obs::count_events(result.trace, "shuffle"), 0u);
  EXPECT_FALSE(
      obs::counter_series(result.trace, "spill_threshold").empty());
  EXPECT_FALSE(obs::counter_series(result.trace, "buffer_fill").empty());

  const std::string chrome = obs::format_chrome_trace(result.trace);
  EXPECT_TRUE(obs::json_valid(chrome));

  // Exports land on disk intact.
  const auto path = dir_->path() / "trace.json";
  obs::write_file(path, chrome);
  std::ifstream in(path);
  std::string from_disk((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(from_disk, chrome);
}

TEST_F(TracedJobTest, MetricsJsonIsValidAndPopulated) {
  const auto result = run(true);
  const std::string json = mr::format_job_metrics_json(result, "WordCount");
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"job\":\"WordCount\""), std::string::npos);
  EXPECT_NE(json.find("\"ops_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"sort\""), std::string::npos);
  EXPECT_NE(json.find("\"map_task_details\""), std::string::npos);
  // Non-zero work recorded in the breakdown.
  EXPECT_EQ(json.find("\"total_ns\":0,"), std::string::npos);
}

// ---- report formatting (appendf regression) --------------------------------

TEST(JobReport, LongCounterNamesAreNotTruncated) {
  mr::JobResult result;
  result.metrics.job_wall_ns = 1'000'000;
  const std::string long_name(700, 'k');  // longer than appendf's buffer
  result.counters.increment(long_name, 12345);
  const std::string report = mr::format_job_report(result, "truncation-test");
  EXPECT_NE(report.find(long_name), std::string::npos);
  EXPECT_NE(report.find("12345"), std::string::npos);
}

TEST(JobReport, ClusterSectionAppearsWhenWorkersPresent) {
  mr::JobResult result;
  result.metrics.job_wall_ns = 1'000'000;
  mr::WorkerTelemetry w0;
  w0.worker_id = 0;
  w0.records = 300;
  w0.tasks_completed = 2;
  w0.task_wall_ns = {5'000'000, 6'000'000};
  mr::WorkerTelemetry w1;
  w1.worker_id = 1;
  w1.records = 100;
  w1.tasks_completed = 1;
  w1.telemetry_complete = false;
  result.metrics.workers = {w0, w1};
  result.metrics.telemetry_incomplete = true;
  result.metrics.trace_ring_dropped = 7;

  // Skew: max 300 / mean 200 = 1.5.
  EXPECT_DOUBLE_EQ(result.metrics.worker_records_skew(), 1.5);

  const std::string report = mr::format_job_report(result, "cluster-test");
  EXPECT_NE(report.find("cluster workers"), std::string::npos);
  EXPECT_NE(report.find("telemetry incomplete"), std::string::npos);
  EXPECT_NE(report.find("[partial]"), std::string::npos);
  EXPECT_NE(report.find("7 events dropped"), std::string::npos);

  const std::string json = mr::format_job_metrics_json(result, "cluster-test");
  EXPECT_TRUE(obs::json_valid(json)) << json;
  const auto doc = obs::JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("trace_ring_dropped")->number_or(0), 7.0);
  EXPECT_TRUE(doc->get("telemetry_incomplete")->bool_or(false));
  const obs::JsonValue* cluster = doc->get("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->get("worker_records_skew")->number_or(0), 1.5);
  ASSERT_EQ(cluster->get("workers")->array().size(), 2u);
  const obs::JsonValue& worker1 = cluster->get("workers")->array()[1];
  EXPECT_FALSE(worker1.get("telemetry_complete")->bool_or(true));
}

TEST(JobReport, TaskLatencyQuantilesAreExactWalls) {
  mr::JobResult result;
  result.metrics.job_wall_ns = 1'000'000;
  mr::WorkerTelemetry worker;
  worker.tasks_completed = 4;
  // 7.3, 1.0, 40.1 and 2.5 ms, out of order: the report sorts them.
  worker.task_wall_ns = {7'300'000, 1'000'000, 40'100'000, 2'500'000};
  result.metrics.workers = {worker};

  const std::string json = mr::format_job_metrics_json(result, "walls");
  const auto doc = obs::JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const obs::JsonValue& latency =
      *doc->get("cluster")->get("workers")->array()[0].get("task_latency_ns");
  // A quantile is the ceil(q * n)-th smallest wall, n = 4.
  EXPECT_EQ(latency.get("count")->number_or(0), 4.0);
  EXPECT_EQ(latency.get("p50")->number_or(0), 2'500'000.0);   // 2nd
  EXPECT_EQ(latency.get("p90")->number_or(0), 40'100'000.0);  // 4th
  EXPECT_EQ(latency.get("p99")->number_or(0), 40'100'000.0);  // 4th
  EXPECT_EQ(latency.get("max")->number_or(0), 40'100'000.0);
  EXPECT_DOUBLE_EQ(latency.get("mean")->number_or(0), 12'725'000.0);

  const std::string report = mr::format_job_report(result, "walls");
  EXPECT_NE(report.find("p99 0.040s"), std::string::npos)
      << report;
}

// ---- drain / chunked shipping ----------------------------------------------

TEST(TraceBuffer, DrainReturnsEventsAndResetsInPlace) {
  obs::TraceCollector collector(obs::TraceConfig{true, 64});
  obs::TraceBuffer* buffer = collector.make_buffer(1, 0, "worker");
  for (int i = 0; i < 100; ++i) {
    obs::record_instant(buffer, "t", "event", "i", static_cast<double>(i));
  }
  auto first = buffer->drain();
  EXPECT_EQ(first.events.size(), 64u);
  EXPECT_EQ(first.dropped, 36u);

  // The ring keeps working after a drain, and the next drain reports
  // only the delta — no double counting, and the wrap detection must
  // not misfire on the fresh (non-wrapped) ring.
  for (int i = 0; i < 10; ++i) {
    obs::record_instant(buffer, "t", "later", "i", static_cast<double>(i));
  }
  auto second = buffer->drain();
  ASSERT_EQ(second.events.size(), 10u);
  EXPECT_EQ(second.dropped, 0u);
  EXPECT_DOUBLE_EQ(second.events.front().args[0], 0.0);
  EXPECT_DOUBLE_EQ(second.events.back().args[0], 9.0);
}

TEST(TraceCollector, DrainThenFinishNeverDuplicates) {
  obs::TraceCollector collector(obs::TraceConfig{true, 64});
  collector.set_job_name("drainer");
  obs::TraceBuffer* buffer = collector.make_buffer(5, 0, "worker", "lane");
  for (int i = 0; i < 100; ++i) {
    obs::record_instant(buffer, "t", "first_batch");
  }
  obs::TraceData chunk = collector.drain();
  EXPECT_EQ(chunk.job_name, "drainer");
  EXPECT_EQ(chunk.events.size(), 64u);
  EXPECT_EQ(chunk.dropped_events, 36u);
  ASSERT_EQ(chunk.ring_drops.size(), 1u);
  EXPECT_EQ(chunk.ring_drops[0].pid, 5u);
  EXPECT_EQ(chunk.ring_drops[0].dropped, 36u);
  // Names ship exactly once, on the first drain.
  ASSERT_EQ(chunk.process_names.size(), 1u);
  ASSERT_EQ(chunk.thread_names.size(), 1u);

  obs::record_instant(buffer, "t", "second_batch");
  obs::TraceData rest = collector.finish();
  EXPECT_EQ(rest.events.size(), 1u);
  EXPECT_EQ(rest.dropped_events, 0u);
  EXPECT_TRUE(rest.ring_drops.empty());
  EXPECT_TRUE(rest.process_names.empty());
  EXPECT_TRUE(rest.thread_names.empty());

  // Merging the chunks reconstructs the complete picture: 65 events,
  // 36 drops attributed to ring (5, 0), one process name.
  obs::TraceData merged;
  obs::merge_trace(merged, std::move(chunk));
  obs::merge_trace(merged, std::move(rest));
  EXPECT_EQ(merged.events.size(), 65u);
  EXPECT_EQ(merged.dropped_events, 36u);
  ASSERT_EQ(merged.ring_drops.size(), 1u);
  EXPECT_EQ(merged.ring_drops[0].dropped, 36u);
  EXPECT_EQ(merged.process_names.size(), 1u);
}

TEST(TraceData, RebaseShiftsTimestampsSaturating) {
  obs::TraceData trace;
  trace.enabled = true;
  trace.epoch_ns = 1000;
  obs::TraceEvent e;
  e.name = "x";
  e.category = "t";
  e.ts_ns = 1500;
  trace.events.push_back(e);
  e.ts_ns = 100;
  trace.events.push_back(e);

  obs::rebase_trace(trace, 500);  // worker clock 500ns ahead
  EXPECT_EQ(trace.events[0].ts_ns, 1000u);
  EXPECT_EQ(trace.events[1].ts_ns, 0u);  // saturates, never wraps
  EXPECT_EQ(trace.epoch_ns, 500u);

  obs::rebase_trace(trace, -250);  // negative offset shifts forward
  EXPECT_EQ(trace.events[0].ts_ns, 1250u);
  EXPECT_EQ(trace.epoch_ns, 750u);
}

TEST(TraceData, MergePropagatesIncompleteAndRingDrops) {
  obs::TraceData into;
  into.enabled = true;
  into.ring_drops.push_back({7, 0, 10});

  obs::TraceData from;
  from.enabled = true;
  from.incomplete = true;
  from.ring_drops.push_back({7, 0, 5});   // same ring: summed
  from.ring_drops.push_back({8, 1, 2});   // new ring: appended
  obs::merge_trace(into, std::move(from));

  EXPECT_TRUE(into.incomplete);
  ASSERT_EQ(into.ring_drops.size(), 2u);
  EXPECT_EQ(into.ring_drops[0].dropped, 15u);
  EXPECT_EQ(into.ring_drops[1].pid, 8u);
  EXPECT_EQ(into.ring_drops[1].dropped, 2u);
}

TEST(ChromeTrace, CarriesIncompleteFlagAndRingDrops) {
  obs::TraceData trace;
  trace.enabled = true;
  trace.job_name = "flagged";
  trace.incomplete = true;
  trace.dropped_events = 3;
  trace.ring_drops.push_back({200001, 0, 3});
  const std::string chrome = obs::format_chrome_trace(trace);
  EXPECT_TRUE(obs::json_valid(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"telemetry_incomplete\":true"), std::string::npos);
  EXPECT_NE(chrome.find("\"dropped_rings\""), std::string::npos);
  EXPECT_NE(chrome.find("\"dropped\":3"), std::string::npos);
}

// ---- JsonValue parser ------------------------------------------------------

TEST(JsonValue, ParsesScalarsAndContainers) {
  const auto doc = obs::JsonValue::parse(
      "{\"a\": 1.5, \"b\": [true, null, \"s\"], \"neg\": -7, "
      "\"nested\": {\"deep\": 2e3}}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->get("a")->number_or(0), 1.5);
  const auto& arr = doc->get("b")->array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].bool_or(false));
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].string_value(), "s");
  EXPECT_EQ(doc->get("neg")->number_or(0), -7.0);
  EXPECT_EQ(doc->get("nested")->get("deep")->number_or(0), 2000.0);
  EXPECT_EQ(doc->get("missing"), nullptr);
}

TEST(JsonValue, ParsesEscapesIncludingUnicode) {
  const auto doc =
      obs::JsonValue::parse("\"a\\n\\t\\\"\\\\\\u0041\\u00e9\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_value(), "a\n\t\"\\A\xc3\xa9");
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_FALSE(obs::JsonValue::parse("{").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("01").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("'single'").has_value());
}

TEST(JsonValue, RoundTripsJsonWriterOutput) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "job \"x\"\n");
  w.field("count", std::uint64_t{42});
  w.key("list").begin_array().value(1).value(2).end_array();
  w.end_object();
  const std::string json = w.take();
  const auto doc = obs::JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("name")->string_value(), "job \"x\"\n");
  EXPECT_EQ(doc->get("count")->number_or(0), 42.0);
  EXPECT_EQ(doc->get("list")->array().size(), 2u);
}

}  // namespace
}  // namespace textmr
