// textmr_cli — command-line driver: generate datasets and run any of the
// paper's applications over them with the optimizations toggled by flags.
// The "hadoop jar"-equivalent entry point for trying the system without
// writing code.
//
// Usage:
//   textmr_cli gen corpus OUT.txt [--words N] [--vocab V] [--alpha A] [--seed S]
//   textmr_cli gen log VISITS.log RANKINGS.txt [--visits N] [--urls U]
//   textmr_cli gen graph OUT.txt [--pages N]
//   textmr_cli run APP INPUT... --out DIR [--reducers R] [--freq] [--matcher]
//              [--topk K] [--sample S] [--buffer MB] [--split-mb MB] [--report]
//              [--hash-combine] [--hash-shards N]   (not with --freq)
//              [--trace FILE] [--metrics-json FILE]
//              [--failpoints SPEC] [--max-task-attempts N]
//              [--cluster-workers N] [--no-speculation] [--listen HOST:PORT]
//              [--external-workers N] [--io-timeout-ms MS]
//              [--liveness-timeout-ms MS]
//   textmr_cli worker APP INPUT... --out DIR --connect HOST:PORT
//              [--idle-timeout-ms MS] [--io-timeout-ms MS]
//              [same job flags as run]
//   APP = any name in apps::kNamedApps (src/apps/app_suite.hpp); running
//         textmr_cli with no arguments lists them
// An option the command does not read, or a numeric option whose value
// is not a whole number of the right kind that fits, is an error (usage,
// exit 2).
//
// Multi-node quickstart (two terminals, DESIGN.md §14): terminal 1 runs
// the coordinator with --cluster-workers 2 --external-workers 1
// --listen 127.0.0.1:7070; terminal 2 starts the worker with the SAME
// app, inputs and --out, plus --connect 127.0.0.1:7070.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string_view>

#include "cluster/worker.hpp"
#include "common/failpoint.hpp"
#include "mr/report.hpp"
#include "textmr.hpp"

using namespace textmr;

namespace {

// The whole token as a decimal integer: no sign, no trailing bytes.
std::optional<std::uint64_t> parse_integer(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

// The whole token as a finite decimal number.
std::optional<double> parse_real(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::set<std::string> flags;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string name = arg.substr(2);
        // --name=value form binds unambiguously; --name value is also
        // accepted when the next token is not itself an option.
        if (const auto eq = name.find('='); eq != std::string::npos) {
          args.options[name.substr(0, eq)] = name.substr(eq + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
          args.options[name] = argv[++i];
        } else {
          args.flags.insert(name);
        }
      } else {
        args.positional.push_back(std::move(arg));
      }
    }
    return args;
  }

  // Numeric options are checked by rejects_bad_number before any of
  // these runs, so a present value always parses.
  std::uint64_t u64(const std::string& name, std::uint64_t fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : *parse_integer(it->second);
  }
  double f64(const std::string& name, double fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : *parse_real(it->second);
  }
  bool flag(const std::string& name) const { return flags.count(name) > 0; }
};

// The options each command reads. Anything else is rejected up front,
// so a typo or a retired option fails loudly instead of being ignored.
constexpr std::string_view kGenOptions[] = {
    "words", "vocab", "alpha", "seed", "visits", "urls", "pages"};
constexpr std::string_view kJobOptions[] = {
    "out", "split-mb", "reducers", "buffer", "matcher", "hash-combine",
    "hash-shards", "freq", "topk", "sample", "failpoints",
    "max-task-attempts", "trace"};
constexpr std::string_view kRunOptions[] = {
    "metrics-json", "report", "cluster-workers", "no-speculation", "listen",
    "external-workers", "io-timeout-ms", "liveness-timeout-ms"};
constexpr std::string_view kWorkerOptions[] = {
    "connect", "idle-timeout-ms", "io-timeout-ms"};

// Every numeric option, with the largest value its destination holds
// (split-mb and buffer are scaled by 2^20 before use).
struct IntegerOption {
  std::string_view name;
  std::uint64_t max;
};
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr IntegerOption kIntegerOptions[] = {
    {"words", UINT64_MAX},
    {"vocab", UINT64_MAX},
    {"seed", UINT64_MAX},
    {"visits", UINT64_MAX},
    {"urls", UINT64_MAX},
    {"pages", UINT64_MAX},
    {"split-mb", UINT64_MAX >> 20},
    {"reducers", kU32Max},
    {"buffer", SIZE_MAX >> 20},
    {"hash-shards", kU32Max},
    {"topk", SIZE_MAX},
    {"max-task-attempts", kU32Max},
    {"cluster-workers", kU32Max},
    {"external-workers", kU32Max},
    {"io-timeout-ms", std::numeric_limits<std::int32_t>::max()},
    {"liveness-timeout-ms", kU32Max},
    {"idle-timeout-ms", kU32Max}};
constexpr std::string_view kRealOptions[] = {"alpha", "sample"};

// Reports the first numeric option whose value is missing, is not a
// whole token of the right kind, or does not fit its destination; the
// caller then prints usage. Runs before any file is opened.
bool rejects_bad_number(const Args& args) {
  // A bare `--NAME` (no value) is a flag, so it is looked for there too.
  const auto reject = [&](const std::string& name,
                          const std::string& expects) {
    const auto it = args.options.find(name);
    const std::string got =
        it == args.options.end() ? "no value" : "'" + it->second + "'";
    std::fprintf(stderr, "error: --%s expects %s, got %s\n", name.c_str(),
                 expects.c_str(), got.c_str());
    return true;
  };
  for (const IntegerOption& option : kIntegerOptions) {
    const std::string name(option.name);
    const auto it = args.options.find(name);
    if (it == args.options.end() && !args.flag(name)) continue;
    const auto value = it == args.options.end() ? std::nullopt
                                                : parse_integer(it->second);
    if (!value.has_value() || *value > option.max) {
      return reject(name,
                    "an integer in [0, " + std::to_string(option.max) + "]");
    }
  }
  for (const std::string_view option : kRealOptions) {
    const std::string name(option);
    const auto it = args.options.find(name);
    if (it == args.options.end() && !args.flag(name)) continue;
    if (it == args.options.end() || !parse_real(it->second).has_value()) {
      return reject(name, "a finite number");
    }
  }
  return false;
}

int usage() {
  std::string app_line = "  APP:";
  std::size_t width = app_line.size();
  for (const apps::NamedApp& app : apps::kNamedApps) {
    if (width + 1 + app.name.size() > 72) {
      app_line += "\n      ";
      width = 6;
    }
    app_line += ' ';
    app_line += app.name;
    width += 1 + app.name.size();
  }
  std::fprintf(stderr,
               "usage:\n"
               "  textmr_cli gen corpus OUT [--words N] [--vocab V] "
               "[--alpha A] [--seed S]\n"
               "  textmr_cli gen log VISITS RANKINGS [--visits N] [--urls U]\n"
               "  textmr_cli gen graph OUT [--pages N]\n"
               "  textmr_cli run APP INPUT... --out DIR [--reducers R]\n"
               "             [--freq] [--matcher] [--topk K] [--sample S]\n"
               "             [--hash-combine] [--hash-shards N] "
               "(not with --freq)\n"
               "             [--buffer MB] [--split-mb MB] [--report]\n"
               "             [--trace FILE] [--metrics-json FILE]\n"
               "             [--failpoints SPEC] [--max-task-attempts N]\n"
               "             [--cluster-workers N] [--no-speculation]\n"
               "             [--listen H:P] [--external-workers N]\n"
               "             [--io-timeout-ms MS] [--liveness-timeout-ms MS]\n"
               "  textmr_cli worker APP INPUT... --out DIR --connect H:P\n"
               "             [--idle-timeout-ms MS] [--io-timeout-ms MS]\n"
               "             [same job flags as run]\n"
               "%s\n",
               app_line.c_str());
  return 2;
}

// Parses "host:port" into an Endpoint. Port 0 is allowed only when
// `allow_port_zero` (a listener can let the kernel pick; a connect
// target cannot).
std::optional<cluster::Endpoint> parse_endpoint(const std::string& text,
                                                bool allow_port_zero) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  char* end = nullptr;
  const unsigned long port = std::strtoul(text.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) return std::nullopt;
  if (port == 0 && !allow_port_zero) return std::nullopt;
  cluster::Endpoint ep;
  ep.host = text.substr(0, colon);
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

// Reports the first option or flag none of `known` names; the caller
// then prints usage.
bool rejects_unknown(
    const Args& args,
    std::initializer_list<std::span<const std::string_view>> known) {
  const auto unknown = [&](const std::string& name) {
    const bool found =
        std::any_of(known.begin(), known.end(), [&](auto names) {
          return std::find(names.begin(), names.end(), name) != names.end();
        });
    if (!found) {
      std::fprintf(stderr, "error: unknown option --%s\n", name.c_str());
    }
    return !found;
  };
  for (const auto& [name, value] : args.options) {
    if (unknown(name)) return true;
  }
  return std::any_of(args.flags.begin(), args.flags.end(), unknown);
}

int cmd_gen(const Args& args) {
  if (rejects_unknown(args, {kGenOptions}) || rejects_bad_number(args)) {
    return usage();
  }
  const std::string& kind = args.positional[1];
  if (kind == "corpus" && args.positional.size() >= 3) {
    textgen::CorpusSpec spec;
    spec.total_words = args.u64("words", 1'000'000);
    spec.vocabulary = args.u64("vocab", 100'000);
    spec.alpha = args.f64("alpha", 1.0);
    spec.seed = args.u64("seed", 42);
    const auto stats = textgen::generate_corpus(spec, args.positional[2]);
    std::printf("wrote %s: %llu words, %llu lines, %.1f MB\n",
                args.positional[2].c_str(),
                static_cast<unsigned long long>(stats.words),
                static_cast<unsigned long long>(stats.lines),
                static_cast<double>(stats.bytes) / 1e6);
    return 0;
  }
  if (kind == "log" && args.positional.size() >= 4) {
    textgen::AccessLogSpec spec;
    spec.num_visits = args.u64("visits", 200'000);
    spec.num_urls = args.u64("urls", 20'000);
    spec.seed = args.u64("seed", 7);
    const auto stats = textgen::generate_access_log(spec, args.positional[2],
                                                    args.positional[3]);
    std::printf("wrote %llu visits (%.1f MB) + %llu rankings\n",
                static_cast<unsigned long long>(stats.visit_records),
                static_cast<double>(stats.visit_bytes) / 1e6,
                static_cast<unsigned long long>(stats.ranking_records));
    return 0;
  }
  if (kind == "graph" && args.positional.size() >= 3) {
    textgen::WebGraphSpec spec;
    spec.num_pages = args.u64("pages", 100'000);
    spec.seed = args.u64("seed", 13);
    const auto stats = textgen::generate_web_graph(spec, args.positional[2]);
    std::printf("wrote %s: %llu pages, %llu edges, %.1f MB\n",
                args.positional[2].c_str(),
                static_cast<unsigned long long>(stats.pages),
                static_cast<unsigned long long>(stats.edges),
                static_cast<double>(stats.bytes) / 1e6);
    return 0;
  }
  return usage();
}

// Builds the JobSpec shared by `run` and `worker`. An external worker
// must construct the exact same spec as the coordinator — JobSpec
// carries mapper/reducer factories (std::function), which cannot travel
// over the wire, so both sides derive them from the same APP name and
// flags. Returns nullopt on bad arguments (caller prints usage).
std::optional<mr::JobSpec> build_job_spec(const Args& args) {
  const auto bundle = apps::app_by_name(args.positional[1]);
  if (!bundle.has_value()) return std::nullopt;
  auto out_it = args.options.find("out");
  if (out_it == args.options.end() || args.positional.size() < 3) {
    return std::nullopt;
  }

  mr::JobSpec spec;
  spec.name = bundle->name;
  for (std::size_t i = 2; i < args.positional.size(); ++i) {
    const auto splits = io::make_splits(
        args.positional[i], args.u64("split-mb", 8) * 1024 * 1024);
    spec.inputs.insert(spec.inputs.end(), splits.begin(), splits.end());
  }
  spec.mapper = bundle->mapper;
  spec.reducer = bundle->reducer;
  spec.combiner = bundle->combiner;
  spec.num_reducers = static_cast<std::uint32_t>(args.u64("reducers", 2));
  spec.spill_buffer_bytes =
      static_cast<std::size_t>(args.u64("buffer", 16)) << 20;
  spec.use_spill_matcher = args.flag("matcher");
  // --hash-combine swaps the map-side sort pipeline for the sharded
  // hash-combine path (DESIGN.md §15); output is byte-identical. Its
  // table admits every key, so with --freq the job is a config error.
  if (args.flag("hash-combine")) {
    spec.combine_mode = mr::CombineMode::kHash;
    spec.hash_combine_shards = static_cast<std::uint32_t>(
        args.u64("hash-shards", spec.hash_combine_shards));
  }
  if (args.flag("freq")) {
    spec.freqbuf.enabled = true;
    spec.freqbuf.top_k = args.u64("topk", bundle->freq_top_k);
    spec.freqbuf.sampling_fraction =
        args.f64("sample", bundle->freq_sampling_fraction);
  }
  const std::filesystem::path out_dir = out_it->second;
  spec.output_dir = out_dir / "out";
  spec.scratch_dir = out_dir / "scratch";

  // Fault injection & recovery: --failpoints (or TEXTMR_FAILPOINTS in
  // the environment) arms deterministic fault sites; --max-task-attempts
  // bounds per-task re-execution (1 = fail fast).
  failpoint::arm_from_env();
  if (const auto fp = args.options.find("failpoints");
      fp != args.options.end()) {
    failpoint::arm_from_spec(fp->second);
  }
  spec.max_task_attempts =
      static_cast<std::uint32_t>(args.u64("max-task-attempts", 3));

  // Tracing must be decided here (not in cmd_run) because workers also
  // need it on: a worker only ships trace chunks when its spec says so.
  spec.trace.enabled = args.options.count("trace") > 0;
  return spec;
}

int cmd_run(const Args& args) {
  if (rejects_unknown(args, {kJobOptions, kRunOptions}) || rejects_bad_number(args)) {
    return usage();
  }
  auto spec_opt = build_job_spec(args);
  if (!spec_opt.has_value()) return usage();
  mr::JobSpec& spec = *spec_opt;

  // Observability exports: --trace FILE (Chrome trace JSON for
  // chrome://tracing / Perfetto and textmr-analyze), --metrics-json FILE
  // (the structured job report).
  const auto trace_path = args.options.find("trace");
  const auto metrics_path = args.options.find("metrics-json");

  // --cluster-workers N runs the job on the multi-process ClusterEngine
  // (N forked workers, heartbeats, speculative execution) instead of the
  // in-process thread pool; output bytes are identical either way.
  // Workers talk to the coordinator in checksummed frames over loopback
  // TCP and pull shuffle data from each other's shuffle servers;
  // --listen fixes the listener address and --external-workers N
  // reserves N of the slots for processes started separately with
  // `textmr_cli worker --connect` (DESIGN.md §14).
  mr::JobResult result;
  if (const std::uint64_t workers = args.u64("cluster-workers", 0);
      workers > 0) {
    cluster::ClusterConfig config;
    config.num_workers = static_cast<std::uint32_t>(workers);
    config.speculation = !args.flag("no-speculation");
    if (const auto l = args.options.find("listen"); l != args.options.end()) {
      const auto ep = parse_endpoint(l->second, /*allow_port_zero=*/true);
      if (!ep.has_value()) return usage();
      config.listen = *ep;
    }
    config.external_workers =
        static_cast<std::uint32_t>(args.u64("external-workers", 0));
    // A dead TCP peer must not hang the job.
    config.io_timeout_ms =
        static_cast<std::int32_t>(args.u64("io-timeout-ms", 30000));
    config.liveness_timeout_ms =
        static_cast<std::uint32_t>(args.u64("liveness-timeout-ms", 0));
    cluster::ClusterEngine engine(config);
    if (config.external_workers > 0) {
      const std::string ep = engine.listen_endpoint().to_string();
      std::printf("coordinator listening on %s; waiting for %u external "
                  "worker(s):\n  textmr_cli worker %s ... --connect %s\n",
                  ep.c_str(), config.external_workers,
                  args.positional[1].c_str(), ep.c_str());
      std::fflush(stdout);
    }
    result = engine.run(spec);
  } else {
    result = mr::LocalEngine().run(spec);
  }
  if (args.flag("report")) {
    std::fputs(mr::format_job_report(result, spec.name).c_str(), stdout);
  } else {
    std::printf("%s\n", mr::format_job_summary(result).c_str());
  }
  if (trace_path != args.options.end()) {
    obs::write_file(trace_path->second, obs::format_chrome_trace(result.trace));
    std::printf("trace: %s (%zu events, %llu dropped)\n",
                trace_path->second.c_str(), result.trace.events.size(),
                static_cast<unsigned long long>(result.trace.dropped_events));
  }
  if (metrics_path != args.options.end()) {
    obs::write_file(metrics_path->second,
                    mr::format_job_metrics_json(result, spec.name));
    std::printf("metrics: %s\n", metrics_path->second.c_str());
  }
  std::printf("output: %zu part files under %s\n", result.outputs.size(),
              spec.output_dir.string().c_str());
  return 0;
}

// `textmr_cli worker` — joins a coordinator started with
// --external-workers over TCP, runs tasks until told to shut down.
// APP, INPUT... and --out must match the coordinator's invocation
// exactly: the JobSpec (including the user-code factories it carries)
// is rebuilt locally from them, only task assignments travel the wire.
int cmd_worker(const Args& args) {
  if (rejects_unknown(args, {kJobOptions, kWorkerOptions}) || rejects_bad_number(args)) {
    return usage();
  }
  auto spec_opt = build_job_spec(args);
  if (!spec_opt.has_value()) return usage();
  const auto connect_it = args.options.find("connect");
  if (connect_it == args.options.end()) return usage();
  const auto endpoint =
      parse_endpoint(connect_it->second, /*allow_port_zero=*/false);
  if (!endpoint.has_value()) return usage();

  cluster::WorkerOptions options;
  options.idle_timeout_ms =
      static_cast<std::uint32_t>(args.u64("idle-timeout-ms", 0));
  if (args.options.count("io-timeout-ms") > 0) {
    options.io_timeout_ms =
        static_cast<std::int32_t>(args.u64("io-timeout-ms", 0));
  }
  std::printf("worker connecting to %s\n", endpoint->to_string().c_str());
  std::fflush(stdout);
  const int code = cluster::run_remote_worker(*endpoint, *spec_opt, options);
  std::printf("worker finished (exit %d)\n", code);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  if (args.positional.size() < 2) return usage();
  try {
    if (args.positional[0] == "gen") return cmd_gen(args);
    if (args.positional[0] == "run") return cmd_run(args);
    if (args.positional[0] == "worker") return cmd_worker(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
