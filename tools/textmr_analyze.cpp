// textmr-analyze: offline critical-path analysis of a textmr job trace.
//
//   textmr-analyze [--json] TRACE_FILE
//
// TRACE_FILE is the Chrome trace JSON written by --trace, from either the
// local or the cluster engine.
// The default output is the human-readable breakdown (per-phase wall
// time, per-worker idle time, straggler attribution, critical path);
// --json emits the same numbers as one JSON document for scripting.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "obs/analyze.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--json] TRACE_FILE\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return usage(argv[0]);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (path == nullptr) return usage(argv[0]);

  try {
    const textmr::obs::TraceData trace = textmr::obs::load_trace_file(path);
    const textmr::obs::TraceAnalysis analysis =
        textmr::obs::analyze_trace(trace);
    const std::string out = json ? textmr::obs::format_analysis_json(analysis)
                                 : textmr::obs::format_analysis(analysis);
    std::fwrite(out.data(), 1, out.size(), stdout);
    if (!json && !out.empty() && out.back() != '\n') std::putchar('\n');
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "textmr-analyze: %s: %s\n", path, e.what());
    return 1;
  }
}
