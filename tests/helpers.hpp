#pragma once

// Shared test utilities: sequential reference implementations of the
// benchmark applications and helpers to run jobs / read outputs.

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "run_helpers.hpp"
#include "textmr.hpp"

namespace textmr::test {

/// Reads every part file of a job result into an ordered key -> value map.
/// Duplicate keys across partitions would indicate a partitioner bug, so
/// the helper asserts uniqueness via ::testing::AssertionFailure-free
/// logic (the caller checks size).
inline std::map<std::string, std::string> read_outputs(
    const std::vector<std::filesystem::path>& parts) {
  std::map<std::string, std::string> result;
  for (const auto& part : parts) {
    std::ifstream in(part);
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      if (tab == std::string::npos) continue;
      result.emplace(line.substr(0, tab), line.substr(tab + 1));
    }
  }
  return result;
}

/// Checks that keys within each part file appear in sorted order.
inline bool part_files_sorted(
    const std::vector<std::filesystem::path>& parts) {
  for (const auto& part : parts) {
    std::ifstream in(part);
    std::string line;
    std::string previous;
    bool first = true;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      std::string key = line.substr(0, tab);
      if (!first && key < previous) return false;
      previous = std::move(key);
      first = false;
    }
  }
  return true;
}

/// Sequential WordCount over a file, the oracle for the MR version.
inline std::map<std::string, std::uint64_t> reference_wordcount(
    const std::string& path) {
  std::map<std::string, std::uint64_t> counts;
  std::ifstream in(path);
  std::string line;
  std::string scratch;
  while (std::getline(in, line)) {
    apps::for_each_token(line, scratch, [&](std::string_view token) {
      counts[std::string(token)] += 1;
    });
  }
  return counts;
}

/// Sequential inverted index: word -> sorted locations, using the same
/// location scheme as the MR app for a given split <-> task mapping.
inline std::map<std::string, std::vector<std::uint64_t>>
reference_inverted_index(const std::vector<io::InputSplit>& splits) {
  std::map<std::string, std::vector<std::uint64_t>> index;
  std::string scratch;
  for (std::uint32_t task = 0; task < splits.size(); ++task) {
    io::LineReader reader(splits[task]);
    std::uint64_t ordinal = 0;
    while (auto line = reader.next_line()) {
      const std::uint64_t location =
          apps::postings::make_location(task, ordinal);
      apps::for_each_token(*line, scratch, [&](std::string_view token) {
        index[std::string(token)].push_back(location);
      });
      ++ordinal;
    }
  }
  for (auto& [word, locations] : index) {
    std::sort(locations.begin(), locations.end());
  }
  return index;
}

/// Sequential AccessLogSum: destURL -> total ad revenue in cents.
inline std::map<std::string, std::uint64_t> reference_access_log_sum(
    const std::string& path) {
  std::map<std::string, std::uint64_t> totals;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    auto visit = apps::parse_user_visit(line);
    if (!visit.has_value()) continue;
    totals[std::string(visit->dest_url)] += visit->ad_revenue_cents;
  }
  return totals;
}

/// A ready-to-run JobSpec for an AppBundle over prepared splits.
inline mr::JobSpec make_job(const apps::AppBundle& app,
                            std::vector<io::InputSplit> splits,
                            const std::filesystem::path& scratch,
                            const std::filesystem::path& output,
                            std::uint32_t num_reducers = 3) {
  mr::JobSpec spec;
  spec.name = app.name;
  spec.inputs = std::move(splits);
  spec.mapper = app.mapper;
  spec.reducer = app.reducer;
  spec.combiner = app.combiner;
  spec.num_reducers = num_reducers;
  spec.scratch_dir = scratch;
  spec.output_dir = output;
  spec.spill_buffer_bytes = 1u << 20;  // small, to force multiple spills
  return spec;
}

}  // namespace textmr::test
