#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mr/types.hpp"

namespace textmr::apps {

/// Parsed UserVisits record (subset of fields the queries touch).
struct UserVisit {
  std::string_view source_ip;
  std::string_view dest_url;
  std::uint64_t ad_revenue_cents = 0;
};

/// Parsed Rankings record.
struct Ranking {
  std::string_view page_url;
  std::uint64_t page_rank = 0;
};

/// Parses a UserVisits line (9 '|'-separated fields). Returns nullopt on
/// malformed input (the applications skip such lines, like Hadoop's
/// counters-and-continue convention).
std::optional<UserVisit> parse_user_visit(std::string_view line);

/// Parses a Rankings line (3 '|'-separated fields).
std::optional<Ranking> parse_ranking(std::string_view line);

/// Appends `cents` as dollars and two-digit cents ("%llu.%02llu" of
/// cents / 100 and cents % 100): the revenue text of the access-log
/// reducers.
void append_dollars(std::string& out, std::uint64_t cents);

/// AccessLogSum (paper §II-B):
///   SELECT destURL, sum(adRevenue) FROM UserVisits GROUP BY destURL
/// Intermediate value: varint revenue in cents. Reducer prints dollars.
/// Counter names the access-log applications report (see mr::Counters).
namespace log_counters {
inline constexpr const char* kVisits = "access_log.visits";
inline constexpr const char* kRankings = "access_log.rankings";
inline constexpr const char* kMalformed = "access_log.malformed_lines";
inline constexpr const char* kJoinedRows = "access_log.joined_rows";
inline constexpr const char* kOrphanVisits = "access_log.orphan_visits";
}  // namespace log_counters

class AccessLogSumMapper final : public mr::Mapper {
 public:
  void begin_task(const mr::TaskInfo& info) override {
    counters_ = info.counters;
  }
  void map(std::uint64_t offset, std::string_view line,
           mr::EmitSink& out) override;

 private:
  mr::Counters* counters_ = nullptr;
  std::string value_;
};

class AccessLogSumCombiner final : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override;

 private:
  std::string value_;
};

class AccessLogSumReducer final : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override;

 private:
  std::string text_;
};

/// AccessLogJoin (paper §II-B):
///   SELECT sourceIP, adRevenue, pageRank
///   FROM UserVisits UV JOIN Rankings R ON UV.destURL = R.pageURL
///
/// A reduce-side repartition join: both inputs are mapped under the URL
/// key with a type tag ('R' for rankings, 'V' for visits); the reducer
/// buffers visits until the ranking arrives and then emits
/// (sourceIP, "adRevenue|pageRank") rows. The mapper distinguishes the
/// two inputs by their field count, so one job can read both files.
/// No combiner exists for this job (nothing is associative).
class AccessLogJoinMapper final : public mr::Mapper {
 public:
  void begin_task(const mr::TaskInfo& info) override {
    counters_ = info.counters;
  }
  void map(std::uint64_t offset, std::string_view line,
           mr::EmitSink& out) override;

 private:
  mr::Counters* counters_ = nullptr;
  std::string value_;
};

class AccessLogJoinReducer final : public mr::Reducer {
 public:
  void begin_task(const mr::TaskInfo& info) override {
    counters_ = info.counters;
  }
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override;

 private:
  mr::Counters* counters_ = nullptr;
  std::vector<std::string> pending_visits_;
  std::string text_;
};

/// AccessLogJoinSorted: the same repartition join with canonicalized
/// output — one URL group's joined rows are collected and emitted in
/// sorted (sourceIP, payload) order instead of value-arrival order. The
/// canonical order makes the group's bytes a pure function of its value
/// *set*, so the differential battery can run this app under partitioner
/// modes and engines whose merge interleavings need not match. Joins
/// against the first ranking row of the group (well-formed inputs have
/// exactly one per URL). A group's visits are stashed in one reused
/// buffer and sorted through a row index, so a group allocates nothing
/// once the buffers have grown; the joined and orphan counters are bumped
/// once per group.
class AccessLogJoinSortedReducer final : public mr::Reducer {
 public:
  void begin_task(const mr::TaskInfo& info) override {
    counters_ = info.counters;
  }
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override;

 private:
  /// One visit's payload, sourceIP | varint(cents), in visits_.
  struct Row {
    std::size_t offset;
    std::uint32_t ip_size;  // the payload's bytes before its '|'
    std::uint32_t size;
  };

  mr::Counters* counters_ = nullptr;
  std::string visits_;
  std::vector<Row> rows_;
  std::string rank_text_;  // '|' + the group's page rank
  std::string text_;
};

}  // namespace textmr::apps
