#pragma once

#include <map>
#include <string>
#include <utility>

#include "apps/tokenizer.hpp"
#include "mr/types.hpp"

namespace textmr::apps {

/// Sessionize: per-client activity rollup over the UserVisits log.
///
///   map:    sourceIP -> "visitDate|duration"
///   reduce: for each distinct date of one client, ascending,
///           emit (sourceIP, "date|visits|seconds")
///
/// The reducer needs a client's whole visit set to build the per-date
/// rollup, so there is no combiner. Output order inside a group is the
/// std::map's date order, independent of value arrival order, so runs are
/// byte-identical across engines.
namespace session_counters {
inline constexpr const char* kVisits = "sessionize.visits";
inline constexpr const char* kMalformed = "sessionize.malformed_lines";
}  // namespace session_counters

class SessionizeMapper final : public mr::Mapper {
 public:
  void begin_task(const mr::TaskInfo& info) override {
    counters_ = info.counters;
  }

  void map(std::uint64_t /*offset*/, std::string_view line,
           mr::EmitSink& out) override {
    // UserVisits schema: sourceIP|destURL|visitDate|adRevenue|userAgent|
    // countryCode|languageCode|searchWord|duration.
    std::string_view ip;
    std::string_view date;
    std::string_view duration;
    const std::size_t fields =
        for_each_field(line, '|', [&](std::size_t index, std::string_view f) {
          if (index == 0) ip = f;
          if (index == 2) date = f;
          if (index == 8) duration = f;
        });
    if (fields != 9 || ip.empty() || date.empty() || duration.empty() ||
        duration.find_first_not_of("0123456789") != std::string_view::npos) {
      if (counters_ != nullptr) {
        counters_->increment(session_counters::kMalformed);
      }
      return;
    }
    if (counters_ != nullptr) counters_->increment(session_counters::kVisits);
    value_.assign(date);
    value_.push_back('|');
    value_.append(duration);
    out.emit(ip, value_);
  }

 private:
  mr::Counters* counters_ = nullptr;
  std::string value_;
};

class SessionizeReducer final : public mr::Reducer {
 public:
  void reduce(std::string_view key, mr::ValueStream& values,
              mr::EmitSink& out) override {
    by_date_.clear();
    while (auto value = values.next()) {
      const std::size_t sep = value->find('|');
      if (sep == std::string_view::npos) continue;
      std::uint64_t seconds = 0;
      for (char c : value->substr(sep + 1)) {
        seconds = seconds * 10 + static_cast<std::uint64_t>(c - '0');
      }
      auto& [visits, total] = by_date_[std::string(value->substr(0, sep))];
      visits += 1;
      total += seconds;
    }
    for (const auto& [date, rollup] : by_date_) {
      text_.assign(date);
      text_.push_back('|');
      text_.append(std::to_string(rollup.first));
      text_.push_back('|');
      text_.append(std::to_string(rollup.second));
      out.emit(key, text_);
    }
  }

 private:
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_date_;
  std::string text_;
};

}  // namespace textmr::apps
