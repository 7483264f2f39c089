#include "apps/access_log.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/varint.hpp"
#include "apps/tokenizer.hpp"

namespace textmr::apps {
namespace {

constexpr char kSep = '|';

/// Parses "123.45" into cents without floating point.
std::optional<std::uint64_t> parse_cents(std::string_view text) {
  std::uint64_t dollars = 0;
  std::size_t i = 0;
  if (i >= text.size()) return std::nullopt;
  while (i < text.size() && text[i] != '.') {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    dollars = dollars * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  std::uint64_t cents = 0;
  if (i < text.size()) {
    ++i;  // skip '.'
    std::uint64_t scale = 10;
    while (i < text.size()) {
      if (text[i] < '0' || text[i] > '9') return std::nullopt;
      if (scale > 0) {
        cents += static_cast<std::uint64_t>(text[i] - '0') * scale;
        scale /= 10;
      }
      ++i;
    }
  }
  return dollars * 100 + cents;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

void split_fields(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  for_each_field(line, kSep, [&](std::size_t, std::string_view field) {
    out.push_back(field);
  });
}

thread_local std::vector<std::string_view> t_fields;

}  // namespace

void append_dollars(std::string& out, std::uint64_t cents) {
  char text[24];  // UINT64_MAX cents is 21 characters
  char* const end = text + sizeof(text);
  char* p = end;
  const std::uint64_t fraction = cents % 100;
  *--p = static_cast<char>('0' + fraction % 10);
  *--p = static_cast<char>('0' + fraction / 10);
  *--p = '.';
  std::uint64_t whole = cents / 100;
  do {
    *--p = static_cast<char>('0' + whole % 10);
    whole /= 10;
  } while (whole != 0);
  out.append(p, end);
}

std::optional<UserVisit> parse_user_visit(std::string_view line) {
  split_fields(line, t_fields);
  if (t_fields.size() != 9) return std::nullopt;
  auto cents = parse_cents(t_fields[3]);
  if (!cents.has_value()) return std::nullopt;
  return UserVisit{t_fields[0], t_fields[1], *cents};
}

std::optional<Ranking> parse_ranking(std::string_view line) {
  split_fields(line, t_fields);
  if (t_fields.size() != 3) return std::nullopt;
  auto rank = parse_u64(t_fields[1]);
  if (!rank.has_value()) return std::nullopt;
  return Ranking{t_fields[0], *rank};
}

void AccessLogSumMapper::map(std::uint64_t /*offset*/, std::string_view line,
                             mr::EmitSink& out) {
  auto visit = parse_user_visit(line);
  if (!visit.has_value()) {
    if (counters_ != nullptr) counters_->increment(log_counters::kMalformed);
    return;
  }
  if (counters_ != nullptr) counters_->increment(log_counters::kVisits);
  value_.clear();
  put_varint(value_, visit->ad_revenue_cents);
  out.emit(visit->dest_url, value_);
}

void AccessLogSumCombiner::reduce(std::string_view key,
                                  mr::ValueStream& values, mr::EmitSink& out) {
  std::uint64_t total = 0;
  while (auto value = values.next()) {
    std::size_t pos = 0;
    total += get_varint(*value, pos);
  }
  value_.clear();
  put_varint(value_, total);
  out.emit(key, value_);
}

void AccessLogSumReducer::reduce(std::string_view key, mr::ValueStream& values,
                                 mr::EmitSink& out) {
  std::uint64_t total = 0;
  while (auto value = values.next()) {
    std::size_t pos = 0;
    total += get_varint(*value, pos);
  }
  text_.clear();
  append_dollars(text_, total);
  out.emit(key, text_);
}

void AccessLogJoinMapper::map(std::uint64_t /*offset*/, std::string_view line,
                              mr::EmitSink& out) {
  // Dispatch by schema: 9 fields = UserVisits, 3 fields = Rankings.
  if (auto visit = parse_user_visit(line); visit.has_value()) {
    if (counters_ != nullptr) counters_->increment(log_counters::kVisits);
    value_.clear();
    value_.push_back('V');
    value_.append(visit->source_ip);
    value_.push_back(kSep);
    put_varint(value_, visit->ad_revenue_cents);
    out.emit(visit->dest_url, value_);
    return;
  }
  if (auto ranking = parse_ranking(line); ranking.has_value()) {
    if (counters_ != nullptr) counters_->increment(log_counters::kRankings);
    value_.clear();
    value_.push_back('R');
    put_varint(value_, ranking->page_rank);
    out.emit(ranking->page_url, value_);
    return;
  }
  if (counters_ != nullptr) counters_->increment(log_counters::kMalformed);
}

void AccessLogJoinReducer::reduce(std::string_view key,
                                  mr::ValueStream& values, mr::EmitSink& out) {
  (void)key;
  std::optional<std::uint64_t> page_rank;
  pending_visits_.clear();

  auto emit_joined = [&](std::string_view visit_payload) {
    // visit_payload: sourceIP | varint(cents)
    const std::size_t sep = visit_payload.find(kSep);
    if (sep == std::string_view::npos) return;
    std::size_t pos = sep + 1;
    const std::uint64_t cents = get_varint(visit_payload, pos);
    text_.clear();
    append_dollars(text_, cents);
    text_.push_back(kSep);
    text_ += std::to_string(*page_rank);
    out.emit(visit_payload.substr(0, sep), text_);
    if (counters_ != nullptr) counters_->increment(log_counters::kJoinedRows);
  };

  while (auto value = values.next()) {
    if (value->empty()) continue;
    if ((*value)[0] == 'R') {
      std::size_t pos = 1;
      page_rank = get_varint(*value, pos);
      // Drain buffered visits now that the dimension row arrived.
      for (const auto& visit : pending_visits_) emit_joined(visit);
      pending_visits_.clear();
    } else if ((*value)[0] == 'V') {
      if (page_rank.has_value()) {
        emit_joined(value->substr(1));
      } else {
        pending_visits_.emplace_back(value->substr(1));
      }
    }
  }
  // Visits without a ranking row are dropped (inner join semantics).
  if (counters_ != nullptr && !pending_visits_.empty()) {
    counters_->increment(log_counters::kOrphanVisits,
                         pending_visits_.size());
  }
}

void AccessLogJoinSortedReducer::reduce(std::string_view key,
                                        mr::ValueStream& values,
                                        mr::EmitSink& out) {
  (void)key;
  std::optional<std::uint64_t> page_rank;
  visits_.clear();
  rows_.clear();

  // First pass: remember the dimension row's rank, stash each visit's
  // payload — sourceIP | varint(cents) — in the group buffer.
  while (auto value = values.next()) {
    if (value->empty()) continue;
    if ((*value)[0] == 'R') {
      if (!page_rank.has_value()) {
        std::size_t pos = 1;
        page_rank = get_varint(*value, pos);
      }
    } else if ((*value)[0] == 'V') {
      const std::string_view payload = value->substr(1);
      const std::size_t sep = payload.find(kSep);
      if (sep == std::string_view::npos) continue;
      TEXTMR_CHECK(payload.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "visit payload outgrew u32 row lengths");
      rows_.push_back(Row{visits_.size(), static_cast<std::uint32_t>(sep),
                          static_cast<std::uint32_t>(payload.size())});
      visits_.append(payload);
    }
  }
  if (rows_.empty()) return;
  if (!page_rank.has_value()) {
    if (counters_ != nullptr) {
      counters_->increment(log_counters::kOrphanVisits, rows_.size());
    }
    return;
  }

  // Order by (sourceIP, kSep + varint) bytes; rows that tie are equal.
  const std::string_view visits = visits_;
  const auto ip = [visits](const Row& row) {
    return visits.substr(row.offset, row.ip_size);
  };
  const auto revenue = [visits](const Row& row) {
    return visits.substr(row.offset + row.ip_size, row.size - row.ip_size);
  };
  std::sort(rows_.begin(), rows_.end(), [&](const Row& a, const Row& b) {
    const int c = ip(a).compare(ip(b));
    return c != 0 ? c < 0 : revenue(a) < revenue(b);
  });
  rank_text_.clear();
  rank_text_.push_back(kSep);
  rank_text_ += std::to_string(*page_rank);
  for (const Row& row : rows_) {
    std::size_t pos = 1;  // skip the leading kSep
    const std::uint64_t cents = get_varint(revenue(row), pos);
    text_.clear();
    append_dollars(text_, cents);
    text_ += rank_text_;
    out.emit(ip(row), text_);
  }
  if (counters_ != nullptr) {
    counters_->increment(log_counters::kJoinedRows, rows_.size());
  }
}

}  // namespace textmr::apps
