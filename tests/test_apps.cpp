#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/varint.hpp"
#include "apps/access_log.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pagerank.hpp"
#include "apps/syntext.hpp"
#include "apps/tokenizer.hpp"
#include "apps/wordcount.hpp"

namespace textmr::apps {
namespace {

class RecordingSink final : public mr::EmitSink {
 public:
  void emit(std::string_view key, std::string_view value) override {
    records.emplace_back(std::string(key), std::string(value));
  }
  std::vector<std::pair<std::string, std::string>> records;
};

std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  std::string scratch;
  for_each_token(line, scratch, [&](std::string_view t) {
    out.emplace_back(t);
  });
  return out;
}

TEST(Tokenizer, SplitsAndLowercases) {
  EXPECT_EQ(tokens_of("Hello, World!"),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(tokens_of("  a  b  "), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(tokens_of(""), (std::vector<std::string>{}));
  EXPECT_EQ(tokens_of("...!!!"), (std::vector<std::string>{}));
  EXPECT_EQ(tokens_of("don't stop"),
            (std::vector<std::string>{"don", "t", "stop"}));
  EXPECT_EQ(tokens_of("abc123 42"),
            (std::vector<std::string>{"abc123", "42"}));
}

TEST(Tokenizer, FieldsSplitOnSeparator) {
  std::vector<std::string> fields;
  const std::size_t n =
      for_each_field("a|b||c", '|', [&](std::size_t, std::string_view f) {
        fields.emplace_back(f);
      });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(WordCount, MapperEmitsOnePerToken) {
  WordCountMapper mapper;
  RecordingSink sink;
  mapper.map(0, "the cat and the hat", sink);
  ASSERT_EQ(sink.records.size(), 5u);
  EXPECT_EQ(sink.records[0].first, "the");
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(sink.records[0].second, pos), 1u);
}

TEST(WordCount, CombinerAndReducerSum) {
  WordCountCombiner combiner;
  std::vector<std::string> values;
  for (const std::uint64_t v : {3ull, 4ull, 5ull}) {
    std::string s;
    put_varint(s, v);
    values.push_back(s);
  }
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  combiner.reduce("word", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(sink.records[0].second, pos), 12u);

  mr::VectorValueStream<std::vector<std::string>> stream2(values);
  RecordingSink sink2;
  WordCountReducer reducer;
  reducer.reduce("word", stream2, sink2);
  EXPECT_EQ(sink2.records[0].second, "12");
}

TEST(Postings, EncodeDecodeRoundTrip) {
  const std::vector<std::uint64_t> locations = {3, 17, 17, 400, 1ull << 45};
  std::string encoded;
  postings::encode(encoded, locations);
  std::vector<std::uint64_t> decoded;
  postings::decode_into(encoded, decoded);
  EXPECT_EQ(decoded, locations);
}

TEST(Postings, LocationPacksTaskAndOrdinal) {
  const std::uint64_t loc = postings::make_location(7, 123456);
  EXPECT_EQ(loc >> 40, 7u);
  EXPECT_EQ(loc & ((1ull << 40) - 1), 123456u);
}

TEST(InvertedIndex, MapperUsesTaskAndOffset) {
  InvertedIndexMapper mapper;
  mapper.begin_task(mr::TaskInfo{3});
  RecordingSink sink;
  mapper.map(9, "hello hello", sink);
  ASSERT_EQ(sink.records.size(), 2u);
  std::vector<std::uint64_t> locations;
  postings::decode_into(sink.records[0].second, locations);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0], postings::make_location(3, 9));
}

TEST(InvertedIndex, CombinerMergesAndSorts) {
  InvertedIndexCombiner combiner;
  std::vector<std::string> values(2);
  postings::encode(values[0], {50, 100});
  postings::encode(values[1], {10, 75});
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  combiner.reduce("w", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  std::vector<std::uint64_t> merged;
  postings::decode_into(sink.records[0].second, merged);
  EXPECT_EQ(merged, (std::vector<std::uint64_t>{10, 50, 75, 100}));
}

TEST(AccessLog, ParsesValidVisit) {
  const auto visit = parse_user_visit(
      "1.2.3.4|http://u.example.com/p.html|2008-3-4|123.45|Mozilla/5.0|USA|"
      "en|map|37");
  ASSERT_TRUE(visit.has_value());
  EXPECT_EQ(visit->source_ip, "1.2.3.4");
  EXPECT_EQ(visit->dest_url, "http://u.example.com/p.html");
  EXPECT_EQ(visit->ad_revenue_cents, 12345u);
}

TEST(AccessLog, RejectsMalformedVisits) {
  EXPECT_FALSE(parse_user_visit("").has_value());
  EXPECT_FALSE(parse_user_visit("a|b|c").has_value());
  EXPECT_FALSE(
      parse_user_visit("ip|url|d|notanumber|ua|c|l|s|1").has_value());
  EXPECT_FALSE(parse_user_visit("too|few|fields|here").has_value());
}

TEST(AccessLog, ParsesRanking) {
  const auto ranking = parse_ranking("http://u.example.com|42|300");
  ASSERT_TRUE(ranking.has_value());
  EXPECT_EQ(ranking->page_url, "http://u.example.com");
  EXPECT_EQ(ranking->page_rank, 42u);
  EXPECT_FALSE(parse_ranking("only|two").has_value());
}

TEST(AccessLog, RevenueParsingHandlesCents) {
  EXPECT_EQ(parse_user_visit("i|u|d|0.01|a|c|l|s|1")->ad_revenue_cents, 1u);
  EXPECT_EQ(parse_user_visit("i|u|d|10|a|c|l|s|1")->ad_revenue_cents, 1000u);
  EXPECT_EQ(parse_user_visit("i|u|d|1.5|a|c|l|s|1")->ad_revenue_cents, 150u);
}

TEST(AccessLogJoin, MapperTagsBothInputs) {
  AccessLogJoinMapper mapper;
  RecordingSink sink;
  mapper.map(0, "1.1.1.1|http://x.com|2008-1-1|5.00|ua|US|en|q|10", sink);
  mapper.map(1, "http://x.com|77|60", sink);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(sink.records[0].first, "http://x.com");
  EXPECT_EQ(sink.records[0].second[0], 'V');
  EXPECT_EQ(sink.records[1].first, "http://x.com");
  EXPECT_EQ(sink.records[1].second[0], 'R');
}

TEST(AccessLogJoin, ReducerJoinsRegardlessOfValueOrder) {
  AccessLogJoinMapper mapper;
  for (const bool rank_first : {true, false}) {
    RecordingSink mapped;
    mapper.map(0, "9.9.9.9|http://x.com|2008-1-1|2.50|ua|US|en|q|10", mapped);
    mapper.map(1, "http://x.com|77|60", mapped);
    std::vector<std::string> values;
    if (rank_first) {
      values = {mapped.records[1].second, mapped.records[0].second};
    } else {
      values = {mapped.records[0].second, mapped.records[1].second};
    }
    mr::VectorValueStream<std::vector<std::string>> stream(values);
    RecordingSink joined;
    AccessLogJoinReducer reducer;
    reducer.reduce("http://x.com", stream, joined);
    ASSERT_EQ(joined.records.size(), 1u) << rank_first;
    EXPECT_EQ(joined.records[0].first, "9.9.9.9");
    EXPECT_EQ(joined.records[0].second, "2.50|77");
  }
}

TEST(AccessLogJoin, VisitsWithoutRankingAreDropped) {
  std::vector<std::string> values = {"V1.1.1.1|\x05"};  // visit only
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  AccessLogJoinReducer reducer;
  reducer.reduce("http://orphan.com", stream, sink);
  EXPECT_TRUE(sink.records.empty());
}

TEST(AccessLog, AppendDollarsMatchesPrintf) {
  const auto printf_dollars = [](std::uint64_t cents) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%02llu",
                  static_cast<unsigned long long>(cents / 100),
                  static_cast<unsigned long long>(cents % 100));
    return std::string(buf);
  };
  std::vector<std::uint64_t> cents = {0,    1,    9,    10,   99,
                                      100,  101,  109,  110,  999,
                                      1000, 9999, 10000};
  for (std::uint64_t p = 10; p < std::numeric_limits<std::uint64_t>::max() / 10;
       p *= 10) {
    cents.insert(cents.end(), {p - 1, p, p + 1});
  }
  cents.push_back(std::numeric_limits<std::uint64_t>::max());
  cents.push_back(std::numeric_limits<std::uint64_t>::max() - 1);
  Xoshiro256 rng(2014);
  for (int i = 0; i < 10000; ++i) {
    cents.push_back(rng() >> rng.next_below(64));
  }
  std::string out = "prefix";
  for (const std::uint64_t c : cents) {
    out.resize(6);
    append_dollars(out, c);
    ASSERT_EQ(out, "prefix" + printf_dollars(c)) << c;
  }
}

/// The sorted join's reducer as it was first written, one pair<string,
/// string> per visit and one counter bump per row: the oracle for
/// AccessLogJoinSortedReducer's allocation-free rewrite.
class PairSortedJoinReducer final : public mr::Reducer {
 public:
  void begin_task(const mr::TaskInfo& info) override {
    counters_ = info.counters;
  }
  void reduce(std::string_view /*key*/, mr::ValueStream& values,
              mr::EmitSink& out) override {
    std::optional<std::uint64_t> page_rank;
    std::vector<std::pair<std::string, std::string>> rows;
    while (auto value = values.next()) {
      if (value->empty()) continue;
      if ((*value)[0] == 'R') {
        if (!page_rank.has_value()) {
          std::size_t pos = 1;
          page_rank = get_varint(*value, pos);
        }
      } else if ((*value)[0] == 'V') {
        const std::string_view payload = value->substr(1);
        const std::size_t sep = payload.find('|');
        if (sep == std::string_view::npos) continue;
        rows.emplace_back(std::string(payload.substr(0, sep)),
                          std::string(payload.substr(sep)));
      }
    }
    std::size_t orphans = 0;
    if (!page_rank.has_value()) {
      orphans = rows.size();
      rows.clear();
    }
    std::sort(rows.begin(), rows.end());
    for (const auto& [ip, payload] : rows) {
      std::size_t pos = 1;
      const std::uint64_t cents = get_varint(payload, pos);
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%llu.%02llu",
                    static_cast<unsigned long long>(cents / 100),
                    static_cast<unsigned long long>(cents % 100));
      out.emit(ip, std::string(buf) + "|" + std::to_string(*page_rank));
      if (counters_ != nullptr) {
        counters_->increment(log_counters::kJoinedRows);
      }
    }
    if (counters_ != nullptr && orphans > 0) {
      counters_->increment(log_counters::kOrphanVisits, orphans);
    }
  }

 private:
  mr::Counters* counters_ = nullptr;
};

std::string visit_value(std::string_view ip, std::uint64_t cents) {
  std::string value = "V";
  value += ip;
  value.push_back('|');
  put_varint(value, cents);
  return value;
}

std::string rank_value(std::uint64_t rank) {
  std::string value = "R";
  put_varint(value, rank);
  return value;
}

TEST(AccessLogJoin, SortedReducerMatchesReference) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::vector<std::string>> groups = {
      // Nothing to join or drop, before any counter exists: a bump by 0
      // would create a counter the reference never creates.
      {"", "Vno-separator", rank_value(1)},
      {},
      // Varint bytes do not sort like the numbers: 256 (80 02) sorts
      // before 255 (ff 01), 128 (80 01) after 127 (7f).
      {rank_value(5), visit_value("1.1.1.1", 128), visit_value("1.1.1.1", 127),
       visit_value("1.1.1.1", 256), visit_value("1.1.1.1", 255)},
      // Duplicate rows, and IPs where one is a prefix of another.
      {visit_value("9.9.9.9", 7), rank_value(3), visit_value("9.9.9.9", 7),
       visit_value("9.9.9.90", 7), visit_value("9.9.9.9", 7),
       visit_value("9.9.9.", 1)},
      // R after V; two R rows (the first wins).
      {visit_value("2.2.2.2", 50), visit_value("1.2.2.2", 60), rank_value(11),
       rank_value(99), visit_value("3.2.2.2", 70)},
      // No R: orphans.
      {visit_value("4.4.4.4", 1), visit_value("4.4.4.5", 2)},
      // A V without '|', empty values, an empty IP, unknown tags.
      {"", "V", "Vno-separator", rank_value(8), "", visit_value("", 42),
       "X1.1.1.1|\x05", visit_value("5.5.5.5", 3)},
      // Cents at the edges.
      {rank_value(77), visit_value("6.6.6.6", 0), visit_value("6.6.6.6", 1),
       visit_value("6.6.6.6", 99), visit_value("6.6.6.6", 100),
       visit_value("6.6.6.6", kMax)},
      // Ranks at the edges.
      {rank_value(0), visit_value("7.7.7.7", 12345)},
      {visit_value("8.8.8.8", 12345), rank_value(kMax)},
  };
  Xoshiro256 rng(23);
  for (int g = 0; g < 300; ++g) {
    std::vector<std::string> values;
    const std::size_t visits = rng.next_below(40);
    for (std::size_t v = 0; v < visits; ++v) {
      const std::string ip = std::to_string(rng.next_below(4)) + "." +
                             std::to_string(rng.next_below(300));
      values.push_back(visit_value(ip, rng.next_below(3) == 0
                                           ? rng.next_below(300)
                                           : rng() >> rng.next_below(64)));
    }
    for (std::size_t r = rng.next_below(3); r > 0; --r) {
      values.insert(values.begin() + static_cast<std::ptrdiff_t>(
                                         rng.next_below(values.size() + 1)),
                    rank_value(rng() >> rng.next_below(64)));
    }
    if (rng.next_below(4) == 0) values.emplace_back();
    groups.push_back(std::move(values));
  }

  mr::Counters expected_counters;
  mr::Counters counters;
  PairSortedJoinReducer oracle;
  AccessLogJoinSortedReducer reducer;
  oracle.begin_task(mr::TaskInfo{0, &expected_counters});
  reducer.begin_task(mr::TaskInfo{0, &counters});
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    mr::VectorValueStream<std::vector<std::string>> expected_values(groups[g]);
    mr::VectorValueStream<std::vector<std::string>> values(groups[g]);
    RecordingSink expected;
    RecordingSink joined;
    oracle.reduce("http://www.site1.example.com/", expected_values, expected);
    reducer.reduce("http://www.site1.example.com/", values, joined);
    ASSERT_EQ(joined.records, expected.records);
    ASSERT_EQ(counters.all(), expected_counters.all());
  }
  EXPECT_GT(counters.value(log_counters::kJoinedRows), 0u);
  EXPECT_GT(counters.value(log_counters::kOrphanVisits), 0u);
}

TEST(PageRank, MapperSplitsRankAcrossLinks) {
  PageRankMapper mapper;
  RecordingSink sink;
  mapper.map(0, "www.a.org\t1.000000\twww.b.org,www.c.org", sink);
  ASSERT_EQ(sink.records.size(), 3u);
  EXPECT_EQ(sink.records[0].first, "www.a.org");
  EXPECT_EQ(sink.records[0].second, "Gwww.b.org,www.c.org");
  EXPECT_EQ(sink.records[1].first, "www.b.org");
  EXPECT_EQ(sink.records[1].second.substr(0, 1), "R");
  EXPECT_NEAR(std::stod(sink.records[1].second.substr(1)), 0.5, 1e-6);
}

TEST(PageRank, CombinerSumsSharesAndForwardsGraph) {
  PageRankCombiner combiner;
  std::vector<std::string> values = {"R0.250000", "Glinks,here", "R0.125000"};
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  combiner.reduce("www.x.org", stream, sink);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(sink.records[0].second, "Glinks,here");
  EXPECT_NEAR(std::stod(sink.records[1].second.substr(1)), 0.375, 1e-6);
}

TEST(PageRank, ReducerAppliesDamping) {
  PageRankReducer reducer;
  std::vector<std::string> values = {"R1.000000", "Gwww.y.org"};
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  reducer.reduce("www.x.org", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  const auto& out = sink.records[0].second;
  const auto tab = out.find('\t');
  EXPECT_NEAR(std::stod(out.substr(0, tab)), 0.15 + 0.85 * 1.0, 1e-6);
  EXPECT_EQ(out.substr(tab + 1), "www.y.org");
}

TEST(PageRank, DanglingTargetGetsEmptyAdjacency) {
  PageRankReducer reducer;
  std::vector<std::string> values = {"R0.500000"};
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  reducer.reduce("www.only-linked.org", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  const auto& out = sink.records[0].second;
  EXPECT_EQ(out.back(), '\t');  // rank followed by empty link list
}

TEST(SynText, CombineOutputSizeTracksStorageIntensity) {
  for (const double sigma : {0.0, 0.5, 1.0}) {
    SynTextParams params;
    params.storage_intensity = sigma;
    params.base_value_bytes = 10;
    SynTextCombiner combiner(params);
    std::vector<std::string> values = {std::string(10, 'a'),
                                       std::string(10, 'b'),
                                       std::string(10, 'c')};
    mr::VectorValueStream<std::vector<std::string>> stream(values);
    RecordingSink sink;
    combiner.reduce("k", stream, sink);
    ASSERT_EQ(sink.records.size(), 1u);
    const std::size_t expected =
        10 + static_cast<std::size_t>(sigma * (30 - 10));
    EXPECT_EQ(sink.records[0].second.size(), expected) << sigma;
  }
}

TEST(SynText, MapperRespectsValueSize) {
  SynTextParams params;
  params.base_value_bytes = 24;
  SynTextMapper mapper(params);
  RecordingSink sink;
  mapper.map(0, "one two", sink);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(sink.records[0].second.size(), 24u);
  EXPECT_EQ(sink.records[1].second.size(), 24u);
}

TEST(SynText, MapperIsDeterministic) {
  SynTextParams params;
  params.cpu_intensity = 2.0;
  SynTextMapper a(params);
  SynTextMapper b(params);
  RecordingSink sa;
  RecordingSink sb;
  a.map(0, "same input line", sa);
  b.map(0, "same input line", sb);
  EXPECT_EQ(sa.records, sb.records);
}

}  // namespace
}  // namespace textmr::apps
