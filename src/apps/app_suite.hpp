#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/access_log.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pagerank.hpp"
#include "apps/pos_tag.hpp"
#include "apps/sessionize.hpp"
#include "apps/syntext.hpp"
#include "apps/tfidf.hpp"
#include "apps/wordcount.hpp"
#include "mr/types.hpp"

namespace textmr::apps {

/// Which of the paper's datasets an application consumes.
enum class Dataset { kCorpus, kAccessLog, kAccessLogWithRankings, kWebGraph };

/// One of the paper's six benchmark applications, packaged as the
/// factories a JobSpec needs plus the paper's per-app frequency-buffering
/// parameters (§V-B2: k=3000, s=0.01 for the text apps; k=10000, s=0.1
/// for the log apps; PageRank grouped with the log side).
struct AppBundle {
  std::string name;
  bool text_centric = false;
  Dataset dataset = Dataset::kCorpus;
  mr::MapperFactory mapper;
  mr::ReducerFactory reducer;
  mr::ReducerFactory combiner;  // empty if the app has none
  std::size_t freq_top_k = 3000;
  double freq_sampling_fraction = 0.01;
};

inline AppBundle wordcount_app() {
  return AppBundle{
      "WordCount",
      true,
      Dataset::kCorpus,
      [] { return std::make_unique<WordCountMapper>(); },
      [] { return std::make_unique<WordCountReducer>(); },
      [] { return std::make_unique<WordCountCombiner>(); },
      3000,
      0.01,
  };
}

inline AppBundle inverted_index_app() {
  return AppBundle{
      "InvertedIndex",
      true,
      Dataset::kCorpus,
      [] { return std::make_unique<InvertedIndexMapper>(); },
      [] { return std::make_unique<InvertedIndexReducer>(); },
      [] { return std::make_unique<InvertedIndexCombiner>(); },
      3000,
      0.01,
  };
}

inline AppBundle word_pos_tag_app(std::uint32_t work_passes = 24) {
  return AppBundle{
      "WordPOSTag",
      true,
      Dataset::kCorpus,
      [work_passes] { return std::make_unique<WordPosTagMapper>(work_passes); },
      [] { return std::make_unique<WordPosTagReducer>(); },
      [] { return std::make_unique<WordPosTagCombiner>(); },
      3000,
      0.01,
  };
}

inline AppBundle access_log_sum_app() {
  return AppBundle{
      "AccessLogSum",
      false,
      Dataset::kAccessLog,
      [] { return std::make_unique<AccessLogSumMapper>(); },
      [] { return std::make_unique<AccessLogSumReducer>(); },
      [] { return std::make_unique<AccessLogSumCombiner>(); },
      10000,
      0.1,
  };
}

inline AppBundle access_log_join_app() {
  return AppBundle{
      "AccessLogJoin",
      false,
      Dataset::kAccessLogWithRankings,
      [] { return std::make_unique<AccessLogJoinMapper>(); },
      [] { return std::make_unique<AccessLogJoinReducer>(); },
      nullptr,
      10000,
      0.1,
  };
}

inline AppBundle pagerank_app() {
  return AppBundle{
      "PageRank",
      false,
      Dataset::kWebGraph,
      [] { return std::make_unique<PageRankMapper>(); },
      [] { return std::make_unique<PageRankReducer>(); },
      [] { return std::make_unique<PageRankCombiner>(); },
      10000,
      0.1,
  };
}

/// Join variant with canonicalized (sorted) group output; see
/// AccessLogJoinSortedReducer. Same inputs and freq parameters as the
/// paper's join.
inline AppBundle access_log_join_sorted_app() {
  return AppBundle{
      "AccessLogJoinSorted",
      false,
      Dataset::kAccessLogWithRankings,
      [] { return std::make_unique<AccessLogJoinMapper>(); },
      [] { return std::make_unique<AccessLogJoinSortedReducer>(); },
      nullptr,
      10000,
      0.1,
  };
}

inline AppBundle sessionize_app() {
  return AppBundle{
      "Sessionize",
      false,
      Dataset::kAccessLog,
      [] { return std::make_unique<SessionizeMapper>(); },
      [] { return std::make_unique<SessionizeReducer>(); },
      nullptr,
      10000,
      0.1,
  };
}

/// TF-IDF job 1 (term frequency per document). Job-1 sums are plain
/// varint counts, so WordCount's combiner and reducer apply verbatim.
inline AppBundle tfidf_job1_app() {
  return AppBundle{
      "TfIdfTermCount",
      true,
      Dataset::kCorpus,
      [] { return std::make_unique<TfIdfTermCountMapper>(); },
      [] { return std::make_unique<WordCountReducer>(); },
      [] { return std::make_unique<WordCountCombiner>(); },
      3000,
      0.01,
  };
}

/// TF-IDF job 2 (document-frequency join); consumes job 1's output
/// files, so grids wire the two jobs as a pipeline rather than reading a
/// generated dataset directly.
inline AppBundle tfidf_job2_app() {
  return AppBundle{
      "TfIdfJoin",
      true,
      Dataset::kCorpus,
      [] { return std::make_unique<TfIdfJoinMapper>(); },
      [] { return std::make_unique<TfIdfJoinReducer>(); },
      nullptr,
      3000,
      0.01,
  };
}

inline AppBundle syntext_app(SynTextParams params) {
  return AppBundle{
      "SynText",
      true,
      Dataset::kCorpus,
      [params] { return std::make_unique<SynTextMapper>(params); },
      [params] { return std::make_unique<SynTextReducer>(params); },
      [params] { return std::make_unique<SynTextCombiner>(params); },
      3000,
      0.01,
  };
}

/// One app a single job can run, under its command-line name.
struct NamedApp {
  std::string_view name;
  AppBundle (*make)();
};

/// The app registry: every single-job app, by command-line name. The CLI
/// resolves APP through it and prints its usage line from it. TF-IDF is
/// absent because it is a two-job pipeline, not one JobSpec.
inline constexpr NamedApp kNamedApps[] = {
    {"wordcount", [] { return wordcount_app(); }},
    {"invertedindex", [] { return inverted_index_app(); }},
    {"wordpostag", [] { return word_pos_tag_app(); }},
    {"accesslogsum", [] { return access_log_sum_app(); }},
    {"accesslogjoin", [] { return access_log_join_app(); }},
    {"accesslogjoinsorted", [] { return access_log_join_sorted_app(); }},
    {"sessionize", [] { return sessionize_app(); }},
    {"pagerank", [] { return pagerank_app(); }},
};

/// The registry's bundle for `name`; nullopt when no app has that name.
inline std::optional<AppBundle> app_by_name(std::string_view name) {
  for (const NamedApp& app : kNamedApps) {
    if (app.name == name) return app.make();
  }
  return std::nullopt;
}

/// All six paper applications in the paper's presentation order.
inline std::vector<AppBundle> paper_apps(std::uint32_t pos_work_passes = 24) {
  return {wordcount_app(),      inverted_index_app(),
          word_pos_tag_app(pos_work_passes), access_log_sum_app(),
          access_log_join_app(), pagerank_app()};
}

}  // namespace textmr::apps
