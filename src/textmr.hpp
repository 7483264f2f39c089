#pragma once

/// textmr — a text-centric MapReduce runtime with the two framework-side
/// optimizations of Hsiao, Cafarella & Narayanasamy, "Reducing MapReduce
/// Abstraction Costs for Text-Centric Applications" (ICPP 2014):
/// frequency-buffering (§III) and the spill-matcher (§IV).
///
/// Umbrella header: pulls in the whole public API. Link textmr::textmr.
///
/// Quick start (see examples/quickstart.cpp for the runnable version):
///
///   textmr::mr::JobSpec spec;
///   spec.inputs = textmr::io::make_splits("corpus.txt", 32 << 20);
///   spec.mapper = [] { return std::make_unique<WordCountMapper>(); };
///   spec.combiner = [] { return std::make_unique<WordCountCombiner>(); };
///   spec.reducer = [] { return std::make_unique<WordCountReducer>(); };
///   spec.use_spill_matcher = true;         // paper §IV
///   spec.freqbuf.enabled = true;           // paper §III
///   auto result = textmr::mr::LocalEngine().run(spec);

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/harmonic.hpp"
#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/tempdir.hpp"
#include "common/varint.hpp"
#include "common/zipf.hpp"

#include "obs/analyze.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

#include "io/dfs.hpp"
#include "io/line_reader.hpp"
#include "io/record.hpp"
#include "io/spill_file.hpp"

#include "sketch/exact_counter.hpp"
#include "sketch/lru_tracker.hpp"
#include "sketch/space_saving.hpp"
#include "sketch/zipf_estimator.hpp"

#include "spillmatch/spill_matcher.hpp"

#include "text/tokenize.hpp"

#include "freqbuf/controller.hpp"

#include "cluster/engine.hpp"
#include "cluster/protocol.hpp"
#include "cluster/straggler.hpp"
#include "cluster/worker.hpp"

#include "mr/engine.hpp"
#include "mr/hash_combine.hpp"
#include "mr/job.hpp"
#include "mr/map_task.hpp"
#include "mr/merger.hpp"
#include "mr/metrics.hpp"
#include "mr/partitioner.hpp"
#include "mr/record_arena.hpp"
#include "mr/reduce_task.hpp"
#include "mr/spill_buffer.hpp"
#include "mr/spill_sorter.hpp"
#include "mr/types.hpp"

#include "sim/cluster.hpp"
#include "sim/pipeline.hpp"
#include "sim/profile.hpp"

#include "apps/access_log.hpp"
#include "apps/app_suite.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pagerank.hpp"
#include "apps/pos_tag.hpp"
#include "apps/syntext.hpp"
#include "apps/tokenizer.hpp"
#include "apps/wordcount.hpp"

#include "textgen/corpus_gen.hpp"
#include "textgen/graphgen.hpp"
#include "textgen/loggen.hpp"
