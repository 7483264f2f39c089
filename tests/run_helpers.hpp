#pragma once

// Run-file and merge-input helpers, the light part of helpers.hpp (which
// includes it). Unit tests of one layer include just this header; so does
// test_record_path, which replaces the global allocator and where the
// whole textmr.hpp stack shifts GCC 12's inlining into
// -Wmismatched-new-delete false positives.

#include <cstdint>
#include <string>
#include <vector>

#include "io/record.hpp"
#include "io/spill_file.hpp"
#include "mr/merger.hpp"
#include "mr/record_arena.hpp"

namespace textmr::test {

/// Every record of one partition of a run file, in file order, read the
/// way the runtime reads a run: one bulk read_partition, then
/// index_frames. Throws FormatError on a malformed stream.
inline std::vector<io::Record> read_run(const std::string& path,
                                        std::uint32_t partition) {
  const std::string bytes = io::SpillRunReader(path).read_partition(partition);
  const mr::FrameStore frames{bytes};
  std::vector<io::Record> records;
  for (const mr::RecordRef& ref : mr::index_frames(bytes, partition)) {
    const mr::Frame frame = frames.frame(ref);
    records.push_back({std::string(frame.key), std::string(frame.value)});
  }
  return records;
}

/// Frames `records` (already in key order) into one merge input, as a
/// read partition would arrive.
inline mr::FetchedRun framed_run(const std::vector<io::Record>& records) {
  mr::FetchedRun run;
  for (const io::Record& r : records) {
    io::encode_record(run.bytes, r.key, r.value);
  }
  run.refs = mr::index_frames(run.bytes, 0);
  return run;
}

}  // namespace textmr::test
