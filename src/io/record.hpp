#pragma once

#include <string>
#include <string_view>

namespace textmr::io {

/// An owned intermediate record. Keys and values are opaque byte strings;
/// typed applications serialize into them (see src/apps). This mirrors
/// Hadoop's BytesWritable boundary: every record crossing between user code
/// and the framework pays an explicit serialization cost, which is exactly
/// the "emit" operation of the paper's Table I.
struct Record {
  std::string key;
  std::string value;

  friend bool operator==(const Record&, const Record&) = default;
};

/// A non-owning view of a record, used on read paths (spill runs, merge,
/// shuffle) to avoid copies until a copy is semantically required.
struct RecordView {
  std::string_view key;
  std::string_view value;

  friend bool operator==(const RecordView&, const RecordView&) = default;
};

}  // namespace textmr::io
