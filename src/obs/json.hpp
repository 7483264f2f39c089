#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace textmr::obs {

/// Appends `s` to `out` with JSON string escaping (quotes, backslash,
/// control characters as \u00XX; UTF-8 payload bytes pass through).
void append_json_escaped(std::string& out, std::string_view s);

/// Streaming JSON writer used by every machine-readable export (job
/// metrics, trace files, bench artifacts). No allocation beyond the
/// output string; enforces well-formedness structurally (keys only in
/// objects, commas inserted automatically).
///
/// Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value("WordCount");
///   w.key("ops").begin_object().key("sort").value(123u).end_object();
///   w.end_object();
///   std::string json = w.take();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Writes an object key; the next call must supply its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) {
    return value(std::string_view(v));
  }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splices a pre-serialized JSON document in value position. The caller
  /// vouches for its validity (e.g. output of another JsonWriter).
  JsonWriter& raw(std::string_view json);

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// The finished document. Caller is responsible for having closed
  /// every object/array.
  std::string take() { return std::move(out_); }
  const std::string& str() const { return out_; }

 private:
  void before_value();

  std::string out_;
  // One entry per open container: number of values written at that level.
  // after_key_ suppresses the comma/count for the value following key().
  std::basic_string<std::uint32_t> counts_ = {0};
  bool after_key_ = false;
};

/// True when `text` is one whole JSON document (JsonValue::parse
/// succeeds). Used by tests and the CI smoke bench to prove that exported
/// artifacts parse.
bool json_valid(std::string_view text);

/// Parsed JSON document node (recursive-descent, RFC 8259 grammar, depth
/// capped at 256). Built for reading back the engine's own exports —
/// textmr-analyze loads merged trace files through this — so numbers are
/// doubles (trace timestamps fit in the 2^53 integer range) and object
/// member order is preserved as written.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Whole-document parse; nullopt on malformed input or trailing bytes.
  static std::optional<JsonValue> parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_or(bool fallback) const {
    return type_ == Type::kBool ? bool_ : fallback;
  }
  double number_or(double fallback) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  /// Empty string when this is not a string node.
  const std::string& string_value() const { return string_; }
  /// Empty for non-arrays.
  const std::vector<JsonValue>& array() const { return array_; }
  /// Object members in document order; empty for non-objects.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// First member with the given key, or nullptr (also for non-objects).
  const JsonValue* get(std::string_view key) const;

  // Node construction (parser + tests).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> v);
  static JsonValue make_object(std::vector<std::pair<std::string, JsonValue>> v);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace textmr::obs
