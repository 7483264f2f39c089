#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace textmr::obs {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (counts_.back() > 0) out_ += ',';
  ++counts_.back();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  counts_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  counts_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (counts_.back() > 0) out_ += ',';
  ++counts_.back();
  out_ += '"';
  append_json_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  append_json_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

// ---- parser ---------------------------------------------------------------

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.type_ = Type::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> v) {
  JsonValue j;
  j.type_ = Type::kArray;
  j.array_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> v) {
  JsonValue j;
  j.type_ = Type::kObject;
  j.members_ = std::move(v);
  return j;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser (RFC 8259 grammar, depth capped at 256); the
/// escape and number handling mirror what JsonWriter emits.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;

  static constexpr int kMaxDepth = 256;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      const unsigned char c = static_cast<unsigned char>(text[pos]);
      if (c == '"') {
        ++pos;
        return out;
      }
      if (c < 0x20) return std::nullopt;  // raw control character
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos;
        continue;
      }
      ++pos;
      if (pos >= text.size()) return std::nullopt;
      const char e = text[pos];
      ++pos;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return std::nullopt;
          std::uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos + static_cast<std::size_t>(i)];
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              return std::nullopt;
            }
            const std::uint32_t digit =
                h <= '9' ? static_cast<std::uint32_t>(h - '0')
                         : static_cast<std::uint32_t>((h | 0x20) - 'a' + 10);
            cp = (cp << 4) | digit;
          }
          pos += 4;
          // Surrogates never appear in our own exports (JsonWriter only
          // \u-escapes control characters); map them to U+FFFD.
          if (cp >= 0xd800 && cp <= 0xdfff) cp = 0xfffd;
          append_utf8(out, cp);
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos;
    eat('-');
    if (!eat('0')) {
      if (pos >= text.size() ||
          !std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return std::nullopt;
      }
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
    }
    if (eat('.')) {
      const std::size_t frac = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      if (pos == frac) return std::nullopt;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      const std::size_t exp = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      if (pos == exp) return std::nullopt;
    }
    const std::string token(text.substr(start, pos - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::optional<JsonValue> value() {
    if (++depth > kMaxDepth) return std::nullopt;
    skip_ws();
    std::optional<JsonValue> out;
    if (pos >= text.size()) {
      out = std::nullopt;
    } else if (text[pos] == '{') {
      ++pos;
      skip_ws();
      std::vector<std::pair<std::string, JsonValue>> members;
      bool ok = true;
      if (!eat('}')) {
        while (true) {
          skip_ws();
          auto key = string();
          if (!key.has_value()) { ok = false; break; }
          skip_ws();
          if (!eat(':')) { ok = false; break; }
          auto member = value();
          if (!member.has_value()) { ok = false; break; }
          members.emplace_back(std::move(*key), std::move(*member));
          skip_ws();
          if (eat(',')) continue;
          if (eat('}')) break;
          ok = false;
          break;
        }
      }
      if (ok) out = JsonValue::make_object(std::move(members));
    } else if (text[pos] == '[') {
      ++pos;
      skip_ws();
      std::vector<JsonValue> elements;
      bool ok = true;
      if (!eat(']')) {
        while (true) {
          auto element = value();
          if (!element.has_value()) { ok = false; break; }
          elements.push_back(std::move(*element));
          skip_ws();
          if (eat(',')) continue;
          if (eat(']')) break;
          ok = false;
          break;
        }
      }
      if (ok) out = JsonValue::make_array(std::move(elements));
    } else if (text[pos] == '"') {
      auto s = string();
      if (s.has_value()) out = JsonValue::make_string(std::move(*s));
    } else if (text[pos] == 't') {
      if (literal("true")) out = JsonValue::make_bool(true);
    } else if (text[pos] == 'f') {
      if (literal("false")) out = JsonValue::make_bool(false);
    } else if (text[pos] == 'n') {
      if (literal("null")) out = JsonValue::make_null();
    } else {
      out = number();
    }
    --depth;
    return out;
  }
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  Parser parser{text};
  auto value = parser.value();
  if (!value.has_value()) return std::nullopt;
  parser.skip_ws();
  if (parser.pos != text.size()) return std::nullopt;
  return value;
}

bool json_valid(std::string_view text) {
  return JsonValue::parse(text).has_value();
}

}  // namespace textmr::obs
