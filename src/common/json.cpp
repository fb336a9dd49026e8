#include "common/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace rcommit::json {

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma_if_needed() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_elements_.empty()) {
    if (has_elements_.back()) out_ += ',';
    has_elements_.back() = true;
  }
}

void JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  has_elements_.push_back(false);
}

void JsonWriter::end_object() {
  has_elements_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  has_elements_.push_back(false);
}

void JsonWriter::end_array() {
  has_elements_.pop_back();
  out_ += ']';
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma_if_needed();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

void JsonWriter::value(std::string_view s) {
  comma_if_needed();
  out_ += '"';
  out_ += escape(s);
  out_ += '"';
}

void JsonWriter::raw(std::string_view json) {
  comma_if_needed();
  out_ += json;
}

void JsonWriter::value(int64_t v) {
  comma_if_needed();
  out_ += std::to_string(v);
}

void JsonWriter::value(uint64_t v) {
  comma_if_needed();
  out_ += std::to_string(v);
}

void JsonWriter::value(double v) {
  comma_if_needed();
  // Shortest text that parses back to exactly v: sub-microsecond timings
  // keep their digits instead of rounding to 0.0000.
  char buf[64];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void JsonWriter::value(bool v) {
  comma_if_needed();
  out_ += v ? "true" : "false";
}

// ---------------------------------------------------------------------------
// JsonValue accessors.
// ---------------------------------------------------------------------------

bool JsonValue::as_bool() const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

int64_t JsonValue::as_int() const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  const auto v = static_cast<int64_t>(number_);
  RCOMMIT_CHECK_MSG(static_cast<double>(v) == number_,
                    "JSON number " << number_ << " is not integral");
  return v;
}

const std::string& JsonValue::as_string() const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

size_t JsonValue::size() const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return array_.size();
}

const JsonValue& JsonValue::at(size_t index) const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  RCOMMIT_CHECK_MSG(index < array_.size(),
                    "JSON array index " << index << " out of range (size "
                                        << array_.size() << ")");
  return array_[index];
}

const std::vector<JsonValue>& JsonValue::items() const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

bool JsonValue::has(const std::string& key) const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return object_.count(key) > 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  RCOMMIT_CHECK_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  const auto it = object_.find(key);
  RCOMMIT_CHECK_MSG(it != object_.end(), "JSON object has no key '" << key << "'");
  return it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

double JsonValue::get_double(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_double() : fallback;
}

int64_t JsonValue::get_int(const std::string& key, int64_t fallback) const {
  return has(key) ? at(key).as_int() : fallback;
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  return has(key) ? at(key).as_bool() : fallback;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parser: recursive descent, depth-limited, byte-offset errors.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    const JsonValue v = parse_value(0);
    skip_ws();
    RCOMMIT_CHECK_MSG(pos_ == text_.size(),
                      "trailing garbage at byte " << pos_ << " of JSON input");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    RCOMMIT_CHECK_MSG(pos_ < text_.size(),
                      "unexpected end of JSON input at byte " << pos_);
    return text_[pos_];
  }

  void expect(char c) {
    RCOMMIT_CHECK_MSG(peek() == c, "expected '" << c << "' at byte " << pos_
                                                << ", got '" << text_[pos_] << "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    RCOMMIT_CHECK_MSG(depth < kMaxDepth, "JSON nesting deeper than " << kMaxDepth);
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        RCOMMIT_CHECK_MSG(consume_literal("true"),
                          "malformed literal at byte " << pos_);
        return JsonValue::make_bool(true);
      case 'f':
        RCOMMIT_CHECK_MSG(consume_literal("false"),
                          "malformed literal at byte " << pos_);
        return JsonValue::make_bool(false);
      case 'n':
        RCOMMIT_CHECK_MSG(consume_literal("null"),
                          "malformed literal at byte " << pos_);
        return JsonValue::make_null();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.insert_or_assign(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      RCOMMIT_CHECK_MSG(pos_ < text_.size(),
                        "unterminated JSON string at byte " << pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      RCOMMIT_CHECK_MSG(pos_ < text_.size(),
                        "unterminated escape at byte " << pos_);
      const char e = text_[pos_++];
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
          RCOMMIT_CHECK_MSG(pos_ + 4 <= text_.size(),
                            "truncated \\u escape at byte " << pos_);
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') {
              digit = static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              digit = static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              digit = static_cast<unsigned>(h - 'A') + 10;
            } else {
              RCOMMIT_CHECK_MSG(false, "bad hex digit in \\u escape at byte "
                                           << pos_ - 1);
            }
            code = code * 16 + digit;
          }
          // The writer only emits \u00xx for control bytes; decode the
          // general BMP case as UTF-8 anyway so standard JSON round-trips.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          RCOMMIT_CHECK_MSG(false, "unknown escape '\\" << e << "' at byte "
                                                        << pos_ - 1);
      }
    }
  }

  JsonValue parse_number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > before;
    };
    RCOMMIT_CHECK_MSG(digits(), "malformed JSON number at byte " << start);
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      RCOMMIT_CHECK_MSG(digits(), "malformed JSON fraction at byte " << start);
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      RCOMMIT_CHECK_MSG(digits(), "malformed JSON exponent at byte " << start);
    }
    const std::string token(text_.substr(start, pos_ - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

JsonValue parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace rcommit::json
