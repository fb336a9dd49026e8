// Minimal deterministic JSON assembly and parsing.
//
// The writer started life in src/swarm (the swarm promises byte-identical
// aggregate output across thread counts) and moved here when the benchmark
// pipeline began emitting structured results too: explicit key order
// (insertion order), shortest round-trip formatting for doubles
// (std::to_chars: deterministic and locale-free), and full string escaping.
//
// The parser is the read side of the same contract: a small recursive-descent
// JSON reader for the documents this repo itself writes (bench results, swarm
// summaries). It accepts standard JSON, reports malformed input via
// CheckFailure, and stores objects as sorted maps — order-insensitive lookup
// is what the tools need; byte preservation is the writer's job.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rcommit::json {

class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key inside an object; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(int64_t v);
  void value(uint64_t v);
  void value(int v) { value(static_cast<int64_t>(v)); }
  void value(double v);
  void value(bool v);

  /// Splices an already-serialized JSON document in value position (e.g. a
  /// nested object produced by another writer). The caller guarantees it is
  /// well-formed.
  void raw(std::string_view json);

  /// The assembled document. Valid once every container is closed.
  [[nodiscard]] const std::string& str() const { return out_; }

  static std::string escape(std::string_view s);

 private:
  void comma_if_needed();

  std::string out_;
  /// One entry per open container: true once it has at least one element.
  std::vector<bool> has_elements_;
  bool after_key_ = false;
};

/// A parsed JSON document node. Numbers are kept as doubles (the writer
/// emits doubles in round-trip form); as_int() checks the value is integral.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; throw CheckFailure on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access; throw CheckFailure when not an array / out of range.
  [[nodiscard]] size_t size() const;
  [[nodiscard]] const JsonValue& at(size_t index) const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object access; at() throws CheckFailure on a missing key.
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  /// Missing-tolerant typed lookups for schema evolution.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] int64_t get_int(const std::string& key, int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// is an error). Throws CheckFailure with a byte offset on malformed input.
JsonValue parse(std::string_view text);

}  // namespace rcommit::json
