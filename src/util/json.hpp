// Minimal JSON support: string escaping for the writer (the --metrics run
// exporter) and a small recursive-descent parser for the readers
// (tools/dss_report). No external dependency; the subset implemented
// is exactly what the repo's own writers emit (null, bool, finite numbers,
// strings, arrays, objects).
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dss::util {

/// Escape `s` for embedding inside a JSON string literal (quotes are NOT
/// added). Handles the two mandatory escapes (`"` and `\`), the common
/// whitespace shorthands, and emits \u00XX for remaining control bytes.
[[nodiscard]] std::string json_escape(std::string_view s);

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// Parsed JSON value. Numbers are kept as double (the writers never emit
/// integers above 2^53; counter values fit exactly up to that).
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& as_array() const;
  [[nodiscard]] const std::map<std::string, Json>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* get(const std::string& key) const;

  // --- construction (parser + tests) ---
  static Json make_null() { return Json(); }
  static Json make_bool(bool b);
  static Json make_number(double d);
  static Json make_string(std::string s);
  static Json make_array(std::vector<Json> a);
  static Json make_object(std::map<std::string, Json> o);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

/// Parse a complete JSON document; throws JsonError (with byte offset) on
/// malformed input or trailing garbage.
[[nodiscard]] Json json_parse(std::string_view text);

}  // namespace dss::util
