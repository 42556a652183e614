#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace dss::util {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw JsonError("not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) throw JsonError("not a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw JsonError("not a string");
  return str_;
}

const std::vector<Json>& Json::as_array() const {
  if (type_ != Type::Array) throw JsonError("not an array");
  return arr_;
}

const std::map<std::string, Json>& Json::as_object() const {
  if (type_ != Type::Object) throw JsonError("not an object");
  return obj_;
}

const Json* Json::get(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

Json Json::make_bool(bool b) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = b;
  return j;
}

Json Json::make_number(double d) {
  Json j;
  j.type_ = Type::Number;
  j.num_ = d;
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.type_ = Type::String;
  j.str_ = std::move(s);
  return j;
}

Json Json::make_array(std::vector<Json> a) {
  Json j;
  j.type_ = Type::Array;
  j.arr_ = std::move(a);
  return j;
}

Json Json::make_object(std::map<std::string, Json> o) {
  Json j;
  j.type_ = Type::Object;
  j.obj_ = std::move(o);
  return j;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at byte " + std::to_string(pos_) +
                    ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json::make_null();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::make_bool(false);
      case '"': return Json::make_string(parse_string());
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("malformed number");
    }
    return Json::make_number(value);
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by this repo's writers; pass them through literally).
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
        default: fail("unknown escape");
      }
    }
    return out;
  }

  Json parse_array() {
    ++pos_;  // '['
    const Nest nest(*this);
    std::vector<Json> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json::make_array(std::move(items));
  }

  Json parse_object() {
    ++pos_;  // '{'
    const Nest nest(*this);
    std::map<std::string, Json> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      const std::size_t key_pos = pos_;
      std::string key = parse_string();
      // A repeated key is ambiguous: readers differ on which value wins.
      if (members.contains(key)) {
        pos_ = key_pos;
        fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      members.emplace(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json::make_object(std::move(members));
  }

  static constexpr int kMaxDepth = 256;

  /// One container level, counted while it is parsed. Each level is one
  /// recursion, so the bound makes a hostile document ("[[[[...") a parse
  /// error instead of a stack overflow.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) p_.fail("nesting deeper than 256 levels");
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json json_parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace dss::util
