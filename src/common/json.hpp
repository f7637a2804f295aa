// JSON for this repository: the one writer and the one reader.
//
// Writer. Every artifact (BENCH_*.json, scenario reports, the metrics
// snapshot, coplint's report and baseline) lays out its own keys in a
// fixed order, so diffs between runs stay readable, and formats every
// scalar through append()/field(): strings quoted with '"', '\' and
// control characters escaped, integers in decimal, floating point as %.6g
// with inf/nan written as null (JSON has no spelling for them). Commas are
// implicit: append() and field() put one before the value unless `out`
// ends where a list starts or a separator already stands, so a caller
// writes only brackets and its own layout.
//
// Reader. parse() is a recursive descent over RFC 8259 that yields the
// values, and valid() is parse() succeeding, so "well-formed" and
// "readable" are one definition. It rejects anything structurally broken
// that a hand-rolled writer could emit: unbalanced braces, bad escapes,
// trailing commas, bare inf/nan.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace copbft::json {

// ---- writer ---------------------------------------------------------------

inline void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') out += '\\';
    if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(byte));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// Starts the next list element: a comma, unless `out` is empty or ends
/// with '{', '[', ',', ':' or layout whitespace.
inline void separate(std::string& out) {
  if (!out.empty() && std::string_view("{[,: \n").find(out.back()) ==
                          std::string_view::npos)
    out += ',';
}

/// Appends one scalar, after separate(): a bool, an integer, a
/// floating-point value or anything convertible to std::string_view
/// (quoted and escaped).
template <class T>
void append(std::string& out, const T& v) {
  separate(out);
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    out += std::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) {
      out += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(v));
    out += buf;
  } else {
    append_string(out, v);
  }
}

/// Appends one object member, `"key":value`, after separate().
template <class T>
void field(std::string& out, std::string_view key, const T& v) {
  append(out, key);
  out += ':';
  append(out, v);
}

// ---- reader ---------------------------------------------------------------

/// A parsed JSON value. Numbers are doubles, exact for the integers below
/// 2^53 that every count and timestamp written here stays under.
struct Value {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  /// Array elements, or object member values in document order.
  std::vector<Value> items;
  /// Object member names, parallel to `items`.
  std::vector<std::string> keys;

  /// The member named `key` (the first, if repeated); nullptr when absent
  /// or when this is not an object.
  const Value* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (std::size_t i = 0; i < keys.size(); ++i)
      if (keys[i] == key) return &items[i];
    return nullptr;
  }
};

namespace detail {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  std::optional<Value> document() {
    Value v;
    skip_ws();
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  /// Nesting beyond this is rejected rather than recursed into, so a
  /// hostile file cannot exhaust the stack.
  static constexpr int kMaxDepth = 256;

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  /// Appends the code point as UTF-8 (\u escapes reach only the BMP).
  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | code >> 6);
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | code >> 12);
      out += static_cast<char>(0x80 | (code >> 6 & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }
  bool string(std::string& out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      // The characters that may follow a backslash, and what each means.
      constexpr std::string_view kEscaped = "\"\\/bfnrt";
      constexpr std::string_view kMeaning = "\"\\/\b\f\n\r\t";
      if (const std::size_t at = kEscaped.find(peek()); at != kEscaped.npos) {
        out += kMeaning[at];
        ++pos_;
        continue;
      }
      if (peek() != 'u' || s_.size() - pos_ < 5) return false;
      const char* first = s_.data() + pos_ + 1;
      unsigned code = 0;
      auto [end, ec] = std::from_chars(first, first + 4, code, 16);
      if (ec != std::errc{} || end != first + 4) return false;
      append_utf8(out, code);
      pos_ += 5;
    }
    return false;  // unterminated
  }
  bool digits() {
    const std::size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return pos_ > start;
  }
  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(double& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    auto [end, ec] = std::from_chars(s_.data() + start, s_.data() + pos_, out);
    return ec == std::errc{} && end == s_.data() + pos_;
  }
  bool members(Value& out, int depth) {
    if (depth >= kMaxDepth) return false;
    const bool object = peek() == '{';
    out.kind = object ? Value::Kind::kObject : Value::Kind::kArray;
    const char close = object ? '}' : ']';
    ++pos_;  // consume opener
    skip_ws();
    if (peek() == close) {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (object) {
        if (!string(out.keys.emplace_back())) return false;
        skip_ws();
        if (peek() != ':') return false;
        ++pos_;
        skip_ws();
      }
      if (!value(out.items.emplace_back(), depth + 1)) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == close) {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool value(Value& out, int depth) {
    switch (peek()) {
      case '{':
      case '[':
        return members(out, depth);
      case '"':
        out.kind = Value::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        out.kind = Value::Kind::kNumber;
        return number(out.number);
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// The value `text` holds, or nullopt unless all of it is one well-formed
/// JSON value (surrounding whitespace allowed).
inline std::optional<Value> parse(std::string_view text) {
  return detail::Parser(text).document();
}

inline bool valid(std::string_view text) { return parse(text).has_value(); }

}  // namespace copbft::json
