#include "io/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace harl {
namespace json {

// ---------------------------------------------------------------- Value

Value Value::null() { return Value(); }

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number_raw(std::string raw) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.str_ = std::move(raw);
  return v;
}

Value Value::number(std::int64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
  return number_raw(buf);
}

Value Value::number(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(n));
  return number_raw(buf);
}

Value Value::number(double v) { return number_raw(format_double(v)); }

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

double Value::as_double(double fallback) const {
  if (kind_ != Kind::kNumber) return fallback;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(str_.c_str(), &end);
  if (end == str_.c_str() || errno == ERANGE) return fallback;
  return v;
}

std::int64_t Value::as_int64(std::int64_t fallback) const {
  if (kind_ != Kind::kNumber) return fallback;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(str_.c_str(), &end, 10);
  if (end == str_.c_str() || errno == ERANGE) return fallback;
  // Reject fractional tokens like "1.5" for integer fields.
  if (*end == '.' || *end == 'e' || *end == 'E') {
    double d = as_double(static_cast<double>(fallback));
    return static_cast<std::int64_t>(d);
  }
  return v;
}

std::uint64_t Value::as_uint64(std::uint64_t fallback) const {
  if (kind_ != Kind::kNumber) return fallback;
  if (!str_.empty() && str_[0] == '-') return fallback;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(str_.c_str(), &end, 10);
  if (end == str_.c_str() || errno == ERANGE) return fallback;
  return v;
}

void Value::set(std::string key, Value v) {
  for (auto& kv : members_) {
    if (kv.first == key) {
      kv.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(const std::string& key) const {
  for (const auto& kv : members_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

std::string Value::dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return str_;
    case Kind::kString:
      return escape(str_);
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        out += items_[i].dump();
      }
      out += ']';
      return out;
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        out += escape(members_[i].first);
        out += ':';
        out += members_[i].second.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

// ---------------------------------------------------------------- helpers

std::string format_double(double v) {
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

// ---------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  Parser(const std::string& text, ParseError* err) : text_(text), err_(err) {}

  Value run() {
    skip_ws();
    Value v = parse_value();
    if (!err_->ok) return Value();
    skip_ws();
    if (pos_ < text_.size()) {
      fail("trailing content after JSON value");
      return Value();
    }
    return v;
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool at_end() const { return pos_ >= text_.size(); }

  void advance() {
    if (pos_ >= text_.size()) return;
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void skip_ws() {
    while (!at_end()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  void fail(const std::string& msg) {
    if (!err_->ok) return;  // keep the first error
    err_->ok = false;
    err_->line = line_;
    err_->column = col_;
    err_->message = msg;
  }

  bool expect(char c, const char* what) {
    if (peek() != c) {
      fail(std::string("expected ") + what);
      return false;
    }
    advance();
    return true;
  }

  bool literal(const char* word) {
    std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      fail(std::string("invalid literal (expected ") + word + ")");
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) advance();
    return true;
  }

  Value parse_value() {
    if (depth_ > kMaxDepth) {
      fail("nesting too deep");
      return Value();
    }
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't': return literal("true") ? Value::boolean(true) : Value();
      case 'f': return literal("false") ? Value::boolean(false) : Value();
      case 'n': return literal("null") ? Value::null() : Value();
      case '\0':
        fail("unexpected end of input");
        return Value();
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    ++depth_;
    Value obj = Value::object();
    advance();  // '{'
    skip_ws();
    if (peek() == '}') {
      advance();
      --depth_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') {
        fail("expected object key string");
        return Value();
      }
      Value key = parse_string();
      if (!err_->ok) return Value();
      skip_ws();
      if (!expect(':', "':'")) return Value();
      skip_ws();
      Value v = parse_value();
      if (!err_->ok) return Value();
      obj.set(key.as_string(), std::move(v));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      if (!expect('}', "',' or '}'")) return Value();
      break;
    }
    --depth_;
    return obj;
  }

  Value parse_array() {
    ++depth_;
    Value arr = Value::array();
    advance();  // '['
    skip_ws();
    if (peek() == ']') {
      advance();
      --depth_;
      return arr;
    }
    for (;;) {
      skip_ws();
      Value v = parse_value();
      if (!err_->ok) return Value();
      arr.push_back(std::move(v));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      if (!expect(']', "',' or ']'")) return Value();
      break;
    }
    --depth_;
    return arr;
  }

  Value parse_string() {
    advance();  // '"'
    std::string out;
    for (;;) {
      if (at_end()) {
        fail("unterminated string");
        return Value();
      }
      char c = peek();
      if (c == '"') {
        advance();
        return Value::string(std::move(out));
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return Value();
      }
      if (c != '\\') {
        out += c;
        advance();
        continue;
      }
      advance();  // '\\'
      char e = peek();
      switch (e) {
        case '"': out += '"'; advance(); break;
        case '\\': out += '\\'; advance(); break;
        case '/': out += '/'; advance(); break;
        case 'b': out += '\b'; advance(); break;
        case 'f': out += '\f'; advance(); break;
        case 'n': out += '\n'; advance(); break;
        case 'r': out += '\r'; advance(); break;
        case 't': out += '\t'; advance(); break;
        case 'u': {
          advance();
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = peek();
            unsigned d;
            if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("invalid \\u escape");
              return Value();
            }
            code = code * 16 + d;
            advance();
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as two independent 3-byte sequences; record fields are ASCII).
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
          fail("invalid escape character");
          return Value();
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') advance();
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("invalid number");
      return Value();
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    if (peek() == '.') {
      advance();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected after decimal point");
        return Value();
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-') advance();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected in exponent");
        return Value();
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    return Value::number_raw(text_.substr(start, pos_ - start));
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  ParseError* err_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int depth_ = 0;
};

}  // namespace

std::string ParseError::to_string() const {
  if (ok) return "ok";
  return "line " + std::to_string(line) + ", column " + std::to_string(column) +
         ": " + message;
}

Value parse(const std::string& text, ParseError* err) {
  ParseError local;
  if (err == nullptr) err = &local;
  *err = ParseError{};
  Parser p(text, err);
  Value v = p.run();
  if (!err->ok) return Value();
  return v;
}

}  // namespace json
}  // namespace harl
