#pragma once

/// \file json.hpp
/// Hand-rolled tolerant JSON (no third-party deps): raw-token numbers for
/// uint64 fidelity, line/column errors, byte-stable `format_double`.
/// Invariant: serialization is deterministic — equal values produce equal
/// bytes.  Collaborators: record, gbdt_io.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace harl {
namespace json {

/// A parsed JSON value.  Numbers keep their *raw source text* so integer
/// fidelity survives beyond the 53-bit double mantissa (hardware fingerprints
/// and seeds are full 64-bit words) and doubles re-serialize to the exact
/// bytes they were written with.  Object member order is preserved, which
/// makes re-serialization deterministic.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  static Value null();
  static Value boolean(bool b);
  static Value number_raw(std::string raw);  ///< pre-formatted numeric token
  static Value number(std::int64_t v);
  static Value number(std::uint64_t v);
  static Value number(double v);  ///< shortest round-trip formatting
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  const std::string& as_string() const { return str_; }
  /// Numeric accessors parse the raw token; they return the fallback when the
  /// value is not a number or the token does not fit the requested type.
  double as_double(double fallback = 0) const;
  std::int64_t as_int64(std::int64_t fallback = 0) const;
  std::uint64_t as_uint64(std::uint64_t fallback = 0) const;
  const std::string& raw_number() const { return str_; }

  std::vector<Value>& items() { return items_; }
  const std::vector<Value>& items() const { return items_; }
  void push_back(Value v) { items_.push_back(std::move(v)); }

  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }
  /// Sets member `key`: replaces its value in place (the member keeps its
  /// position) when present, else appends it.  An object never holds a key
  /// twice, so parsed duplicate keys resolve last-one-wins.
  void set(std::string key, Value v);
  /// The member with `key`, or nullptr.
  const Value* find(const std::string& key) const;

  /// Compact one-line serialization (no spaces), member order preserved.
  std::string dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string str_;  ///< string payload or raw number token
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parse failure position and message.  `line`/`column` are 1-based and point
/// at the offending character within the parsed text.
struct ParseError {
  bool ok = true;
  int line = 0;
  int column = 0;
  std::string message;

  std::string to_string() const;
};

/// Parse one JSON document from `text`.  Trailing whitespace is allowed;
/// any other trailing content is an error.  On failure returns a null Value
/// and fills `*err` with the position.
Value parse(const std::string& text, ParseError* err);

/// Shortest decimal formatting of `v` that parses back bit-identically
/// (%.15g, widening to %.17g only when needed).  Not localized.
std::string format_double(double v);

/// Escape `s` as a JSON string literal including the quotes.
std::string escape(const std::string& s);

}  // namespace json
}  // namespace harl
