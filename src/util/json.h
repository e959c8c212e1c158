// Minimal JSON tree: parse, navigate, serialize.
//
// Covers exactly what the repo's own emitters produce (metrics/trace/profile
// dumps, BENCH_*.json) — objects, arrays, strings, doubles, bools, null —
// with strict parsing (no trailing garbage, bounded depth). Object members
// are stored in a sorted map, so Dump() output is canonical regardless of
// insertion order; emitters that care about field order write their JSON by
// hand and use this type only for reading it back.

#ifndef WIDEN_UTIL_JSON_H_
#define WIDEN_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace widen {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Strict parse of a complete JSON document (no trailing bytes).
  static StatusOr<Json> Parse(const std::string& text);

  Json() = default;
  static Json Null() { return Json(); }
  static Json Bool(bool v);
  static Json Number(double v);
  static Json String(std::string v);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Value accessors return a type-appropriate zero on kind mismatch, so
  // lookup chains on optional fields read cleanly without null checks.
  bool bool_value() const { return is_bool() && bool_; }
  double number_value() const { return is_number() ? number_ : 0.0; }
  int64_t int_value() const { return static_cast<int64_t>(number_value()); }
  const std::string& string_value() const;
  const std::vector<Json>& array_items() const;
  const std::map<std::string, Json>& object_items() const;

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;
  /// Find() that descends one level per key.
  const Json* FindPath(const std::vector<std::string>& keys) const;

  // Mutation (builders for tests and tools).
  Json& Set(const std::string& key, Json value);  // makes this an object
  Json& Append(Json value);                       // makes this an array

  /// Compact canonical serialization (sorted object keys, %.17g numbers —
  /// doubles round-trip exactly).
  std::string Dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// Escapes `s` for inclusion inside a double-quoted JSON string (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// A number for a hand-written JSON document: %.9g, or null for NaN and
/// infinities (JSON has no literal for them).
std::string JsonDouble(double v);

}  // namespace widen

#endif  // WIDEN_UTIL_JSON_H_
