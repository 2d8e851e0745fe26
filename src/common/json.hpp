#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

/// Minimal JSON document model: parse, navigate, dump.
///
/// Scope is deliberately small — the machine-readable surfaces of this
/// library (sweep cache payloads, golden-shape expectation files, report
/// exports) are all JSON we generate or check in ourselves, so the parser
/// targets standard JSON without extensions (no comments, no NaN/Infinity).
/// Objects preserve insertion order, and doubles are formatted with the
/// shortest representation that round-trips exactly, so parse → dump is
/// byte-stable for documents this library produced. That byte-stability is
/// what the sweep cache's "hit equals recompute" contract rests on.
namespace hetsched::json {

/// Deepest array/object nesting Value::parse accepts. Every document this
/// library writes stays far below it; deeper input (e.g. a megabyte of `[`
/// sent to the serve daemon) is rejected instead of exhausting the stack.
inline constexpr int kMaxParseDepth = 256;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  /// Insertion-ordered; duplicate keys are rejected at parse time.
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() : type_(Type::kNull) {}
  Value(bool value) : type_(Type::kBool), bool_(value) {}
  Value(double value) : type_(Type::kNumber), number_(value) {}
  Value(std::int64_t value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Value(int value) : type_(Type::kNumber), number_(value) {}
  Value(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Value(const char* value) : type_(Type::kString), string_(value) {}
  Value(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Value(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  /// Parses one JSON document (throws InvalidArgument on malformed input,
  /// trailing garbage, or nesting deeper than kMaxParseDepth).
  static Value parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw InvalidArgument on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int64() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; `at` throws when the key is missing, `find`
  /// returns nullptr instead.
  const Value& at(std::string_view key) const;
  const Value* find(std::string_view key) const;

  /// Appends to an array / object under construction (converts a null value
  /// to the container type on first use).
  void push_back(Value element);
  void set(std::string key, Value value);

  /// Compact deterministic serialization (no whitespace, member order
  /// preserved).
  std::string dump() const;

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// included).
std::string escape(const std::string& text);

/// Shortest decimal form of `value` that parses back to exactly `value`.
/// Integral doubles print without a decimal point ("12", not "12.0").
std::string format_double(double value);

}  // namespace hetsched::json
