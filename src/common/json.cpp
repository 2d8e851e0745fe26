#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace hetsched::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("json parse error at offset " +
                          std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        // The parser recurses per level, so bound the nesting: hostile
        // input must not overflow the stack. A throw abandons the parser,
        // so the count needs no unwinding.
        if (depth_ == kMaxParseDepth)
          fail("nesting deeper than " + std::to_string(kMaxParseDepth) +
               " levels");
        ++depth_;
        Value value = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value::Object members;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    for (;;) {
      std::string key = parse_string_at_peek();
      expect(':');
      for (const auto& [existing, unused] : members) {
        (void)unused;
        if (existing == key) fail("duplicate object key '" + key + "'");
      }
      members.emplace_back(std::move(key), parse_value());
      const char next = peek();
      ++pos_;
      if (next == '}') return Value(std::move(members));
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value::Array elements;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(elements));
    }
    for (;;) {
      elements.push_back(parse_value());
      const char next = peek();
      ++pos_;
      if (next == ']') return Value(std::move(elements));
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string_at_peek() {
    if (peek() != '"') fail("expected string");
    return parse_string();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (static_cast<unsigned char>(ch) < 0x20)
        fail("raw control character in string");
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape character");
      }
    }
  }

  /// \uXXXX — decoded to UTF-8. Surrogate pairs are not combined (the
  /// library never emits them); lone surrogates are rejected.
  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char ch = text_[pos_++];
      code <<= 4;
      if (ch >= '0' && ch <= '9') code |= static_cast<unsigned>(ch - '0');
      else if (ch >= 'a' && ch <= 'f') code |= static_cast<unsigned>(ch - 'a' + 10);
      else if (ch >= 'A' && ch <= 'F') code |= static_cast<unsigned>(ch - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape");
    std::string out;
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
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("digits required in exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    return Value(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects
};

void require_type(Value::Type actual, Value::Type expected,
                  const char* what) {
  if (actual != expected)
    throw InvalidArgument(std::string("json value is not ") + what);
}

void dump_value(const Value& value, std::string& out);

void dump_string(const std::string& text, std::string& out) {
  out += '"';
  out += escape(text);
  out += '"';
}

void dump_value(const Value& value, std::string& out) {
  switch (value.type()) {
    case Value::Type::kNull: out += "null"; return;
    case Value::Type::kBool: out += value.as_bool() ? "true" : "false"; return;
    case Value::Type::kNumber: out += format_double(value.as_number()); return;
    case Value::Type::kString: dump_string(value.as_string(), out); return;
    case Value::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& element : value.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_value(element, out);
      }
      out += ']';
      return;
    }
    case Value::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.as_object()) {
        if (!first) out += ',';
        first = false;
        dump_string(key, out);
        out += ':';
        dump_value(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Value::as_bool() const {
  require_type(type_, Type::kBool, "a bool");
  return bool_;
}

double Value::as_number() const {
  require_type(type_, Type::kNumber, "a number");
  return number_;
}

std::int64_t Value::as_int64() const {
  const double value = as_number();
  // Casting a double outside [-2^63, 2^63) is undefined behaviour, so the
  // range check must come first.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(value >= -kTwoTo63 && value < kTwoTo63))
    throw InvalidArgument("json number is out of int64 range");
  const auto truncated = static_cast<std::int64_t>(value);
  if (static_cast<double>(truncated) != value)
    throw InvalidArgument("json number is not an integer");
  return truncated;
}

const std::string& Value::as_string() const {
  require_type(type_, Type::kString, "a string");
  return string_;
}

const Value::Array& Value::as_array() const {
  require_type(type_, Type::kArray, "an array");
  return array_;
}

const Value::Object& Value::as_object() const {
  require_type(type_, Type::kObject, "an object");
  return object_;
}

const Value& Value::at(std::string_view key) const {
  const Value* value = find(key);
  if (value == nullptr)
    throw InvalidArgument("json object has no member '" + std::string(key) +
                          "'");
  return *value;
}

const Value* Value::find(std::string_view key) const {
  require_type(type_, Type::kObject, "an object");
  for (const auto& [name, member] : object_) {
    if (name == key) return &member;
  }
  return nullptr;
}

void Value::push_back(Value element) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  require_type(type_, Type::kArray, "an array");
  array_.push_back(std::move(element));
}

void Value::set(std::string key, Value value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  require_type(type_, Type::kObject, "an object");
  for (auto& [name, member] : object_) {
    if (name == key) {
      member = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

std::string Value::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string format_double(double value) {
  if (std::isnan(value) || std::isinf(value))
    throw InvalidArgument("json cannot represent NaN or Infinity");
  if (value == 0.0) return "0";  // normalizes -0.0 as well
  const double rounded = std::nearbyint(value);
  if (rounded == value && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  // Shortest fixed/scientific form that parses back exactly.
  for (int precision = 6; precision <= 17; ++precision) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) return buffer;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace hetsched::json
