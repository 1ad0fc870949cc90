#include "trace/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace mlp::trace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
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

void JsonWriter::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted "name":
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::begin_object() {
  separator();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  MLP_SIM_CHECK(!needs_comma_.empty(), "json", "end_object without begin");
  needs_comma_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  separator();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  MLP_SIM_CHECK(!needs_comma_.empty(), "json", "end_array without begin");
  needs_comma_.pop_back();
  out_ += ']';
}

void JsonWriter::key(const std::string& name) {
  separator();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(const std::string& text) {
  separator();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
}

void JsonWriter::value(const char* text) { value(std::string(text)); }

void JsonWriter::value(u64 number) {
  separator();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(number));
  out_ += buf;
}

void JsonWriter::value(i64 number) {
  separator();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(number));
  out_ += buf;
}

void JsonWriter::value(double number) {
  separator();
  char buf[40];
  // %.17g round-trips any double; JSON has no inf/nan, map them to null.
  if (std::isfinite(number)) {
    std::snprintf(buf, sizeof(buf), "%.17g", number);
    out_ += buf;
  } else {
    out_ += "null";
  }
}

void JsonWriter::value(bool flag) {
  separator();
  out_ += flag ? "true" : "false";
}

void JsonWriter::raw(const std::string& text) {
  separator();
  out_ += text;
}

void JsonWriter::newline() { out_ += '\n'; }

const JsonValue* JsonValue::find(const std::string& name) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [key, value] : object) {
    if (key == name) return &value;
  }
  return nullptr;
}

u64 JsonValue::u64_at(const std::string& name) const {
  const JsonValue* v = find(name);
  MLP_SIM_CHECK(v != nullptr && v->type == Type::kNumber && v->is_integer &&
                    v->integer >= 0,
                "json", "missing or non-integral member: " + name);
  return v->unsigned_integer;
}

const std::string& JsonValue::str_at(const std::string& name) const {
  const JsonValue* v = find(name);
  MLP_SIM_CHECK(v != nullptr && v->type == Type::kString, "json",
                "missing or non-string member: " + name);
  return v->string;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    MLP_SIM_CHECK(pos_ == text_.size(), "json", "trailing garbage");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw SimError("json", why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* word) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
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
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          for (const char h : hex) {
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              fail("\\u escape needs four hex digits");
            }
          }
          pos_ += 4;
          const long code = std::strtol(hex.c_str(), nullptr, 16);
          // Traces only contain ASCII; encode low codepoints directly.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += '?';
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    return out;
  }

  /// The next character is `c` (false at the end of the text).
  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  /// One or more digits (the JSON grammar's `digits`).
  void digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("malformed number");
  }

  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?; an integer token must
  /// fit an i64 when negative and a u64 otherwise.
  JsonValue parse_number() {
    const size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else {
      digits();
    }
    const bool integral = !at('.') && !at('e') && !at('E');
    if (at('.')) {
      ++pos_;
      digits();
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits();
    }
    const std::string token = text_.substr(start, pos_ - start);
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = std::strtod(token.c_str(), nullptr);
    if (integral) {
      value.is_integer = true;
      errno = 0;
      value.integer = std::strtoll(token.c_str(), nullptr, 10);
      if (token[0] != '-') {
        // Counters are u64; keep full precision beyond i64 range.
        errno = 0;
        value.unsigned_integer = std::strtoull(token.c_str(), nullptr, 10);
      }
      if (errno == ERANGE) fail("integer out of range");
    }
    return value;
  }

  /// Enter one '[' or '{': recursion is bounded, so no frame can exhaust
  /// the stack of the thread that parses it.
  void descend() {
    if (++depth_ > kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    ++pos_;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue value;
    switch (peek()) {
      case '{': {
        value.type = JsonValue::Type::kObject;
        descend();
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          --depth_;
          return value;
        }
        while (true) {
          skip_ws();
          std::string name = parse_string();
          skip_ws();
          expect(':');
          value.object.emplace_back(std::move(name), parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          --depth_;
          return value;
        }
      }
      case '[': {
        value.type = JsonValue::Type::kArray;
        descend();
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          --depth_;
          return value;
        }
        while (true) {
          value.array.push_back(parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          --depth_;
          return value;
        }
      }
      case '"':
        value.type = JsonValue::Type::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        value.type = JsonValue::Type::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        value.type = JsonValue::Type::kNull;
        return value;
      default:
        return parse_number();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  u32 depth_ = 0;  ///< containers open at pos_
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace mlp::trace
