#pragma once
// Minimal JSON support for the observability layer: a streaming writer used
// by the trace/stats exporters and a small recursive-descent parser used by
// the schema tests, the golden-counter regression suite and the service,
// which parses every untrusted request frame with it (so the parser is
// strict and its recursion bounded). Deliberately tiny — no external
// dependency, deterministic output (stable key order is the caller's job;
// numbers are formatted with fixed printf specifiers so a given build emits
// byte-identical documents for identical inputs).

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace mlp::trace {

/// Escape a string for embedding inside JSON quotes.
std::string json_escape(const std::string& text);

/// Append-only JSON builder. The caller opens/closes containers in order;
/// commas are inserted automatically. No pretty-printing beyond optional
/// newlines between top-level-array elements (keeps multi-MB traces
/// line-diffable).
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& name);
  void value(const std::string& text);
  void value(const char* text);
  void value(u64 number);
  void value(i64 number);
  void value(u32 number) { value(static_cast<u64>(number)); }
  void value(int number) { value(static_cast<i64>(number)); }
  void value(double number);
  void value(bool flag);
  void raw(const std::string& text);  ///< pre-rendered JSON fragment
  void newline();                     ///< cosmetic separator (after commas)

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void separator();

  std::string out_;
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

/// Parsed JSON value. Numbers keep both the double and (when the text was
/// integral) the exact signed integer, so counters survive a round trip.
struct JsonValue {
  enum class Type : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  i64 integer = 0;           ///< saturated at i64 max for huge u64 tokens
  u64 unsigned_integer = 0;  ///< exact for non-negative integer tokens
  bool is_integer = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& name) const;
  /// Convenience: member as u64 (checks presence and integrality).
  u64 u64_at(const std::string& name) const;
  const std::string& str_at(const std::string& name) const;
};

/// Deepest nesting of arrays and objects json_parse accepts. The deepest
/// document the tools write nests 4 levels; the bound keeps a hostile frame
/// from overflowing the parsing thread's stack.
inline constexpr u32 kMaxJsonDepth = 64;

/// Parse a complete JSON document; throws SimError("json", ...) on malformed
/// input: trailing garbage, nesting deeper than kMaxJsonDepth, a number
/// outside the JSON grammar or an integer outside its type (i64 when
/// negative, u64 otherwise), a \u escape without four hex digits.
JsonValue json_parse(const std::string& text);

}  // namespace mlp::trace
