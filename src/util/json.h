// Minimal JSON support for the observability artifacts (metrics.json,
// trace.json, JSONL logs): a streaming writer with automatic comma
// placement, and a small recursive-descent parser used by tests and tools to
// round-trip snapshots. Deliberately not a general-purpose JSON library —
// no DOM mutation, no incremental parse; see docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mmr {

/// Escapes `s` for inclusion inside a JSON string literal. Quotes are not
/// added; control characters become \uXXXX.
std::string json_escape(std::string_view s);

/// Room json_number_into() needs: "-2.2250738585072014e-308" is 24 chars.
inline constexpr std::size_t kJsonNumberChars = 32;

/// The one JSON number format: `v` exactly as C printf("%.17g") writes it
/// (max_digits10 significant digits, so it round-trips), or "null" when `v`
/// is not finite (JSON has no NaN/Inf). Writes into `buf` and returns a view
/// of it.
std::string_view json_number_into(double v, char (&buf)[kJsonNumberChars]);
/// json_number_into() as a string, for pre-encoded raw fields.
std::string json_number(double v);

/// Streaming JSON writer. The caller keeps begin/end calls balanced; the
/// writer tracks nesting and inserts commas. Doubles are written by
/// json_number_into(). Bytes go straight to the stream's buffer, without a
/// temporary string or stream per token; a short write sets badbit.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Writes `"k":` inside the current object; follow with a value or a
  /// begin_object()/begin_array().
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  /// Keeps a literal from binding to value(bool).
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();
  /// Emits `raw` verbatim in value position (caller guarantees valid JSON).
  JsonWriter& raw(std::string_view raw);

  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  void before_value();
  void put(char c);
  void put(std::string_view s);
  /// Writes `"` + json_escape(s) + `"`.
  void put_string(std::string_view s);

  std::ostream& os_;
  std::streambuf& buf_;
  /// One entry per open container: the element count written so far.
  /// first = is_object.
  std::vector<std::pair<bool, std::size_t>> stack_;
  bool pending_key_ = false;
};

/// Parsed JSON value. Numbers are stored as double (sufficient for the
/// artifact round-trip tests; 64-bit counters above 2^53 lose precision).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_v = false;
  double num_v = 0;
  std::string str_v;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool has(const std::string& k) const {
    return is_object() && obj.count(k) > 0;
  }
  /// Object member access; throws CheckError when absent or not an object.
  const JsonValue& at(const std::string& k) const;
  /// Array element access; throws CheckError when out of range.
  const JsonValue& at(std::size_t i) const;
};

/// Deepest container nesting json_parse accepts. The repo's writers nest at
/// most 4 levels; the bound keeps hostile input from exhausting the stack.
inline constexpr std::size_t kJsonMaxDepth = 256;

/// Parses a complete JSON document; trailing non-whitespace is an error.
/// Throws CheckError with an offset on malformed input, on a number outside
/// the double range and on nesting deeper than kJsonMaxDepth.
JsonValue json_parse(std::string_view text);

/// `v` as a count. Throws CheckError unless it is a number holding an
/// integer in [0, 2^53], the range a double represents exactly; `what`
/// names the field in the message.
std::uint64_t json_count(const JsonValue& v, const char* what);

}  // namespace mmr
