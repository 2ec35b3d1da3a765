#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>

#include "util/check.h"

namespace mmr {

namespace {

bool needs_escape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

/// The escape sequence of a character needs_escape() accepts.
std::string_view escape_sequence(unsigned char c, char (&buf)[8]) {
  switch (c) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\b':
      return "\\b";
    case '\f':
      return "\\f";
    case '\n':
      return "\\n";
    case '\r':
      return "\\r";
    case '\t':
      return "\\t";
    default:
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      return {buf, 6};
  }
}

/// Calls `emit` with the escaped form of `s` in pieces: each unescaped run
/// as one view into `s`, each escaped character as its sequence.
template <typename Emit>
void escape_runs(std::string_view s, Emit&& emit) {
  char buf[8];
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!needs_escape(c)) continue;
    if (i > run) emit(s.substr(run, i - run));
    emit(escape_sequence(c, buf));
    run = i + 1;
  }
  if (run < s.size()) emit(s.substr(run));
}

/// `v` in decimal, written into `buf` (room for any 64-bit value).
template <typename Int>
std::string_view integer_chars(Int v, char (&buf)[24]) {
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escape_runs(s, [&](std::string_view piece) { out += piece; });
  return out;
}

std::string_view json_number_into(double v, char (&buf)[kJsonNumberChars]) {
  if (!std::isfinite(v)) return "null";
  // The standard defines this as printf("%.17g"), the bytes an ostream at
  // max_digits10 writes, without the stream and locale machinery.
  const char* end =
      std::to_chars(buf, buf + kJsonNumberChars, v, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10)
          .ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

std::string json_number(double v) {
  char buf[kJsonNumberChars];
  return std::string(json_number_into(v, buf));
}

JsonWriter::JsonWriter(std::ostream& os) : os_(os), buf_(*os.rdbuf()) {}

void JsonWriter::put(char c) {
  if (buf_.sputc(c) == std::char_traits<char>::eof()) {
    os_.setstate(std::ios::badbit);
  }
}

void JsonWriter::put(std::string_view s) {
  const auto n = static_cast<std::streamsize>(s.size());
  if (buf_.sputn(s.data(), n) != n) os_.setstate(std::ios::badbit);
}

void JsonWriter::put_string(std::string_view s) {
  put('"');
  escape_runs(s, [&](std::string_view piece) { put(piece); });
  put('"');
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    MMR_CHECK_MSG(!stack_.back().first,
                  "JSON object members need key() before the value");
    if (stack_.back().second > 0) put(',');
    ++stack_.back().second;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  put('{');
  stack_.emplace_back(true, 0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  MMR_CHECK_MSG(!stack_.empty() && stack_.back().first,
                "end_object() without begin_object()");
  stack_.pop_back();
  put('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  put('[');
  stack_.emplace_back(false, 0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  MMR_CHECK_MSG(!stack_.empty() && !stack_.back().first,
                "end_array() without begin_array()");
  stack_.pop_back();
  put(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  MMR_CHECK_MSG(!stack_.empty() && stack_.back().first && !pending_key_,
                "key() is only valid directly inside an object");
  if (stack_.back().second > 0) put(',');
  ++stack_.back().second;
  put_string(k);
  put(':');
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  put_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  char buf[kJsonNumberChars];
  put(json_number_into(v, buf));
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  char buf[24];
  put(integer_chars(v, buf));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  char buf[24];
  put(integer_chars(v, buf));
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  put(v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  put("null");
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view raw) {
  before_value();
  put(raw);
  return *this;
}

const JsonValue& JsonValue::at(const std::string& k) const {
  MMR_CHECK_MSG(is_object(), "JsonValue::at(key) on a non-object");
  auto it = obj.find(k);
  MMR_CHECK_MSG(it != obj.end(), "missing JSON key '" + k + "'");
  return it->second;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  MMR_CHECK_MSG(is_array(), "JsonValue::at(index) on a non-array");
  MMR_CHECK_MSG(i < arr.size(), "JSON array index out of range");
  return arr[i];
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    MMR_CHECK_MSG(pos_ == text_.size(),
                  "trailing characters after JSON document at offset " +
                      std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw CheckError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kJsonMaxDepth) {
          fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
        }
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.str_v = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        if (consume_literal("true")) {
          v.bool_v = true;
        } else if (consume_literal("false")) {
          v.bool_v = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      v.obj.emplace(std::move(key), parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs are not needed for our
          // own artifacts and are rejected).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogates unsupported");
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
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!digits) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    // strtod needs a terminated string and `text_` may be a view into a
    // larger buffer, so it reads a copy of exactly the scanned bytes.
    const std::string_view token = text_.substr(start, pos_ - start);
    char small[64];
    std::string large;
    const char* digits_at = small;
    if (token.size() < sizeof small) {
      std::memcpy(small, token.data(), token.size());
      small[token.size()] = '\0';
    } else {
      large.assign(token);
      digits_at = large.c_str();
    }
    v.num_v = std::strtod(digits_at, nullptr);
    if (!std::isfinite(v.num_v)) fail("number out of range");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers currently open
};

}  // namespace

std::uint64_t json_count(const JsonValue& v, const char* what) {
  MMR_CHECK_MSG(v.type == JsonValue::Type::kNumber && v.num_v >= 0 &&
                    v.num_v <= 9007199254740992.0 &&
                    v.num_v == std::floor(v.num_v),
                "'" << what << "' must be an integer in [0, 2^53]");
  return static_cast<std::uint64_t>(v.num_v);
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace mmr
