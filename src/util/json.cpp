#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace mmr {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    MMR_CHECK_MSG(!stack_.back().first,
                  "JSON object members need key() before the value");
    if (stack_.back().second > 0) os_ << ',';
    ++stack_.back().second;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.emplace_back(true, 0);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  MMR_CHECK_MSG(!stack_.empty() && stack_.back().first,
                "end_object() without begin_object()");
  stack_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.emplace_back(false, 0);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  MMR_CHECK_MSG(!stack_.empty() && !stack_.back().first,
                "end_array() without begin_array()");
  stack_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  MMR_CHECK_MSG(!stack_.empty() && stack_.back().first && !pending_key_,
                "key() is only valid directly inside an object");
  if (stack_.back().second > 0) os_ << ',';
  ++stack_.back().second;
  os_ << '"' << json_escape(k) << "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    os_ << "null";
    return *this;
  }
  std::ostringstream tmp;
  tmp.precision(std::numeric_limits<double>::max_digits10);
  tmp << v;
  os_ << tmp.str();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  os_ << "null";
  return *this;
}

JsonWriter& JsonWriter::raw(const std::string& raw) {
  before_value();
  os_ << raw;
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
  explicit Parser(const std::string& text) : text_(text) {}

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
    // strtod stops at the first byte that is not part of the number, which
    // is where the scan above stopped too.
    v.num_v = std::strtod(text_.c_str() + start, nullptr);
    if (!std::isfinite(v.num_v)) fail("number out of range");
    return v;
  }

  const std::string& text_;
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

JsonValue json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace mmr
