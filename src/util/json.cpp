#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace p2p::util {

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      fill_error(error);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after value");
      fill_error(error);
      return false;
    }
    return true;
  }

 private:
  bool parse_value(JsonValue* out, std::size_t depth) {
    if (depth > max_depth_) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        return parse_string_value(out);
      case 't':
      case 'f':
        return parse_bool(out);
      case 'n':
        return parse_null(out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
        return fail("unexpected character");
    }
  }

  bool parse_object(JsonValue* out, std::size_t depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') return fail("expected object key string");
      std::string key;
      if (!parse_string(&key, nullptr)) return false;
      skip_ws();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue* out, std::size_t depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string_value(JsonValue* out) {
    const std::size_t start = pos_;
    out->kind = JsonValue::Kind::kString;
    if (!parse_string(&out->string, nullptr)) return false;
    out->raw = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  /// Decode a JSON string literal starting at pos_ (on the opening '"').
  bool parse_string(std::string* out, const void*) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point; surrogate pairs are passed
          // through as two 3-byte sequences (requests are config keys and
          // INI values — exotic unicode only needs to not corrupt state).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!skip_digits()) return fail("expected digit");
    if (peek() == '.') {
      ++pos_;
      if (!skip_digits()) return fail("expected digit after '.'");
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!skip_digits()) return fail("expected exponent digit");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->raw = std::string(text_.substr(start, pos_ - start));
    out->number = std::strtod(out->raw.c_str(), nullptr);
    if (!std::isfinite(out->number)) return fail("number out of range");
    return true;
  }

  bool parse_bool(JsonValue* out) {
    if (text_.substr(pos_, 4) == "true") {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      out->raw = "true";
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      out->raw = "false";
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue* out) {
    if (text_.substr(pos_, 4) == "null") {
      out->kind = JsonValue::Kind::kNull;
      out->raw = "null";
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool skip_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  /// One-past-the-end reads as '\0' so callers can compare freely.
  char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool fail(const char* message) {
    if (error_message_ == nullptr) {
      error_message_ = message;
      error_pos_ = pos_;
    }
    return false;
  }

  void fill_error(std::string* error) const {
    if (error == nullptr) return;
    char buf[128];
    std::snprintf(buf, sizeof buf, "offset %zu: %s", error_pos_,
                  error_message_ != nullptr ? error_message_ : "parse error");
    *error = buf;
  }

  std::string_view text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
  const char* error_message_ = nullptr;
  std::size_t error_pos_ = 0;
};

}  // namespace

std::optional<unsigned long long> JsonValue::as_uint() const noexcept {
  if (kind != Kind::kNumber) return std::nullopt;
  if (number < 0.0 || number != std::floor(number)) return std::nullopt;
  // Exact uint64 representation tops out at 2^53 for doubles; seeds and
  // counts live far below that.
  if (number > 9007199254740992.0) return std::nullopt;
  return static_cast<unsigned long long>(number);
}

bool parse_json(std::string_view text, JsonValue* out, std::string* error,
                std::size_t max_depth) {
  Parser parser(text, max_depth);
  return parser.parse(out, error);
}

void append_json_string(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace p2p::util
