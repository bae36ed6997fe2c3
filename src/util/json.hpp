// Minimal JSON reader/writer for the serving daemon's wire protocol.
//
// The daemon (src/serve) exchanges newline-delimited JSON with untrusted
// clients, so this parser is written for hostile input: bounded nesting
// depth, no recursion past that bound, every syntax error reported with a
// byte offset, and no exceptions on any input. It builds a small DOM in
// which every scalar also keeps its *raw source text*, so a value can be
// re-emitted byte-for-byte (the field-projection path splices raw number
// spans instead of round-tripping through double formatting).
//
// This is deliberately not a general JSON library: no unicode validation
// beyond \uXXXX pass-through, numbers parsed with strtod semantics, and
// object keys kept in source order (duplicates: last one wins on lookup).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace p2p::util {

class JsonValue {
 public:
  enum class Kind : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;  // decoded (escapes resolved) for Kind::kString
  std::string raw;     // exact source span of this value (scalars only)
  std::vector<JsonValue> array;
  // Source order preserved; lookup scans (objects here are tiny).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_string() const noexcept { return kind == Kind::kString; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_object() const noexcept { return kind == Kind::kObject; }

  /// Member of an object (nullptr when absent or not an object). With
  /// duplicate keys the last occurrence wins, matching common parsers.
  const JsonValue* find(std::string_view key) const noexcept {
    const JsonValue* hit = nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) hit = &v;
    }
    return hit;
  }

  /// Number as a non-negative integer (nullopt when not a number, not
  /// integral, negative, or too large for uint64).
  std::optional<unsigned long long> as_uint() const noexcept;
};

/// Parse one JSON value spanning the whole of `text` (surrounding
/// whitespace allowed, trailing garbage is an error). Returns false and
/// fills `error` ("offset N: message") on any malformed input; never
/// throws. `max_depth` bounds array/object nesting.
bool parse_json(std::string_view text, JsonValue* out, std::string* error,
                std::size_t max_depth = 32);

/// Append the JSON string literal for `s` (quotes included, control
/// characters and '"'/'\\' escaped) to `out`.
void append_json_string(std::string* out, std::string_view s);

}  // namespace p2p::util
