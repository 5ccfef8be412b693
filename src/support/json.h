#ifndef SRC_SUPPORT_JSON_H_
#define SRC_SUPPORT_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gauntlet {

// ---------------------------------------------------------------------------
// The one JSON escaper and the one JSON reader behind every artifact the
// tool writes: metrics and snapshot files, `gauntlet status
// --json`, the corpus's finding.json, serve responses and traces.
//
// Writers lay out their bytes by hand (CI gates and downstream consumers
// match them literally) and share only JsonQuoted. Readers parse with
// ParseJson and walk the resulting tree.
// ---------------------------------------------------------------------------

// A JSON string literal (surrounding quotes included) with quotes and
// backslashes escaped and every byte outside printable ASCII emitted as a
// byte-wise \u00xx escape, so hostile names can never break the emitted
// JSON.
std::string JsonQuoted(std::string_view text);

// One parsed value. `begin`/`end` are the value's byte span in the parsed
// text, so a reader can also slice a member out verbatim.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  uint64_t number = 0;
  std::string string;
  std::vector<JsonValue> items;                            // array elements
  std::vector<std::pair<std::string, JsonValue>> members;  // object, document order
  size_t begin = 0;
  size_t end = 0;

  // The member named `key`; null when absent or when this is not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses `text` as exactly one JSON value, optionally surrounded by
// whitespace. Strict on everything the writers never produce: numbers are
// unsigned integers that fit in uint64 (no sign, fraction, exponent or
// leading zero), strings hold no raw control bytes and only \u escapes up
// to 00ff (decoded byte-wise, the inverse of JsonQuoted; raw bytes >= 0x7f
// are kept as they are), object keys are unique, and nesting is bounded.
// False + *error ("<problem> at offset N") on anything else.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace gauntlet

#endif  // SRC_SUPPORT_JSON_H_
