#include "src/support/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace gauntlet {

std::string JsonQuoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default: {
        // Escape control bytes and everything past printable ASCII
        // byte-wise: names are ASCII by construction, and strict parsers
        // reject raw bytes >= 0x7f that are not valid UTF-8.
        const unsigned byte = static_cast<unsigned char>(c);
        if (byte < 0x20 || byte >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

// Deep enough for every artifact (a snapshot's embedded histogram bounds
// sit at depth five), shallow enough that hostile nesting cannot exhaust
// the stack.
constexpr int kMaxDepth = 64;

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    bool ok = Value(out, 0);
    SkipSpace();
    if (ok && pos_ != text_.size()) {
      ok = Fail("trailing content");
    }
    if (!ok && error != nullptr) {
      *error = error_;
    }
    return ok;
  }

 private:
  bool Fail(const char* problem) {
    error_ = std::string(problem) + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Value(JsonValue* out, int depth) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Fail("expected a value");
    }
    out->begin = pos_;
    bool ok = false;
    switch (text_[pos_]) {
      case '{':
        out->kind = JsonValue::Kind::kObject;
        ok = depth < kMaxDepth ? Object(out, depth) : Fail("nesting too deep");
        break;
      case '[':
        out->kind = JsonValue::Kind::kArray;
        ok = depth < kMaxDepth ? Array(out, depth) : Fail("nesting too deep");
        break;
      case '"':
        out->kind = JsonValue::Kind::kString;
        ok = String(&out->string);
        break;
      case 't':
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = text_[pos_] == 't';
        ok = Literal(out->boolean ? "true" : "false");
        break;
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        ok = Literal("null");
        break;
      default:
        out->kind = JsonValue::Kind::kNumber;
        ok = Number(&out->number);
    }
    out->end = pos_;
    return ok;
  }

  bool Object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    if (Consume('}')) {
      return true;
    }
    do {
      SkipSpace();
      std::pair<std::string, JsonValue> member;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected a member name");
      }
      if (!String(&member.first)) {
        return false;
      }
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      if (!Value(&member.second, depth + 1)) {
        return false;
      }
      out->members.push_back(std::move(member));
    } while (Consume(','));
    if (!Consume('}')) {
      return Fail("expected ',' or '}'");
    }
    std::vector<std::string_view> keys;
    keys.reserve(out->members.size());
    for (const auto& member : out->members) {
      keys.push_back(member.first);
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      return Fail("duplicate member name in the object ending");
    }
    return true;
  }

  bool Array(JsonValue* out, int depth) {
    ++pos_;  // '['
    if (Consume(']')) {
      return true;
    }
    do {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) {
        return false;
      }
    } while (Consume(','));
    return Consume(']') || Fail("expected ',' or ']'");
  }

  bool String(std::string* out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Fail("raw control byte in a string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      switch (text_[pos_++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned value = 0;
          const char* const digits = text_.data() + pos_;
          const bool four_hex = text_.size() - pos_ >= 4 &&
                                std::from_chars(digits, digits + 4, value, 16).ptr == digits + 4;
          if (!four_hex) {
            return Fail("bad \\u escape");
          }
          if (value > 0xff) {
            return Fail("\\u escape above 00ff");
          }
          pos_ += 4;
          out->push_back(static_cast<char>(value));
          break;
        }
        default:
          --pos_;
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Number(uint64_t* out) {
    const char* const start = text_.data() + pos_;
    const auto [stop, problem] = std::from_chars(start, text_.data() + text_.size(), *out);
    if (stop == start) {
      return Fail("unexpected character");
    }
    if (problem != std::errc()) {
      return Fail("integer overflows uint64");
    }
    if (*start == '0' && stop - start > 1) {
      return Fail("leading zero");
    }
    pos_ += static_cast<size_t>(stop - start);
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      return Fail("expected an unsigned integer");
    }
    return true;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("unexpected character");
    }
    pos_ += word.size();
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  JsonValue parsed;
  if (!JsonReader(text).Parse(&parsed, error)) {
    return false;
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace gauntlet
