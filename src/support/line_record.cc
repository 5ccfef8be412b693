#include "src/support/line_record.h"

#include <charconv>
#include <utility>

#include "src/support/error.h"

namespace gauntlet {

namespace {

bool IsSeparator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

int HexNibble(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

}  // namespace

std::string ToHexToken(std::string_view text) {
  if (text.empty()) {
    return "-";
  }
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  hex.reserve(text.size() * 2);
  for (const unsigned char c : text) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

LineReader::LineReader(std::istream& in, std::string format)
    : in_(in), format_(std::move(format)) {}

bool LineReader::NextLine() {
  if (line_number_ > 0) {
    while (pos_ < line_.size() && IsSeparator(line_[pos_])) {
      ++pos_;
    }
    if (pos_ < line_.size()) {
      Fail("unexpected trailing token");
    }
  }
  while (std::getline(in_, line_)) {
    ++line_number_;
    pos_ = 0;
    if (!line_.empty()) {
      return true;
    }
  }
  return false;
}

void LineReader::RequireLine(const char* what) {
  if (!NextLine()) {
    throw CompileError(format_ + " truncated after line " + std::to_string(line_number_) +
                       ": expected " + what);
  }
}

void LineReader::ExpectEnd() {
  if (NextLine()) {
    Fail("unexpected content after the last record");
  }
}

std::string LineReader::Token(const char* what) {
  while (pos_ < line_.size() && IsSeparator(line_[pos_])) {
    ++pos_;
  }
  const size_t start = pos_;
  while (pos_ < line_.size() && !IsSeparator(line_[pos_])) {
    ++pos_;
  }
  if (pos_ == start) {
    Fail(std::string("expected ") + what);
  }
  return line_.substr(start, pos_ - start);
}

void LineReader::ExpectWord(const char* word) {
  if (Token(word) != word) {
    Fail(std::string("expected ") + word);
  }
}

template <typename T>
T LineReader::Decimal(const char* what) {
  const std::string token = Token(what);
  const char* const end = token.data() + token.size();
  T value = 0;
  const auto [stop, problem] = std::from_chars(token.data(), end, value);
  if (problem != std::errc() || stop != end) {
    Fail(std::string("expected ") + what);
  }
  return value;
}

uint64_t LineReader::U64(const char* what) { return Decimal<uint64_t>(what); }

int LineReader::Int(const char* what) { return Decimal<int>(what); }

std::string LineReader::HexString(const char* what) {
  const std::string token = Token(what);
  if (token == "-") {
    return "";
  }
  if (token.size() % 2 != 0) {
    Fail(std::string("odd hex token for ") + what);
  }
  std::string text;
  text.reserve(token.size() / 2);
  for (size_t i = 0; i < token.size(); i += 2) {
    const int hi = HexNibble(token[i]);
    const int lo = HexNibble(token[i + 1]);
    if (hi < 0 || lo < 0) {
      Fail(std::string("bad hex token for ") + what);
    }
    text.push_back(static_cast<char>(hi << 4 | lo));
  }
  return text;
}

void LineReader::Fail(const std::string& message) const {
  throw CompileError(format_ + " line " + std::to_string(line_number_) + ": " + message);
}

}  // namespace gauntlet
