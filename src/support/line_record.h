#ifndef SRC_SUPPORT_LINE_RECORD_H_
#define SRC_SUPPORT_LINE_RECORD_H_

#include <cstdint>
#include <istream>
#include <string>
#include <string_view>

namespace gauntlet {

// ---------------------------------------------------------------------------
// The line-record formats: versioned text files of whitespace-separated
// tokens, one record per line (shard results). Strings
// travel as hex tokens so whitespace and arbitrary bytes survive.
// ---------------------------------------------------------------------------

// "-" for the empty string, two lowercase hex digits per byte otherwise.
std::string ToHexToken(std::string_view text);

// Strict line-numbered reader. Every failure throws CompileError naming the
// format and, once a line has been read, its number — a truncated or
// hand-edited file must fail the load, never half-load. Counts read from
// the file are never trusted for allocation: callers grow containers one
// parsed element at a time, so a corrupt count fails at the first missing
// token instead of reserving memory it names.
class LineReader {
 public:
  // `format` names the file kind in errors ("shard result").
  LineReader(std::istream& in, std::string format);

  // Moves to the next non-empty line; false at end of input. The current
  // line must be fully consumed: a leftover token is corruption.
  bool NextLine();
  // NextLine, or throws "<format> truncated after line <n>: expected <what>".
  void RequireLine(const char* what);
  // The last record is fully consumed and no non-empty line follows.
  void ExpectEnd();

  std::string Token(const char* what);
  void ExpectWord(const char* word);
  // The whole token as a decimal within the type's range; only Int takes
  // a '-' sign.
  uint64_t U64(const char* what);
  int Int(const char* what);
  // A ToHexToken token, decoded.
  std::string HexString(const char* what);

  // Throws "<format> line <n>: <message>".
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  template <typename T>
  T Decimal(const char* what);

  std::istream& in_;
  std::string format_;
  std::string line_;
  size_t pos_ = 0;  // next unread byte of line_
  int line_number_ = 0;
};

}  // namespace gauntlet

#endif  // SRC_SUPPORT_LINE_RECORD_H_
