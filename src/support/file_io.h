#ifndef SRC_SUPPORT_FILE_IO_H_
#define SRC_SUPPORT_FILE_IO_H_

#include <string>
#include <string_view>

namespace gauntlet {

// The only place the tool opens files. Every artifact it persists goes
// through WriteFileAtomic, so a crash or a concurrent reader sees either
// the previous content or the new content, never a torn mix.

// Reads the whole file (bytes as they are) into *out. False when it cannot
// be opened or read.
bool ReadFile(const std::string& path, std::string* out);

// Writes `content` to a temp file in the destination's directory (same
// filesystem, so the rename is atomic), fsyncs it, renames it over `path`
// and fsyncs the directory so the rename itself survives a crash. False on
// any failure; the temp file is removed.
bool WriteFileAtomic(const std::string& path, std::string_view content);

}  // namespace gauntlet

#endif  // SRC_SUPPORT_FILE_IO_H_
