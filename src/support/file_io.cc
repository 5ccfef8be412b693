#include "src/support/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <utility>

namespace gauntlet {

namespace {

std::atomic<uint64_t> g_temp_counter{0};

bool WriteAll(int fd, std::string_view content) {
  while (!content.empty()) {
    const ssize_t written = write(fd, content.data(), content.size());
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    content.remove_prefix(static_cast<size_t>(written));
  }
  return true;
}

// Makes a completed rename durable. Best-effort: some filesystems refuse
// to fsync a directory, and the rename has already happened.
void SyncDirectoryOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string directory =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
}

}  // namespace

bool ReadFile(const std::string& path, std::string* out) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  std::string content;
  char buffer[1 << 16];
  ssize_t got = 0;
  while ((got = read(fd, buffer, sizeof(buffer))) != 0) {
    if (got < 0 && errno != EINTR) {
      close(fd);
      return false;
    }
    if (got > 0) {
      content.append(buffer, static_cast<size_t>(got));
    }
  }
  close(fd);
  *out = std::move(content);
  return true;
}

bool WriteFileAtomic(const std::string& path, std::string_view content) {
  const std::string temp = path + ".tmp." + std::to_string(static_cast<long>(getpid())) + "." +
                           std::to_string(g_temp_counter.fetch_add(1));
  const int fd = open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return false;
  }
  const bool written = WriteAll(fd, content) && fsync(fd) == 0;
  if (close(fd) != 0 || !written || std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return false;
  }
  SyncDirectoryOf(path);
  return true;
}

}  // namespace gauntlet
