#include "src/obs/snapshot.h"

#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "src/support/file_io.h"
#include "src/support/json.h"

namespace gauntlet {

namespace fs = std::filesystem;

std::string SnapshotJson(const Snapshot& snapshot) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": " << kSnapshotVersion << ",\n";
  out << "  \"role\": " << JsonQuoted(snapshot.role) << ",\n";
  out << "  \"phase\": " << JsonQuoted(snapshot.phase) << ",\n";
  out << "  \"pid\": " << snapshot.pid << ",\n";
  out << "  \"started_unix_ms\": " << snapshot.started_unix_ms << ",\n";
  out << "  \"updated_unix_ms\": " << snapshot.updated_unix_ms << ",\n";
  out << "  \"programs_total\": " << snapshot.programs_total << ",\n";
  out << "  \"programs_done\": " << snapshot.programs_done << ",\n";
  out << "  \"tests_generated\": " << snapshot.tests_generated << ",\n";
  out << "  \"findings\": " << snapshot.findings << ",\n";
  out << "  \"requests_served\": " << snapshot.requests_served << "\n}\n";
  return out.str();
}

bool ParseSnapshotJson(const std::string& text, Snapshot* out, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  JsonValue root;
  if (!ParseJson(text, &root, error)) {
    return false;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    return fail("expected an object");
  }
  const JsonValue* version = root.Find("version");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber) {
    return fail("missing snapshot version");
  }
  if (version->number != static_cast<uint64_t>(kSnapshotVersion)) {
    return fail("unsupported snapshot version " + std::to_string(version->number));
  }
  Snapshot parsed;
  uint64_t pid = 0;
  const std::pair<const char*, uint64_t*> numbers[] = {
      {"pid", &pid},
      {"started_unix_ms", &parsed.started_unix_ms},
      {"updated_unix_ms", &parsed.updated_unix_ms},
      {"programs_total", &parsed.programs_total},
      {"programs_done", &parsed.programs_done},
      {"tests_generated", &parsed.tests_generated},
      {"findings", &parsed.findings},
      {"requests_served", &parsed.requests_served}};
  for (const auto& [key, target] : numbers) {
    const JsonValue* member = root.Find(key);
    if (member != nullptr && member->kind != JsonValue::Kind::kNumber) {
      return fail(std::string("\"") + key + "\" is not an unsigned integer");
    }
    if (member != nullptr) {
      *target = member->number;
    }
  }
  const std::pair<const char*, std::string*> strings[] = {{"role", &parsed.role},
                                                          {"phase", &parsed.phase}};
  for (const auto& [key, target] : strings) {
    const JsonValue* member = root.Find(key);
    if (member != nullptr && member->kind != JsonValue::Kind::kString) {
      return fail(std::string("\"") + key + "\" is not a string");
    }
    if (member != nullptr) {
      *target = member->string;
    }
  }
  parsed.pid = static_cast<int64_t>(pid);
  *out = std::move(parsed);
  return true;
}

bool WriteSnapshotFile(const std::string& path, const Snapshot& snapshot) {
  return WriteFileAtomic(path, SnapshotJson(snapshot));
}

std::string SnapshotPathIn(const std::string& status_dir) {
  return (fs::path(status_dir) / "snapshot.json").string();
}

StatusEmitter::StatusEmitter(std::string status_dir, int interval_ms,
                             std::function<Snapshot()> provider)
    : status_dir_(std::move(status_dir)),
      interval_ms_(interval_ms < 1 ? 1 : interval_ms),
      provider_(std::move(provider)) {
  std::error_code ec;
  fs::create_directories(status_dir_, ec);  // emission is best-effort anyway
  EmitNow();
  thread_ = std::thread([this] { Loop(); });
}

StatusEmitter::~StatusEmitter() { Stop(); }

void StatusEmitter::EmitNow() {
  const std::string json = SnapshotJson(provider_());
  std::lock_guard<std::mutex> lock(emit_mutex_);
  WriteFileAtomic(SnapshotPathIn(status_dir_), json);
}

void StatusEmitter::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait_for(lock, std::chrono::milliseconds(interval_ms_), [this] { return stop_; });
    if (stop_) {
      return;
    }
    lock.unlock();
    EmitNow();
    lock.lock();
  }
}

void StatusEmitter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  // The final word: callers update their state (phase "done", final
  // counters) before stopping, so the last published snapshot is the
  // finished one.
  EmitNow();
}

}  // namespace gauntlet
