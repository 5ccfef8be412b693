#include "src/obs/health.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "src/support/file_io.h"
#include "src/support/json.h"

namespace gauntlet {

namespace fs = std::filesystem;

namespace {

// "4.2s" / "12m30s" style durations for the dashboard.
std::string FormatDuration(uint64_t millis) {
  if (millis < 10000) {
    return std::to_string(millis / 1000) + "." + std::to_string((millis % 1000) / 100) + "s";
  }
  const uint64_t seconds = millis / 1000;
  if (seconds < 120) {
    return std::to_string(seconds) + "s";
  }
  const uint64_t minutes = seconds / 60;
  if (minutes < 120) {
    return std::to_string(minutes) + "m" + std::to_string(seconds % 60) + "s";
  }
  return std::to_string(minutes / 60) + "h" + std::to_string(minutes % 60) + "m";
}

// Pads `text` to `width` columns. A value that fills or overflows its
// column still gets one space, so it never runs into the next column.
std::string PadRight(std::string text, size_t width) {
  text.append(text.size() < width ? width - text.size() : 1, ' ');
  return text;
}

}  // namespace

uint64_t UnixNowMillis() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::system_clock::now().time_since_epoch())
                                   .count());
}

bool ProcessAlive(int64_t pid) {
  if (pid <= 0) {
    return false;
  }
  if (kill(static_cast<pid_t>(pid), 0) == 0) {
    return true;
  }
  return errno == EPERM;  // alive, just not ours to signal
}

std::string DriverHealthToString(DriverHealth health) {
  switch (health) {
    case DriverHealth::kHealthy: return "healthy";
    case DriverHealth::kDone: return "done";
    case DriverHealth::kStalled: return "stalled";
    case DriverHealth::kDead: return "dead";
    case DriverHealth::kCorrupt: return "corrupt";
  }
  return "corrupt";
}

HealthVerdict EvaluateHeartbeat(const Snapshot& snapshot, uint64_t now_unix_ms,
                                uint64_t stall_threshold_ms, bool pid_alive) {
  HealthVerdict verdict;
  verdict.age_ms =
      now_unix_ms > snapshot.updated_unix_ms ? now_unix_ms - snapshot.updated_unix_ms : 0;
  if (snapshot.phase == "done") {
    // A finished driver's process legitimately exits and its snapshot
    // legitimately ages; neither is a failure.
    verdict.state = DriverHealth::kDone;
    return verdict;
  }
  if (!pid_alive) {
    verdict.state = DriverHealth::kDead;
    verdict.detail = "process " + std::to_string(snapshot.pid) +
                     " is gone but the phase never reached \"done\"";
    return verdict;
  }
  if (verdict.age_ms >= stall_threshold_ms) {
    verdict.state = DriverHealth::kStalled;
    verdict.detail = "no snapshot update for " + FormatDuration(verdict.age_ms) +
                     " (threshold " + FormatDuration(stall_threshold_ms) + ")";
    return verdict;
  }
  verdict.state = DriverHealth::kHealthy;
  return verdict;
}

bool CollectStatus(const std::string& status_dir, uint64_t stall_threshold_ms,
                   DriverStatus* out) {
  const std::string path = SnapshotPathIn(status_dir);
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) {
    return false;
  }
  DriverStatus status;
  status.collected_unix_ms = UnixNowMillis();
  status.stall_threshold_ms = stall_threshold_ms;
  std::string text;
  std::string error = "cannot read the file";
  if (ReadFile(path, &text) && ParseSnapshotJson(text, &status.snapshot, &error)) {
    status.health = EvaluateHeartbeat(status.snapshot, status.collected_unix_ms,
                                      stall_threshold_ms, ProcessAlive(status.snapshot.pid));
  } else {
    status.health.state = DriverHealth::kCorrupt;
    status.health.detail = "snapshot unreadable: " + error;
  }
  *out = std::move(status);
  return true;
}

std::string StatusText(const DriverStatus& status) {
  const Snapshot& snapshot = status.snapshot;
  const bool read = status.health.state != DriverHealth::kCorrupt;
  const auto field = [read](const std::string& value) { return read ? value : "-"; };
  std::ostringstream out;
  out << PadRight("role", 14) << PadRight("pid", 9) << PadRight("phase", 16)
      << PadRight("done/total", 13) << PadRight("tests", 8) << PadRight("findings", 10)
      << PadRight("age", 8) << "health\n";
  out << PadRight(field(snapshot.role), 14) << PadRight(field(std::to_string(snapshot.pid)), 9)
      << PadRight(field(snapshot.phase), 16)
      << PadRight(field(std::to_string(snapshot.programs_done) + "/" +
                        std::to_string(snapshot.programs_total)),
                  13)
      << PadRight(field(std::to_string(snapshot.tests_generated)), 8)
      << PadRight(field(std::to_string(snapshot.findings)), 10)
      << PadRight(field(FormatDuration(status.health.age_ms)), 8)
      << DriverHealthToString(status.health.state);
  if (!status.health.detail.empty()) {
    out << "  (" << status.health.detail << ")";
  } else if (status.health.state == DriverHealth::kHealthy && snapshot.programs_done > 0 &&
             snapshot.programs_total > snapshot.programs_done && snapshot.started_unix_ms > 0 &&
             status.collected_unix_ms > snapshot.started_unix_ms) {
    const uint64_t elapsed = status.collected_unix_ms - snapshot.started_unix_ms;
    const uint64_t eta =
        (snapshot.programs_total - snapshot.programs_done) * elapsed / snapshot.programs_done;
    out << "  (eta " << FormatDuration(eta) << ")";
  }
  out << "\n";
  return out.str();
}

std::string StatusJson(const DriverStatus& status) {
  const Snapshot& snapshot = status.snapshot;
  std::ostringstream out;
  out << "{\"version\":" << kSnapshotVersion << ",\"healthy\":"
      << (status.healthy() ? "true" : "false")
      << ",\"complete\":" << (status.complete() ? "true" : "false")
      << ",\"stall_threshold_ms\":" << status.stall_threshold_ms
      << ",\"programs_total\":" << snapshot.programs_total
      << ",\"programs_done\":" << snapshot.programs_done
      << ",\"tests_generated\":" << snapshot.tests_generated
      << ",\"findings\":" << snapshot.findings
      << ",\"requests_served\":" << snapshot.requests_served
      << ",\"role\":" << JsonQuoted(snapshot.role)
      << ",\"health\":" << JsonQuoted(DriverHealthToString(status.health.state))
      << ",\"age_ms\":" << status.health.age_ms << ",\"pid\":" << snapshot.pid
      << ",\"phase\":" << JsonQuoted(snapshot.phase);
  if (!status.health.detail.empty()) {
    out << ",\"detail\":" << JsonQuoted(status.health.detail);
  }
  out << "}\n";
  return out.str();
}

}  // namespace gauntlet
