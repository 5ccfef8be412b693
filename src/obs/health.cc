#include "src/obs/health.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <sstream>

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

std::string PadRight(std::string text, size_t width) {
  if (text.size() < width) {
    text.append(width - text.size(), ' ');
  }
  return text;
}

// Reads one worker's artifacts out of `directory`. False when the
// directory holds neither a heartbeat nor a snapshot (not a worker).
bool ReadWorkerStatus(const std::string& directory, uint64_t now_ms,
                      uint64_t stall_threshold_ms, WorkerStatus* out) {
  WorkerStatus status;
  status.role = fs::path(directory).filename().string();

  std::string text;
  const std::string heartbeat_path = HeartbeatPathIn(directory);
  const std::string snapshot_path = SnapshotPathIn(directory);
  const bool heartbeat_exists = fs::exists(heartbeat_path);
  status.has_snapshot = fs::exists(snapshot_path);
  if (!heartbeat_exists && !status.has_snapshot) {
    return false;
  }

  if (heartbeat_exists && ReadFile(heartbeat_path, &text)) {
    std::string error;
    if (ParseHeartbeatJson(text, &status.heartbeat, &error)) {
      status.has_heartbeat = true;
      if (!status.heartbeat.role.empty()) {
        status.role = status.heartbeat.role;
      }
      status.health = EvaluateHeartbeat(status.heartbeat, now_ms, stall_threshold_ms,
                                        ProcessAlive(status.heartbeat.pid));
    } else {
      status.health.state = WorkerHealth::kCorrupt;
      status.health.detail = "heartbeat unreadable: " + error;
    }
  } else {
    status.health.state = WorkerHealth::kCorrupt;
    status.health.detail = heartbeat_exists ? "heartbeat unreadable" : "no heartbeat file";
  }

  *out = std::move(status);
  return true;
}

}  // namespace

std::string HeartbeatJson(const Heartbeat& heartbeat) {
  std::ostringstream out;
  out << "{\"version\":" << kHeartbeatVersion << ",\"role\":" << JsonQuoted(heartbeat.role)
      << ",\"phase\":" << JsonQuoted(heartbeat.phase) << ",\"pid\":" << heartbeat.pid
      << ",\"programs_total\":" << heartbeat.programs_total
      << ",\"programs_done\":" << heartbeat.programs_done
      << ",\"tests_generated\":" << heartbeat.tests_generated
      << ",\"findings\":" << heartbeat.findings
      << ",\"requests_served\":" << heartbeat.requests_served
      << ",\"started_unix_ms\":" << heartbeat.started_unix_ms
      << ",\"updated_unix_ms\":" << heartbeat.updated_unix_ms << "}\n";
  return out.str();
}

bool ParseHeartbeatJson(const std::string& text, Heartbeat* out, std::string* error) {
  Heartbeat parsed;
  uint64_t pid = 0;
  if (!ParseStatusRecord(text, "heartbeat", kHeartbeatVersion,
                         {{"pid", &pid},
                          {"programs_total", &parsed.programs_total},
                          {"programs_done", &parsed.programs_done},
                          {"tests_generated", &parsed.tests_generated},
                          {"findings", &parsed.findings},
                          {"requests_served", &parsed.requests_served},
                          {"started_unix_ms", &parsed.started_unix_ms},
                          {"updated_unix_ms", &parsed.updated_unix_ms}},
                         {{"role", &parsed.role}, {"phase", &parsed.phase}}, error)) {
    return false;
  }
  parsed.pid = static_cast<int64_t>(pid);
  *out = std::move(parsed);
  return true;
}

bool WriteHeartbeatFile(const std::string& path, const Heartbeat& heartbeat) {
  return WriteFileAtomic(path, HeartbeatJson(heartbeat));
}

Heartbeat HeartbeatFromSnapshot(const Snapshot& snapshot) {
  Heartbeat heartbeat;
  heartbeat.role = snapshot.role;
  heartbeat.phase = snapshot.phase;
  heartbeat.pid = snapshot.pid;
  heartbeat.programs_total = snapshot.programs_total;
  heartbeat.programs_done = snapshot.programs_done;
  heartbeat.tests_generated = snapshot.tests_generated;
  heartbeat.findings = snapshot.findings;
  heartbeat.requests_served = snapshot.requests_served;
  heartbeat.started_unix_ms = snapshot.started_unix_ms;
  heartbeat.updated_unix_ms = snapshot.updated_unix_ms;
  return heartbeat;
}

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

std::string WorkerHealthToString(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy: return "healthy";
    case WorkerHealth::kDone: return "done";
    case WorkerHealth::kStalled: return "stalled";
    case WorkerHealth::kDead: return "dead";
    case WorkerHealth::kCorrupt: return "corrupt";
  }
  return "corrupt";
}

HealthVerdict EvaluateHeartbeat(const Heartbeat& heartbeat, uint64_t now_unix_ms,
                                uint64_t stall_threshold_ms, bool pid_alive) {
  HealthVerdict verdict;
  verdict.age_ms =
      now_unix_ms > heartbeat.updated_unix_ms ? now_unix_ms - heartbeat.updated_unix_ms : 0;
  if (heartbeat.phase == "done") {
    // A finished worker's process legitimately exits and its heartbeat
    // legitimately ages; neither is a failure.
    verdict.state = WorkerHealth::kDone;
    return verdict;
  }
  if (!pid_alive) {
    verdict.state = WorkerHealth::kDead;
    verdict.detail = "process " + std::to_string(heartbeat.pid) +
                     " is gone but the phase never reached \"done\"";
    return verdict;
  }
  if (verdict.age_ms >= stall_threshold_ms) {
    verdict.state = WorkerHealth::kStalled;
    verdict.detail = "no heartbeat update for " + FormatDuration(verdict.age_ms) +
                     " (threshold " + FormatDuration(stall_threshold_ms) + ")";
    return verdict;
  }
  verdict.state = WorkerHealth::kHealthy;
  return verdict;
}

bool FleetStatus::complete() const {
  if (workers.empty()) {
    return false;
  }
  for (const WorkerStatus& worker : workers) {
    if (worker.health.state != WorkerHealth::kDone) {
      return false;
    }
  }
  return true;
}

FleetStatus CollectFleetStatus(const std::string& status_dir, uint64_t stall_threshold_ms) {
  FleetStatus fleet;
  fleet.collected_unix_ms = UnixNowMillis();
  fleet.stall_threshold_ms = stall_threshold_ms;
  WorkerStatus driver;
  if (!fs::is_directory(status_dir) ||
      !ReadWorkerStatus(status_dir, fleet.collected_unix_ms, stall_threshold_ms, &driver)) {
    return fleet;
  }
  if (driver.health.unhealthy()) {
    fleet.unhealthy_workers = 1;
  }
  if (driver.has_heartbeat) {
    fleet.programs_total = driver.heartbeat.programs_total;
    fleet.programs_done = driver.heartbeat.programs_done;
    fleet.tests_generated = driver.heartbeat.tests_generated;
    fleet.findings = driver.heartbeat.findings;
    fleet.requests_served = driver.heartbeat.requests_served;
    fleet.started_unix_ms = driver.heartbeat.started_unix_ms;
  }
  fleet.workers.push_back(std::move(driver));
  return fleet;
}

std::string FleetStatusText(const FleetStatus& fleet) {
  std::ostringstream out;
  out << PadRight("worker", 14) << PadRight("pid", 9) << PadRight("phase", 16)
      << PadRight("done/total", 13) << PadRight("tests", 8) << PadRight("findings", 10)
      << PadRight("age", 8) << "health\n";
  for (const WorkerStatus& worker : fleet.workers) {
    const Heartbeat& hb = worker.heartbeat;
    out << PadRight(worker.role, 14);
    out << PadRight(worker.has_heartbeat ? std::to_string(hb.pid) : "-", 9);
    out << PadRight(worker.has_heartbeat ? hb.phase : "-", 16);
    out << PadRight(worker.has_heartbeat ? std::to_string(hb.programs_done) + "/" +
                                               std::to_string(hb.programs_total)
                                         : "-",
                    13);
    out << PadRight(worker.has_heartbeat ? std::to_string(hb.tests_generated) : "-", 8);
    out << PadRight(worker.has_heartbeat ? std::to_string(hb.findings) : "-", 10);
    out << PadRight(worker.has_heartbeat ? FormatDuration(worker.health.age_ms) : "-", 8);
    out << WorkerHealthToString(worker.health.state);
    if (!worker.health.detail.empty()) {
      out << "  (" << worker.health.detail << ")";
    }
    out << "\n";
  }
  out << "fleet: " << fleet.programs_done << "/" << fleet.programs_total << " programs, "
      << fleet.tests_generated << " tests, " << fleet.findings << " findings";
  if (fleet.requests_served > 0) {
    out << ", " << fleet.requests_served << " requests served";
  }
  const size_t healthy =
      fleet.workers.size() - static_cast<size_t>(fleet.unhealthy_workers);
  out << ", " << healthy << "/" << fleet.workers.size() << " workers healthy";
  if (fleet.complete()) {
    out << ", complete";
  } else if (fleet.programs_done > 0 && fleet.programs_total > fleet.programs_done &&
             fleet.started_unix_ms > 0 && fleet.collected_unix_ms > fleet.started_unix_ms) {
    const uint64_t elapsed = fleet.collected_unix_ms - fleet.started_unix_ms;
    const uint64_t eta =
        (fleet.programs_total - fleet.programs_done) * elapsed / fleet.programs_done;
    out << ", eta " << FormatDuration(eta);
  }
  out << "\n";
  return out.str();
}

std::string FleetStatusJson(const FleetStatus& fleet) {
  std::ostringstream out;
  out << "{\"version\":" << kSnapshotVersion << ",\"healthy\":"
      << (fleet.healthy() ? "true" : "false")
      << ",\"complete\":" << (fleet.complete() ? "true" : "false")
      << ",\"stall_threshold_ms\":" << fleet.stall_threshold_ms
      << ",\"programs_total\":" << fleet.programs_total
      << ",\"programs_done\":" << fleet.programs_done
      << ",\"tests_generated\":" << fleet.tests_generated << ",\"findings\":" << fleet.findings
      << ",\"requests_served\":" << fleet.requests_served << ",\"workers\":[";
  bool first = true;
  for (const WorkerStatus& worker : fleet.workers) {
    if (!first) {
      out << ",";
    }
    first = false;
    const Heartbeat& hb = worker.heartbeat;
    out << "{\"role\":" << JsonQuoted(worker.role)
        << ",\"health\":" << JsonQuoted(WorkerHealthToString(worker.health.state))
        << ",\"age_ms\":" << worker.health.age_ms << ",\"pid\":" << hb.pid
        << ",\"phase\":" << JsonQuoted(worker.has_heartbeat ? hb.phase : "")
        << ",\"programs_total\":" << hb.programs_total
        << ",\"programs_done\":" << hb.programs_done
        << ",\"tests_generated\":" << hb.tests_generated << ",\"findings\":" << hb.findings
        << ",\"requests_served\":" << hb.requests_served;
    if (!worker.health.detail.empty()) {
      out << ",\"detail\":" << JsonQuoted(worker.health.detail);
    }
    out << "}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace gauntlet
