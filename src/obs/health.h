#ifndef SRC_OBS_HEALTH_H_
#define SRC_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/snapshot.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// Heartbeats and driver health (the supervisor side of src/obs/snapshot.h).
//
// Every driver with a status directory publishes `heartbeat.json` next to
// its snapshot: one small, flat JSON object carrying identity (role, pid),
// phase, progress counters and two wall-clock stamps. A supervisor
// (`gauntlet status`) evaluates a heartbeat against three signals:
//
//   * phase == "done"                the worker finished; age is irrelevant
//   * kill(pid, 0) liveness          a gone process is dead, not stalled
//   * heartbeat age vs. a threshold  a live process that stopped updating
//                                    its heartbeat is stalled
//
// A file that fails to parse (torn by a non-atomic writer, truncated by a
// crash, hand-edited) is reported as corrupt — unhealthy, never a crash of
// the reader. Heartbeat contents are wall-clock by nature and never feed
// any deterministic artifact.
// ---------------------------------------------------------------------------

inline constexpr int kHeartbeatVersion = 1;

// A worker with no heartbeat update for this long (default) is stalled.
inline constexpr uint64_t kDefaultStallThresholdMs = 10000;

struct Heartbeat {
  std::string role;
  std::string phase;
  int64_t pid = 0;
  uint64_t programs_total = 0;
  uint64_t programs_done = 0;
  uint64_t tests_generated = 0;
  uint64_t findings = 0;
  uint64_t requests_served = 0;
  uint64_t started_unix_ms = 0;
  uint64_t updated_unix_ms = 0;
};

// One line of JSON (trailing newline included).
std::string HeartbeatJson(const Heartbeat& heartbeat);

// False + *error on malformed input or a version mismatch.
bool ParseHeartbeatJson(const std::string& text, Heartbeat* out, std::string* error);

// Atomic write (src/support/file_io.h WriteFileAtomic); false on failure.
bool WriteHeartbeatFile(const std::string& path, const Heartbeat& heartbeat);

// The heartbeat a snapshot implies (the StatusEmitter writes both from one
// provider call, so they can never disagree).
Heartbeat HeartbeatFromSnapshot(const Snapshot& snapshot);

// Milliseconds since the unix epoch (system clock: heartbeat stamps must be
// comparable across processes, unlike TraceNowMicros' steady epoch).
uint64_t UnixNowMillis();

// True when `pid` names a live process (kill(pid, 0), EPERM counts as
// alive). False for pid <= 0.
bool ProcessAlive(int64_t pid);

enum class WorkerHealth {
  kHealthy,  // live pid, fresh heartbeat
  kDone,     // phase "done": the run finished (the process may have exited)
  kStalled,  // live pid, heartbeat older than the stall threshold
  kDead,     // pid is gone but the phase never reached "done"
  kCorrupt,  // heartbeat missing or unparseable
};

std::string WorkerHealthToString(WorkerHealth health);

struct HealthVerdict {
  WorkerHealth state = WorkerHealth::kCorrupt;
  uint64_t age_ms = 0;  // now - updated_unix_ms (0 when corrupt)
  std::string detail;   // human-readable reason for non-healthy states

  bool unhealthy() const {
    return state == WorkerHealth::kStalled || state == WorkerHealth::kDead ||
           state == WorkerHealth::kCorrupt;
  }
};

// Pure evaluation (the caller supplies the clock and the liveness probe, so
// tests can exercise every verdict without real processes or sleeps).
HealthVerdict EvaluateHeartbeat(const Heartbeat& heartbeat, uint64_t now_unix_ms,
                                uint64_t stall_threshold_ms, bool pid_alive);

// --- fleet status ----------------------------------------------------------

struct WorkerStatus {
  std::string role;  // heartbeat role, or the directory name as fallback
  bool has_heartbeat = false;
  Heartbeat heartbeat;
  HealthVerdict health;
  bool has_snapshot = false;  // snapshot.json exists (its contents are not read)
};

struct FleetStatus {
  // The directory's one driver, when it published; empty otherwise.
  std::vector<WorkerStatus> workers;
  uint64_t collected_unix_ms = 0;
  uint64_t stall_threshold_ms = kDefaultStallThresholdMs;

  // Progress: the driver's heartbeat counters (zero when its heartbeat is
  // missing or unreadable).
  uint64_t programs_total = 0;
  uint64_t programs_done = 0;
  uint64_t tests_generated = 0;
  uint64_t findings = 0;
  uint64_t requests_served = 0;
  uint64_t started_unix_ms = 0;

  int unhealthy_workers = 0;

  bool healthy() const { return !workers.empty() && unhealthy_workers == 0; }
  // Every worker reached phase "done".
  bool complete() const;
};

// Reads the driver's heartbeat in `status_dir` and evaluates it
// (EvaluateHeartbeat with the real clock + liveness); a snapshot.json alone
// still marks the directory as a driver's. A directory with neither file
// yields no workers: the path is not a status directory. Never throws on
// file contents — a corrupt heartbeat makes the driver a kCorrupt worker.
FleetStatus CollectFleetStatus(const std::string& status_dir, uint64_t stall_threshold_ms);

// The human dashboard: one row per worker (role, pid, phase, progress,
// findings, heartbeat age, health) and a fleet summary line with an ETA
// extrapolated from progress so far.
std::string FleetStatusText(const FleetStatus& fleet);

// The machine rendering: one JSON object (single line + newline) with the
// aggregates, healthy/complete verdicts, and a workers array.
std::string FleetStatusJson(const FleetStatus& fleet);

}  // namespace gauntlet

#endif  // SRC_OBS_HEALTH_H_
