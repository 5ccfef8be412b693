#ifndef SRC_OBS_HEALTH_H_
#define SRC_OBS_HEALTH_H_

#include <cstdint>
#include <string>

#include "src/obs/snapshot.h"

namespace gauntlet {

// ---------------------------------------------------------------------------
// Driver health (the supervisor side of src/obs/snapshot.h).
//
// `gauntlet status` reads the snapshot.json a --status-dir run publishes and
// evaluates the driver against three signals:
//
//   * phase == "done"                the run finished; age is irrelevant
//   * kill(pid, 0) liveness          a gone process is dead, not stalled
//   * updated_unix_ms age vs. a      a live process that stopped updating
//     threshold                      its snapshot is stalled
//
// A snapshot that fails to parse (truncated by a crash, hand-edited, or
// from another schema version) is reported as corrupt — unhealthy, never a
// crash of the reader. Its contents are wall-clock by nature and never feed
// any deterministic artifact.
// ---------------------------------------------------------------------------

// A driver with no snapshot update for this long (default) is stalled.
inline constexpr uint64_t kDefaultStallThresholdMs = 10000;

// Milliseconds since the unix epoch (system clock: snapshot stamps must be
// comparable across processes, unlike TraceNowMicros' steady epoch).
uint64_t UnixNowMillis();

// True when `pid` names a live process (kill(pid, 0), EPERM counts as
// alive). False for pid <= 0.
bool ProcessAlive(int64_t pid);

enum class DriverHealth {
  kHealthy,  // live pid, fresh snapshot
  kDone,     // phase "done": the run finished (the process may have exited)
  kStalled,  // live pid, snapshot older than the stall threshold
  kDead,     // pid is gone but the phase never reached "done"
  kCorrupt,  // snapshot unreadable
};

std::string DriverHealthToString(DriverHealth health);

struct HealthVerdict {
  DriverHealth state = DriverHealth::kCorrupt;
  uint64_t age_ms = 0;  // now - updated_unix_ms (0 when corrupt)
  std::string detail;   // human-readable reason for non-healthy states

  bool unhealthy() const {
    return state == DriverHealth::kStalled || state == DriverHealth::kDead ||
           state == DriverHealth::kCorrupt;
  }
};

// Pure evaluation of a snapshot as the driver's heartbeat (the caller
// supplies the clock and the liveness probe, so tests can exercise every
// verdict without real processes or sleeps).
HealthVerdict EvaluateHeartbeat(const Snapshot& snapshot, uint64_t now_unix_ms,
                                uint64_t stall_threshold_ms, bool pid_alive);

// One status directory's driver, as `gauntlet status` sees it.
struct DriverStatus {
  Snapshot snapshot;  // all defaults when the snapshot is corrupt
  HealthVerdict health;
  uint64_t collected_unix_ms = 0;
  uint64_t stall_threshold_ms = kDefaultStallThresholdMs;

  bool healthy() const { return !health.unhealthy(); }
  bool complete() const { return health.state == DriverHealth::kDone; }
};

// Reads the driver's snapshot.json in `status_dir` and evaluates it
// (EvaluateHeartbeat with the real clock + liveness). False when the path
// holds no snapshot.json: it is not a status directory. Never throws on
// file contents — an unreadable snapshot makes the driver kCorrupt.
bool CollectStatus(const std::string& status_dir, uint64_t stall_threshold_ms,
                   DriverStatus* out);

// The human dashboard: a header and one row (role, pid, phase, progress,
// findings, snapshot age, health), with an ETA extrapolated from progress
// so far while the run is healthy.
std::string StatusText(const DriverStatus& status);

// The machine rendering: one flat JSON object (single line + newline) with
// the healthy/complete verdicts and the snapshot's counters.
std::string StatusJson(const DriverStatus& status);

}  // namespace gauntlet

#endif  // SRC_OBS_HEALTH_H_
