#ifndef SRC_OBS_SNAPSHOT_H_
#define SRC_OBS_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace gauntlet {

// ---------------------------------------------------------------------------
// Live telemetry snapshots (ROADMAP "soak campaigns" observability layer).
//
// A long-running driver — `campaign` or `serve` — periodically publishes
// its state-so-far as one JSON file, `snapshot.json`, inside its status
// directory. Snapshots are written atomically (WriteFileAtomic,
// src/support/file_io.h), so a reader polling the path mid-write sees either
// the previous snapshot or the new one, never a torn file. Alongside it
// lives `heartbeat.json` (src/obs/health.h): a small liveness record a
// supervisor can evaluate without parsing the full snapshot.
//
// Everything in a snapshot is *observation-only and timing-scoped*: the
// numbers reflect completion order, wall clocks and scheduling, and no final
// artifact (report, metrics.json, coverage.json, corpus) ever derives from
// them. Deterministic sections therefore stay byte-identical with snapshots
// on or off, for any --jobs value — the invariant every CI identity gate
// diffs.
//
// Status-directory layout (one driver per directory):
//
//   STATUS_DIR/snapshot.json         the driver's snapshot
//   STATUS_DIR/heartbeat.json        the driver's heartbeat
//
// `gauntlet status <STATUS_DIR>` reads both (src/obs/health.h,
// CollectFleetStatus).
// ---------------------------------------------------------------------------

// Schema version of snapshot.json. Bump on renamed keys or layout changes.
inline constexpr int kSnapshotVersion = 1;

struct Snapshot {
  std::string role;   // "campaign" or "serve"
  std::string phase;  // e.g. "testing", "merging", "serving", "done"
  int64_t pid = 0;
  uint64_t started_unix_ms = 0;
  uint64_t updated_unix_ms = 0;
  // Progress so far. Counters reflect completion order (timing-scoped by
  // construction); a serve session reports requests instead of programs.
  uint64_t programs_total = 0;
  uint64_t programs_done = 0;
  uint64_t tests_generated = 0;
  uint64_t findings = 0;
  uint64_t distinct_bugs = 0;
  uint64_t requests_served = 0;
  // A full MetricsJson rendering of the state so far (run_report.h layout),
  // embedded verbatim as the "metrics" member. Empty = omitted.
  std::string metrics_json;
};

// Renders one snapshot as a JSON object (trailing newline included).
std::string SnapshotJson(const Snapshot& snapshot);

// Parses the flat fields of a snapshot back. The embedded "metrics" object
// must parse but is not reconstructed. False + *error on malformed input (a
// torn or truncated file must read as corrupt, never half-load).
bool ParseSnapshotJson(const std::string& text, Snapshot* out, std::string* error);

// The reader side of the flat status records (snapshot.json,
// heartbeat.json): parses `text` as one JSON object whose "version" member
// equals `version`, then stores every member named in `numbers` or
// `strings`. A named member of the wrong type is corruption; absent members
// keep their value and other members are skipped. False + *error otherwise.
bool ParseStatusRecord(const std::string& text, const char* what, uint64_t version,
                       std::initializer_list<std::pair<const char*, uint64_t*>> numbers,
                       std::initializer_list<std::pair<const char*, std::string*>> strings,
                       std::string* error);

bool WriteSnapshotFile(const std::string& path, const Snapshot& snapshot);

// Canonical file names inside a status directory.
std::string SnapshotPathIn(const std::string& status_dir);
std::string HeartbeatPathIn(const std::string& status_dir);

// ---------------------------------------------------------------------------
// StatusEmitter: the background publisher.
//
// Owns one thread that calls `provider` every `interval_ms` and writes the
// returned snapshot (plus its derived heartbeat) into `status_dir`, both
// atomically. The provider runs on the emitter thread, so it must be
// thread-safe against the driver it observes — the drivers keep a
// mutex-protected live accumulator and atomics for exactly this. One
// snapshot is emitted immediately on construction (so the files exist as
// soon as the run starts) and a final one on Stop() (so the last published
// state is the finished state, phase "done").
//
// Emission is best-effort: a failed write is dropped, never fatal — losing
// one observation beats killing a campaign.
// ---------------------------------------------------------------------------
class StatusEmitter {
 public:
  StatusEmitter(std::string status_dir, int interval_ms, std::function<Snapshot()> provider);
  ~StatusEmitter();  // calls Stop() if the caller has not
  StatusEmitter(const StatusEmitter&) = delete;
  StatusEmitter& operator=(const StatusEmitter&) = delete;

  // Synchronously publishes one snapshot + heartbeat now.
  void EmitNow();

  // Stops the background thread (joining it) and publishes a final
  // snapshot. Idempotent.
  void Stop();

 private:
  void Loop();

  std::string status_dir_;
  int interval_ms_;
  std::function<Snapshot()> provider_;
  std::mutex mutex_;       // guards stop_/stopped_
  std::mutex emit_mutex_;  // serializes file writes (EmitNow is callable
                           // from the driver while the loop thread runs)
  std::condition_variable wake_;
  bool stop_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace gauntlet

#endif  // SRC_OBS_SNAPSHOT_H_
