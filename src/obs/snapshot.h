#ifndef SRC_OBS_SNAPSHOT_H_
#define SRC_OBS_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace gauntlet {

// ---------------------------------------------------------------------------
// Live telemetry snapshots (ROADMAP "soak campaigns" observability layer).
//
// A long-running driver — `campaign` or `serve` — periodically publishes
// its state so far as one small, flat JSON file, `snapshot.json`, inside its
// status directory. Snapshots are written atomically (WriteFileAtomic,
// src/support/file_io.h), so a reader polling the path mid-write sees either
// the previous snapshot or the new one, never a torn file. The snapshot is
// also the driver's heartbeat: `gauntlet status` (src/obs/health.h) judges
// the driver's health from its pid, phase and `updated_unix_ms` stamp.
//
// Everything in a snapshot is *observation-only and timing-scoped*: the
// numbers reflect completion order, wall clocks and scheduling, and no final
// artifact (report, metrics.json, corpus) ever derives from
// them. Deterministic sections therefore stay byte-identical with snapshots
// on or off, for any --jobs value — the invariant every CI identity gate
// diffs.
//
// Status-directory layout (one driver per directory):
//
//   STATUS_DIR/snapshot.json         the driver's snapshot
// ---------------------------------------------------------------------------

// Schema version of snapshot.json. Bump on renamed keys or layout changes.
inline constexpr int kSnapshotVersion = 2;

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
  uint64_t requests_served = 0;
};

// Renders one snapshot as a JSON object (trailing newline included).
std::string SnapshotJson(const Snapshot& snapshot);

// Parses a snapshot back: one JSON object whose "version" member equals
// kSnapshotVersion. A known member of the wrong type is corruption; absent
// members keep their default and unknown members are skipped. False +
// *error on malformed input (a torn or truncated file must read as corrupt,
// never half-load).
bool ParseSnapshotJson(const std::string& text, Snapshot* out, std::string* error);

bool WriteSnapshotFile(const std::string& path, const Snapshot& snapshot);

// The snapshot's canonical path inside a status directory.
std::string SnapshotPathIn(const std::string& status_dir);

// ---------------------------------------------------------------------------
// StatusEmitter: the background publisher.
//
// Owns one thread that calls `provider` every `interval_ms` and writes the
// returned snapshot into `status_dir` atomically. The provider runs on the
// emitter thread, so it must be thread-safe against the driver it observes
// — the campaign reads atomics, serve copies its state under a mutex. One
// snapshot is emitted immediately on construction (so the file exists as
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

  // Synchronously publishes one snapshot now.
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
