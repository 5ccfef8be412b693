#ifndef SRC_DIST_SERVE_H_
#define SRC_DIST_SERVE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/gauntlet/campaign.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"

namespace gauntlet {

class CorpusStore;

// ---------------------------------------------------------------------------
// `gauntlet serve`: the always-on campaign service (first increment).
//
// A long-lived process accepts P4 programs over a local AF_UNIX stream
// socket, runs the full detection pipeline on each submission —
// validate (§5) + testgen (§6) + execute on the selected targets — and
// streams the verdict back as one JSON object. Every submission folds into
// the server's shared sinks: the corpus store (reproducer triples) and the
// metrics registry (coverage points included), so an absorbed traffic
// stream accumulates exactly the artifacts a batch campaign writes.
//
// Wire protocol (versioned, length-prefixed):
//
//   frame     := u32 payload length (big-endian) ++ payload bytes
//   request   := "gauntlet-submit 1\n" header* "\n" <program text>
//              | "gauntlet-shutdown 1\n"
//   header    := "bug <catalogue-name>\n" | "target <registry-name>\n"
//   response  := one frame holding one JSON object (single line)
//
// One connection per request: connect, send one frame, read one frame,
// close. `bug` headers seed faults into the compilers for that submission
// (on top of the server's base BugConfig); `target` headers override the
// replay target set. Responses:
//
//   {"version":1,"status":"ok","program_index":N,"tests_generated":T,
//    "findings":[{"method":...,"kind":...,"component":...,"attributed":...}]}
//   {"version":1,"status":"error","error":"..."}
//   {"version":1,"status":"shutting-down","served":N}
//
// A malformed or ill-typed submission is an "error" response (the
// connection still answers), and so is one that fails inside the pipeline
// in any other way (a bug check, an exhausted allocator). A malformed
// *frame* drops the connection, and so does a request frame that has not
// arrived in full kServeConnectionDeadlineSeconds after the accept (a
// client that sent nothing, stalled mid-frame or trickles its bytes), or a
// response the client has not taken within as long. The server serves one
// connection at a time, so the deadline bounds how long one slow client
// keeps the others waiting. The server exits its accept loop on a shutdown
// request.
// ---------------------------------------------------------------------------

inline constexpr int kServeProtocolVersion = 1;

// Time an accepted connection has to deliver its whole request frame, and
// then to take its response.
inline constexpr int kServeConnectionDeadlineSeconds = 3;

struct ServeOptions {
  // Path of the AF_UNIX socket to bind. An existing socket file is
  // replaced (the crashed-predecessor case).
  std::string socket_path;
  // Detection configuration for every submission: targets, tv/testgen
  // budgets, use_cache, and the shared metrics/trace sinks.
  // num_programs/seed/generator are unused — the traffic stream replaces
  // the generator.
  CampaignOptions campaign;
  // When non-empty, every submission's findings persist as reproducer
  // triples here (deduped across submissions).
  std::string corpus_dir;
  // Stop after this many submissions even without a shutdown request;
  // 0 = serve until shutdown. Lets tests and smoke gates bound the loop.
  int max_requests = 0;
  // Telemetry output files. When a path is set and the matching
  // campaign sink is null, the server wires in a sink it owns. The files
  // are (re)written atomically on every status emission and once more —
  // fatally on failure — when Run() returns, so a killed server keeps its
  // telemetry up to the last flush.
  std::string metrics_out;
  std::string trace_out;
  // Live-status directory (src/obs/snapshot.h): a snapshot every
  // snapshot_interval_ms, plus a flush of the out files above alongside
  // each emission. Empty = no snapshots.
  std::string status_dir;
  int snapshot_interval_ms = 1000;
  // Install SIGTERM/SIGINT handlers for the duration of Run(): a stop
  // signal exits the accept loop gracefully — sinks folded, files flushed,
  // final snapshot phase "done" — instead of killing the process mid-write.
  // Off by default so embedding tests never touch process-global handlers.
  bool install_signal_handlers = false;
};

class GauntletServer {
 public:
  // `bugs` is the base fault set every submission runs against (the
  // server-side seeded compilers); per-request `bug` headers add to it.
  GauntletServer(ServeOptions options, BugConfig bugs);
  ~GauntletServer();
  GauntletServer(const GauntletServer&) = delete;
  GauntletServer& operator=(const GauntletServer&) = delete;

  // Binds and listens; throws CompileError on socket failures. Separate
  // from Run so callers (and tests) know the socket accepts connections
  // before the first client submits.
  void Start();

  // The accept loop: serves until a shutdown request or max_requests.
  // Returns the number of submissions served.
  int Run();

  const std::string& socket_path() const { return options_.socket_path; }
  int served() const { return served_; }

  // Everything absorbed so far, merged in submission order (the traffic
  // stream's index order). Run() folds it into the configured sinks once
  // the accept loop exits.
  const CampaignReport& report() const { return report_; }

 private:
  std::string HandleSubmission(const std::string& payload);
  // Copies the shared state under the mutex, folds the campaign domains on
  // the metrics copy (when not yet folded in place), rewrites the telemetry out
  // files atomically, and returns the status snapshot the state implies.
  // Doubles as the StatusEmitter provider; `final_flush` makes a failed
  // file write fatal instead of best-effort.
  Snapshot FlushAndSnapshot(bool final_flush);

  ServeOptions options_;
  BugConfig base_bugs_;
  int listen_fd_ = -1;
  int served_ = 0;
  bool shutdown_requested_ = false;
  bool folded_ = false;
  CampaignReport report_;
  std::unique_ptr<ValidationCache> cache_;
  std::unique_ptr<CorpusStore> corpus_;
  // Server-owned sinks, wired into options_.campaign by the constructor
  // when an out path asks for telemetry the caller did not inject sinks
  // for.
  MetricsRegistry own_metrics_;
  TraceCollector own_trace_;
  TraceBuffer* trace_buffer_ = nullptr;
  // Guards served_/report_/cache_ and the campaign sinks: the accept loop
  // holds it across each submission, the status emitter thread takes it to
  // copy state for a flush.
  std::mutex state_mutex_;
  std::atomic<const char*> phase_{"starting"};
  uint64_t started_unix_ms_ = 0;
  std::unique_ptr<StatusEmitter> emitter_;
};

// --- client side -----------------------------------------------------------

// Builds a submit-request payload (headers + blank line + program text).
std::string BuildSubmitPayload(const std::string& program_text,
                               const std::vector<std::string>& bug_names,
                               const std::vector<std::string>& target_names);

// The shutdown-request payload.
std::string BuildShutdownPayload();

// Connects to the server, sends one request frame, reads one response
// frame, closes. Returns the response payload (a JSON object); throws
// CompileError on connection or framing failures.
std::string SendServeRequest(const std::string& socket_path, const std::string& payload);

}  // namespace gauntlet

#endif  // SRC_DIST_SERVE_H_
