#include "src/dist/serve.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "src/cache/verdict_cache.h"
#include "src/frontend/parser.h"
#include "src/obs/health.h"
#include "src/obs/run_report.h"
#include "src/runtime/corpus.h"
#include "src/support/error.h"
#include "src/support/file_io.h"
#include "src/support/json.h"
#include "src/target/target.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {

namespace {

// Submissions are single programs; anything past this is garbage framing,
// not a P4 program.
constexpr uint32_t kMaxFramePayload = 16u << 20;

using Clock = std::chrono::steady_clock;

// The deadline of a client-side call: wait as long as the server takes.
constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

// Graceful-stop flag: SIGTERM/SIGINT drain the server instead of killing it
// mid-write. sig_atomic_t is the only thing a handler may touch.
volatile std::sig_atomic_t g_serve_stop = 0;

// Waits until `fd` is ready for `events` (POLLIN or POLLOUT), with the
// time left before `deadline`. Throws once the deadline passes, so a client
// that trickles its bytes is dropped like any other bad framing, and on a
// stop signal, so a connected client cannot hold a SIGTERM drain hostage.
void AwaitReady(int fd, short events, Clock::time_point deadline) {
  if (deadline == kNoDeadline) {
    return;
  }
  for (;;) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (left <= 0) {
      throw CompileError("serve: connection deadline passed");
    }
    pollfd entry = {fd, events, 0};
    const int ready = poll(&entry, 1, static_cast<int>(left));
    if (ready > 0) {
      return;
    }
    if (ready < 0 && (errno != EINTR || g_serve_stop != 0)) {
      throw CompileError("serve: socket wait failed");
    }
  }
}

// Loops a read over EINTR and short reads, each read waiting only for the
// time left before `deadline`. False on orderly EOF before any byte; throws
// on EOF mid-datum (a truncated frame is a protocol error). A stop signal
// ends the retries: the read fails.
bool ReadExact(int fd, char* data, size_t length, bool eof_ok_at_start,
               Clock::time_point deadline) {
  size_t done = 0;
  while (done < length) {
    AwaitReady(fd, POLLIN, deadline);
    const ssize_t got = read(fd, data + done, length - done);
    if (got < 0) {
      if (errno == EINTR && g_serve_stop == 0) {
        continue;
      }
      throw CompileError("serve: socket read failed");
    }
    if (got == 0) {
      if (done == 0 && eof_ok_at_start) {
        return false;
      }
      throw CompileError("serve: truncated frame");
    }
    done += static_cast<size_t>(got);
  }
  return true;
}

// MSG_NOSIGNAL: a peer that hung up must surface as EPIPE (a failed write
// the caller handles), not as a SIGPIPE that kills the whole process. Under
// a deadline the sends do not block, so a client that stops reading fails
// the write once the deadline passes.
void WriteAll(int fd, const char* data, size_t length, Clock::time_point deadline) {
  const int flags = MSG_NOSIGNAL | (deadline == kNoDeadline ? 0 : MSG_DONTWAIT);
  size_t done = 0;
  while (done < length) {
    AwaitReady(fd, POLLOUT, deadline);
    const ssize_t sent = send(fd, data + done, length - done, flags);
    if (sent < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      throw CompileError("serve: socket write failed");
    }
    done += static_cast<size_t>(sent);
  }
}

// One frame: u32 big-endian payload length, then the payload bytes, all
// of them before `deadline`.
bool ReadFrame(int fd, std::string* payload, Clock::time_point deadline = kNoDeadline) {
  unsigned char header[4];
  if (!ReadExact(fd, reinterpret_cast<char*>(header), sizeof(header),
                 /*eof_ok_at_start=*/true, deadline)) {
    return false;
  }
  const uint32_t length = (static_cast<uint32_t>(header[0]) << 24) |
                          (static_cast<uint32_t>(header[1]) << 16) |
                          (static_cast<uint32_t>(header[2]) << 8) |
                          static_cast<uint32_t>(header[3]);
  if (length > kMaxFramePayload) {
    throw CompileError("serve: frame of " + std::to_string(length) + " bytes exceeds the " +
                       std::to_string(kMaxFramePayload) + "-byte limit");
  }
  payload->assign(length, '\0');
  if (length > 0) {
    ReadExact(fd, payload->data(), length, /*eof_ok_at_start=*/false, deadline);
  }
  return true;
}

void WriteFrame(int fd, const std::string& payload, Clock::time_point deadline = kNoDeadline) {
  if (payload.size() > kMaxFramePayload) {
    throw CompileError("serve: response exceeds the frame limit");
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(length >> 24), static_cast<unsigned char>(length >> 16),
      static_cast<unsigned char>(length >> 8), static_cast<unsigned char>(length)};
  WriteAll(fd, reinterpret_cast<const char*>(header), sizeof(header), deadline);
  WriteAll(fd, payload.data(), payload.size(), deadline);
}

std::string ErrorJson(const std::string& message) {
  return "{\"version\":" + std::to_string(kServeProtocolVersion) +
         ",\"status\":\"error\",\"error\":" + JsonQuoted(message) + "}";
}

// Request-latency histogram bounds (micros): 100us .. 3s, then overflow.
const std::vector<uint64_t> kRequestLatencyBounds = {
    100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000, 3000000};

void HandleStopSignal(int) { g_serve_stop = 1; }

// Installs the stop handlers for the lifetime of Run() and restores the
// previous dispositions (and a clear flag) afterwards. No SA_RESTART: a
// pending stop must make accept() and read() return EINTR so the loop
// condition re-checks the flag.
class ScopedStopSignals {
 public:
  explicit ScopedStopSignals(bool install) : installed_(install) {
    if (!installed_) {
      return;
    }
    g_serve_stop = 0;
    struct sigaction action = {};
    action.sa_handler = HandleStopSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(SIGTERM, &action, &old_term_);
    sigaction(SIGINT, &action, &old_int_);
  }
  ~ScopedStopSignals() {
    if (!installed_) {
      return;
    }
    sigaction(SIGTERM, &old_term_, nullptr);
    sigaction(SIGINT, &old_int_, nullptr);
    g_serve_stop = 0;
  }
  ScopedStopSignals(const ScopedStopSignals&) = delete;
  ScopedStopSignals& operator=(const ScopedStopSignals&) = delete;

 private:
  bool installed_;
  struct sigaction old_term_ = {};
  struct sigaction old_int_ = {};
};

int ConnectUnixSocket(const std::string& socket_path) {
  sockaddr_un address = {};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(address.sun_path)) {
    throw CompileError("socket path '" + socket_path + "' is too long");
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw CompileError("cannot create a unix socket");
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0) {
    close(fd);
    throw CompileError("cannot connect to '" + socket_path + "'");
  }
  return fd;
}

}  // namespace

GauntletServer::GauntletServer(ServeOptions options, BugConfig bugs)
    : options_(std::move(options)), base_bugs_(std::move(bugs)) {
  // Out paths need sinks; wire in server-owned ones wherever the caller
  // injected none.
  if (options_.campaign.metrics == nullptr && !options_.metrics_out.empty()) {
    options_.campaign.metrics = &own_metrics_;
  }
  if (options_.campaign.trace == nullptr && !options_.trace_out.empty()) {
    options_.campaign.trace = &own_trace_;
  }
}

GauntletServer::~GauntletServer() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    unlink(options_.socket_path.c_str());
  }
}

void GauntletServer::Start() {
  if (listen_fd_ >= 0) {
    return;
  }
  sockaddr_un address = {};
  address.sun_family = AF_UNIX;
  if (options_.socket_path.empty()) {
    throw CompileError("serve needs a socket path");
  }
  if (options_.socket_path.size() >= sizeof(address.sun_path)) {
    throw CompileError("socket path '" + options_.socket_path + "' is too long");
  }
  std::memcpy(address.sun_path, options_.socket_path.c_str(), options_.socket_path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw CompileError("cannot create a unix socket");
  }
  // Replace a stale socket file (a crashed predecessor); a *live* server on
  // the same path loses its socket, which is the operator's call to make.
  unlink(options_.socket_path.c_str());
  if (bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) < 0 ||
      listen(fd, 8) < 0) {
    close(fd);
    throw CompileError("cannot listen on '" + options_.socket_path + "'");
  }
  listen_fd_ = fd;
}

std::string GauntletServer::HandleSubmission(const std::string& payload) {
  // Per-request verdict counters (timing scope: traffic is wall-clock by
  // nature). The caller installed the scoped sinks; with none configured
  // every CountMetric is a no-op.
  const auto fail = [](const std::string& message) {
    CountMetric("serve/verdict/error", MetricScope::kTiming);
    return ErrorJson(message);
  };
  std::istringstream lines(payload);
  std::string line;
  if (!std::getline(lines, line)) {
    return fail("empty request");
  }
  {
    std::istringstream header(line);
    std::string word;
    int version = 0;
    if (!(header >> word >> version) || word != "gauntlet-submit") {
      return fail("unknown request '" + line + "'");
    }
    if (version != kServeProtocolVersion) {
      return fail("unsupported protocol version " + std::to_string(version));
    }
  }

  BugConfig bugs = base_bugs_;
  std::vector<std::string> targets;
  while (std::getline(lines, line) && !line.empty()) {
    std::istringstream header(line);
    std::string key;
    std::string value;
    if (!(header >> key >> value)) {
      return fail("malformed header '" + line + "'");
    }
    if (key == "bug") {
      const auto bug = BugIdFromString(value);
      if (!bug.has_value()) {
        return fail("unknown bug '" + value + "'");
      }
      bugs.Enable(*bug);
    } else if (key == "target") {
      if (TargetRegistry::Find(value) == nullptr) {
        return fail("unknown target '" + value + "'");
      }
      targets.push_back(value);
    } else {
      return fail("unknown header '" + key + "'");
    }
  }
  std::ostringstream rest;
  rest << lines.rdbuf();
  const std::string program_text = rest.str();
  if (program_text.empty()) {
    return fail("empty program");
  }

  const int program_index = served_;
  CampaignReport submission;
  // The driver, not TestProgram, accounts for programs — same split as the
  // batch campaign, where each worker slot counts its own program.
  submission.programs_generated = 1;
  try {
    // Reject garbage before the detectors run: a submission that fails the
    // *clean* parser/typechecker is the submitter's bug, not the compiler's
    // (seeded typechecker faults still surface inside TestProgram, which
    // typechecks with the request's BugConfig).
    ProgramPtr program = Parser::ParseString(program_text);
    TypeCheck(*program);

    CampaignOptions per_request = options_.campaign;
    if (!targets.empty()) {
      per_request.targets = targets;
    }
    per_request.metrics = nullptr;  // instrumentation flows via the scoped
    per_request.trace = nullptr;    // sinks Run() installs per request
    per_request.progress = nullptr;
    const Campaign campaign(per_request);
    campaign.TestProgram(*program, bugs, program_index, submission,
                         options_.campaign.use_cache ? cache_.get() : nullptr);
    if (corpus_ != nullptr) {
      for (const Finding& finding : submission.findings) {
        if (!corpus_->HasKey(CorpusStore::KeyFor(finding))) {
          corpus_->Add(*program, finding);
        }
      }
    }
  } catch (const CompileError& error) {
    return fail(error.what());
  }

  CountMetric(submission.findings.empty() ? "serve/verdict/clean" : "serve/verdict/findings",
              MetricScope::kTiming);

  std::ostringstream json;
  json << "{\"version\":" << kServeProtocolVersion
       << ",\"status\":\"ok\",\"program_index\":" << program_index
       << ",\"tests_generated\":" << submission.tests_generated << ",\"findings\":[";
  bool first = true;
  for (const Finding& finding : submission.findings) {
    if (!first) {
      json << ',';
    }
    first = false;
    json << "{\"method\":" << JsonQuoted(DetectionMethodToString(finding.method))
         << ",\"kind\":\"" << (finding.kind == BugKind::kCrash ? "crash" : "semantic")
         << "\",\"component\":" << JsonQuoted(finding.component) << ",\"attributed\":";
    if (finding.attributed.has_value()) {
      json << JsonQuoted(BugIdToString(*finding.attributed));
    } else {
      json << "null";
    }
    json << '}';
  }
  json << "]}";

  ++served_;
  report_.Merge(std::move(submission));
  return json.str();
}

Snapshot GauntletServer::FlushAndSnapshot(bool final_flush) {
  Snapshot snapshot;
  snapshot.role = "serve";
  snapshot.phase = phase_.load(std::memory_order_relaxed);
  snapshot.pid = static_cast<int64_t>(getpid());
  snapshot.started_unix_ms = started_unix_ms_;
  snapshot.updated_unix_ms = UnixNowMillis();

  const bool have_metrics = options_.campaign.metrics != nullptr && !options_.metrics_out.empty();
  MetricsRegistry metrics;
  std::string trace_json;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (have_metrics) {
      metrics = *options_.campaign.metrics;
      if (!folded_) {
        // Fold the campaign domains on the *copy*: the in-place fold
        // happens exactly once, after the accept loop — flushing
        // mid-session must not double-count into the shared sink.
        const CacheStats stats = cache_ != nullptr ? cache_->Stats() : CacheStats{};
        report_.FoldInto(&metrics, cache_ != nullptr ? &stats : nullptr, base_bugs_);
      }
    }
    snapshot.requests_served = static_cast<uint64_t>(served_);
    snapshot.programs_done = static_cast<uint64_t>(served_);
    snapshot.tests_generated = static_cast<uint64_t>(report_.tests_generated);
    snapshot.findings = report_.findings.size();
    if (!options_.trace_out.empty() && options_.campaign.trace != nullptr) {
      // Span buffers are appended under state_mutex_ (the accept loop holds
      // it across each request), so reading them here is race-free.
      trace_json = TraceJson(options_.campaign.trace->SortedEvents());
    }
  }

  const auto write = [final_flush](const std::string& path, const std::string& content) {
    if (path.empty()) {
      return;
    }
    if (!WriteFileAtomic(path, content) && final_flush) {
      throw CompileError("serve: cannot write '" + path + "'");
    }
  };
  if (have_metrics) {
    RecordProcessSelfStats(metrics);
    write(options_.metrics_out, MetricsJson(metrics));
  }
  write(options_.trace_out, trace_json);
  return snapshot;
}

int GauntletServer::Run() {
  Start();
  if (cache_ == nullptr && options_.campaign.use_cache) {
    cache_ = std::make_unique<ValidationCache>();
  }
  if (corpus_ == nullptr && !options_.corpus_dir.empty()) {
    corpus_ = std::make_unique<CorpusStore>(options_.corpus_dir);
  }
  if (trace_buffer_ == nullptr && options_.campaign.trace != nullptr) {
    trace_buffer_ = options_.campaign.trace->NewBuffer(0);
  }
  started_unix_ms_ = UnixNowMillis();
  phase_.store("serving", std::memory_order_relaxed);
  if (emitter_ == nullptr && !options_.status_dir.empty()) {
    emitter_ = std::make_unique<StatusEmitter>(
        options_.status_dir, options_.snapshot_interval_ms,
        [this]() { return FlushAndSnapshot(/*final_flush=*/false); });
  }
  ScopedStopSignals stop_signals(options_.install_signal_handlers);

  while (!shutdown_requested_ && g_serve_stop == 0 &&
         (options_.max_requests == 0 || served_ < options_.max_requests)) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;  // re-checks g_serve_stop: a stop signal drains the loop
      }
      throw CompileError("serve: accept failed on '" + options_.socket_path + "'");
    }
    // The whole request frame must arrive within the deadline of the
    // accept, however the client paces its bytes.
    const auto request_deadline =
        Clock::now() + std::chrono::seconds(kServeConnectionDeadlineSeconds);
    std::string payload;
    std::string response;
    bool framed = false;
    try {
      framed = ReadFrame(fd, &payload, request_deadline);
    } catch (const CompileError&) {
      close(fd);  // bad framing: drop the connection, keep serving
      continue;
    }
    if (!framed) {
      close(fd);
      continue;
    }
    if (payload.rfind("gauntlet-shutdown", 0) == 0) {
      shutdown_requested_ = true;
      response = "{\"version\":" + std::to_string(kServeProtocolVersion) +
                 ",\"status\":\"shutting-down\",\"served\":" + std::to_string(served_) + "}";
    } else {
      // The whole submission runs under the state mutex with the shared
      // sinks installed: the flush thread only ever sees request
      // boundaries. The span (declared after the sinks, so it folds its
      // time before they uninstall) feeds the request-latency histogram.
      std::lock_guard<std::mutex> lock(state_mutex_);
      ScopedMetricsSink metrics_sink(options_.campaign.metrics);
      ScopedTraceSink trace_sink(trace_buffer_);
      uint64_t latency_micros = 0;
      {
        TraceSpan span("request", "serve");
        try {
          response = HandleSubmission(payload);
        } catch (const std::exception& error) {
          // The catch-all boundary: a bug check (CompilerBugError), an
          // exhausted allocator or any other escape from the pipeline fails
          // this submission, never the server.
          CountMetric("serve/verdict/error", MetricScope::kTiming);
          response = ErrorJson(std::string("internal error: ") + error.what());
        }
        latency_micros = span.ElapsedMicros();
      }
      CountMetric("serve/requests", MetricScope::kTiming);
      ObserveMetric("serve/request_latency_micros", MetricScope::kTiming, kRequestLatencyBounds,
                    latency_micros);
    }
    try {
      WriteFrame(fd, response,
                 Clock::now() + std::chrono::seconds(kServeConnectionDeadlineSeconds));
    } catch (const CompileError&) {
      // The client hung up or stopped reading before the verdict: its loss,
      // not a server fault.
    }
    close(fd);
  }
  if (g_serve_stop != 0) {
    std::fputs("serve: stop signal received; flushing sinks\n", stderr);
  }

  // The single fold a batch campaign performs, applied to everything this
  // serving session absorbed — so --metrics-out from `serve` carries the
  // same campaign/... counters and coverage domains a batch run writes.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!folded_) {
      folded_ = true;
      const CacheStats stats = cache_ != nullptr ? cache_->Stats() : CacheStats{};
      report_.FoldInto(options_.campaign.metrics, cache_ != nullptr ? &stats : nullptr,
                       base_bugs_);
    }
  }
  phase_.store("done", std::memory_order_relaxed);
  if (emitter_ != nullptr) {
    emitter_->Stop();  // final snapshot: phase "done", folded sinks
    emitter_.reset();
  }
  if (!options_.metrics_out.empty() || !options_.trace_out.empty()) {
    FlushAndSnapshot(/*final_flush=*/true);
  }
  return served_;
}

std::string BuildSubmitPayload(const std::string& program_text,
                               const std::vector<std::string>& bug_names,
                               const std::vector<std::string>& target_names) {
  std::string payload = "gauntlet-submit " + std::to_string(kServeProtocolVersion) + "\n";
  for (const std::string& bug : bug_names) {
    payload += "bug " + bug + "\n";
  }
  for (const std::string& target : target_names) {
    payload += "target " + target + "\n";
  }
  payload += "\n";
  payload += program_text;
  return payload;
}

std::string BuildShutdownPayload() {
  return "gauntlet-shutdown " + std::to_string(kServeProtocolVersion) + "\n";
}

std::string SendServeRequest(const std::string& socket_path, const std::string& payload) {
  const int fd = ConnectUnixSocket(socket_path);
  std::string response;
  try {
    WriteFrame(fd, payload);
    if (!ReadFrame(fd, &response)) {
      throw CompileError("server closed the connection without a response");
    }
  } catch (...) {
    close(fd);
    throw;
  }
  close(fd);
  return response;
}

}  // namespace gauntlet
