// The src/dist/ subsystem: serve mode's round trip, its verdict cache,
// request bounds, telemetry flushing, and its survival of misbehaving
// clients (early hang-ups, silent connections) and stop signals.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/dist/serve.h"
#include "src/obs/coverage.h"
#include "src/obs/run_report.h"
#include "src/obs/snapshot.h"
#include "src/runtime/corpus.h"
#include "src/target/target.h"

namespace gauntlet {
namespace {

namespace fs = std::filesystem;

// --- shared fixtures -------------------------------------------------------

void RemoveWallClockBudgets(CampaignOptions& options) {
  options.testgen.query_time_limit_ms = 0;
  options.tv.query_time_limit_ms = 0;
  options.tv.program_budget_ms = 0;
}

CampaignOptions SmallCampaign(int num_programs) {
  CampaignOptions options;
  options.seed = 42;
  options.num_programs = num_programs;
  // The built-in back ends, named: a test-only target registered below
  // must only ever run where a request selects it.
  options.targets = {"bmv2", "tofino", "ebpf"};
  options.testgen.max_tests = 6;
  options.testgen.max_decisions = 5;
  RemoveWallClockBudgets(options);
  return options;
}

// A raw client connection, for clients that break the request protocol.
// -1 on failure.
int ConnectRawClient(const std::string& socket_path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un address = {};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(), sizeof(address.sun_path) - 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// A client-side frame header announcing a `length`-byte payload.
std::string FrameHeader(uint32_t length) {
  return {static_cast<char>(length >> 24), static_cast<char>(length >> 16),
          static_cast<char>(length >> 8), static_cast<char>(length)};
}

// A back end whose compiler fails with neither CompileError nor
// CompilerBugError: an escape the campaign does not classify, as a bug in
// the tool itself would be.
class ThrowingTarget : public Target {
 public:
  const char* name() const override { return "throwing-test-target"; }
  const char* component() const override { return "ThrowingBackEnd"; }
  BugLocation location() const override { return BugLocation::kBackEndEbpf; }
  std::unique_ptr<Executable> CompileLowered(std::shared_ptr<const Program>,
                                             const BugConfig&) const override {
    throw std::runtime_error("test-only back end failed");
  }
};

void RegisterThrowingTarget() {
  if (TargetRegistry::Find("throwing-test-target") == nullptr) {
    TargetRegistry::Register(std::make_unique<ThrowingTarget>());
  }
}

class DistScratch : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    root_ = (fs::temp_directory_path() / ("gauntlet_dist_" + name)).string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }
  std::string Path(const std::string& leaf) const { return root_ + "/" + leaf; }
  std::string root_;
};

// --- serve mode ------------------------------------------------------------

constexpr const char* kCleanProgram = R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) { apply { hdr.h.a = hdr.h.a + 8w1; } }
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

// Deterministically trips predication-lost-else through the pass pipeline
// (the detection-matrix witness program).
constexpr const char* kPredicationProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) {
  action flip() {
    if (hdr.h.a == 8w0) { hdr.h.b = 8w1; } else { hdr.h.b = 8w2; }
  }
  table t {
    key = { hdr.h.a : exact; }
    actions = { flip; NoAction; }
    default_action = flip();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

TEST_F(DistScratch, ServeRoundTripsSubmissionsAndFoldsSinks) {
  MetricsRegistry metrics;
  ServeOptions options;
  options.socket_path = Path("sock");
  options.corpus_dir = Path("corpus");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  options.campaign.metrics = &metrics;

  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });

  const std::string socket = server.socket_path();

  // A clean program round-trips with no findings.
  const std::string clean =
      SendServeRequest(socket, BuildSubmitPayload(kCleanProgram, {}, {}));
  EXPECT_NE(clean.find("\"status\":\"ok\""), std::string::npos) << clean;
  EXPECT_NE(clean.find("\"findings\":[]"), std::string::npos) << clean;

  // A fault-seeded submission (per-request `bug` header) reports the bug.
  const std::string buggy = SendServeRequest(
      socket, BuildSubmitPayload(kPredicationProgram, {"predication-lost-else"}, {}));
  EXPECT_NE(buggy.find("\"status\":\"ok\""), std::string::npos) << buggy;
  EXPECT_EQ(buggy.find("\"findings\":[]"), std::string::npos) << buggy;
  EXPECT_NE(buggy.find("predication-lost-else"), std::string::npos) << buggy;

  // Garbage is an error *response*, not a dropped connection or a crash.
  const std::string garbage =
      SendServeRequest(socket, BuildSubmitPayload("not a p4 program", {}, {}));
  EXPECT_NE(garbage.find("\"status\":\"error\""), std::string::npos) << garbage;

  // An unknown bug name in the header is rejected the same way.
  const std::string bad_bug =
      SendServeRequest(socket, BuildSubmitPayload(kCleanProgram, {"no-such-bug"}, {}));
  EXPECT_NE(bad_bug.find("\"status\":\"error\""), std::string::npos) << bad_bug;

  const std::string bye = SendServeRequest(socket, BuildShutdownPayload());
  EXPECT_NE(bye.find("\"status\":\"shutting-down\""), std::string::npos) << bye;
  loop.join();

  // Only successful submissions count; the traffic stream folded into the
  // shared sinks exactly once.
  EXPECT_EQ(server.served(), 2);
  EXPECT_EQ(server.report().programs_generated, 2);
  EXPECT_FALSE(server.report().findings.empty());
  EXPECT_GT(CountCorpus(Path("corpus")), 0);
  EXPECT_NE(MetricsJson(metrics).find("campaign/findings"), std::string::npos);
  // Coverage points flow into the same sink: the construct census per
  // request, the fault-trigger domain from the fold.
  EXPECT_EQ(metrics.Value(CoverageKey("gen-construct", "program")), 2u);
  EXPECT_EQ(metrics.Value(CoverageKey("fault-trigger", "predication-lost-else/detected")), 1u);
}

TEST_F(DistScratch, ServeMaxRequestsBoundsTheLoop) {
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  options.max_requests = 1;
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });
  const std::string response =
      SendServeRequest(server.socket_path(), BuildSubmitPayload(kCleanProgram, {}, {}));
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
  loop.join();
  EXPECT_EQ(server.served(), 1);
}

// A submission that fails inside the pipeline with an exception the
// campaign does not classify gets an error answer, and the server keeps
// serving: the next submission is answered as usual.
TEST_F(DistScratch, ServeAnswersAnUnclassifiedFailureWithAnErrorAndKeepsServing) {
  RegisterThrowingTarget();
  MetricsRegistry metrics;
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  options.campaign.metrics = &metrics;
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });

  const std::string failed = SendServeRequest(
      server.socket_path(), BuildSubmitPayload(kCleanProgram, {}, {"throwing-test-target"}));
  EXPECT_NE(failed.find("\"status\":\"error\""), std::string::npos) << failed;
  EXPECT_NE(failed.find("test-only back end failed"), std::string::npos) << failed;
  const std::string next =
      SendServeRequest(server.socket_path(), BuildSubmitPayload(kCleanProgram, {}, {}));
  EXPECT_NE(next.find("\"status\":\"ok\""), std::string::npos) << next;
  EXPECT_NE(next.find("\"program_index\":0,"), std::string::npos) << next;
  SendServeRequest(server.socket_path(), BuildShutdownPayload());
  loop.join();
  EXPECT_EQ(server.served(), 1);
  EXPECT_EQ(metrics.Value("serve/verdict/error"), 1u);
}

// A serve session owns one validation cache for its lifetime: submitting
// the same program twice answers the second time from the verdicts the
// first one archived under the program's content hash, with the identical
// verdict.
TEST_F(DistScratch, ServeResubmissionAnswersFromTheVerdictCache) {
  MetricsRegistry metrics;
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  options.campaign.metrics = &metrics;
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });

  const std::string payload =
      BuildSubmitPayload(kPredicationProgram, {"predication-lost-else"}, {});
  const std::string first = SendServeRequest(server.socket_path(), payload);
  const std::string second = SendServeRequest(server.socket_path(), payload);
  SendServeRequest(server.socket_path(), BuildShutdownPayload());
  loop.join();

  // The two answers differ only in the submission index.
  const std::string first_index = "\"program_index\":0,";
  const std::string second_index = "\"program_index\":1,";
  const size_t at = second.find(second_index);
  ASSERT_NE(at, std::string::npos) << second;
  EXPECT_EQ(second.substr(0, at) + first_index + second.substr(at + second_index.size()), first);
  EXPECT_NE(first.find("predication-lost-else"), std::string::npos) << first;
  EXPECT_GT(metrics.Value("cache/verdict_hits"), 0u);
}

// A client that hangs up before its verdict costs the server nothing: the
// failed send surfaces as EPIPE, not as a SIGPIPE that kills the process.
TEST_F(DistScratch, ServeSurvivesAClientThatHangsUpEarly) {
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });

  // One submission frame on a raw socket, closed without reading the reply.
  const std::string payload = BuildSubmitPayload(kCleanProgram, {}, {});
  const int fd = ConnectRawClient(server.socket_path());
  ASSERT_GE(fd, 0);
  const std::string header = FrameHeader(static_cast<uint32_t>(payload.size()));
  ASSERT_EQ(write(fd, header.data(), header.size()), static_cast<ssize_t>(header.size()));
  ASSERT_EQ(write(fd, payload.data(), payload.size()), static_cast<ssize_t>(payload.size()));
  close(fd);

  const std::string response = SendServeRequest(server.socket_path(), payload);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  SendServeRequest(server.socket_path(), BuildShutdownPayload());
  loop.join();
  EXPECT_EQ(server.served(), 2);
}

// A serving session with telemetry out paths and a hot snapshot interval
// rewrites its files *during* the session — a killed server keeps its
// telemetry up to the last flush — and leaves finished, loadable artifacts
// plus a "done" snapshot after a clean shutdown.
TEST_F(DistScratch, ServeFlushesTelemetryMidSessionAndOnExit) {
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  options.metrics_out = Path("metrics.json");
  options.trace_out = Path("trace.json");
  options.status_dir = Path("status");
  options.snapshot_interval_ms = 20;

  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });

  const std::string buggy = SendServeRequest(
      server.socket_path(),
      BuildSubmitPayload(kPredicationProgram, {"predication-lost-else"}, {}));
  EXPECT_NE(buggy.find("\"status\":\"ok\""), std::string::npos) << buggy;

  // The periodic flush lands the submission in metrics.json while the
  // session is still live (no shutdown yet). Bounded poll, hot interval.
  bool flushed = false;
  for (int i = 0; i < 250 && !flushed; ++i) {
    std::ifstream in(Path("metrics.json"), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    flushed = body.str().find("serve/requests") != std::string::npos &&
              body.str().find("serve/verdict/findings") != std::string::npos;
    if (!flushed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(flushed) << "mid-session flush never landed in metrics.json";

  SendServeRequest(server.socket_path(), BuildShutdownPayload());
  loop.join();

  // Final artifacts: request accounting in the timing section, coverage
  // points in the same file, the trace present and non-trivial, snapshot
  // finished.
  std::ifstream in(Path("metrics.json"), std::ios::binary);
  std::ostringstream metrics;
  metrics << in.rdbuf();
  EXPECT_NE(metrics.str().find("serve/requests"), std::string::npos);
  EXPECT_NE(metrics.str().find("serve/request_latency_micros"), std::string::npos);
  EXPECT_NE(metrics.str().find("campaign/findings"), std::string::npos);
  EXPECT_NE(metrics.str().find("coverage/fault-trigger/"), std::string::npos);
  std::ifstream trace_in(Path("trace.json"), std::ios::binary);
  std::ostringstream trace;
  trace << trace_in.rdbuf();
  EXPECT_NE(trace.str().find("traceEvents"), std::string::npos);
  EXPECT_NE(trace.str().find("request"), std::string::npos);

  Snapshot snapshot;
  std::string error;
  std::ifstream snap_in(SnapshotPathIn(Path("status")), std::ios::binary);
  std::ostringstream snap;
  snap << snap_in.rdbuf();
  ASSERT_TRUE(ParseSnapshotJson(snap.str(), &snapshot, &error)) << error;
  EXPECT_EQ(snapshot.role, "serve");
  EXPECT_EQ(snapshot.phase, "done");
  EXPECT_EQ(snapshot.requests_served, 1u);
}

// A client that connects and sends nothing holds the one-connection-at-a-
// time accept loop only until its connection deadline: a submission queued
// behind it is answered within kServeConnectionDeadlineSeconds plus a
// margin, not whenever the silent client hangs up.
TEST_F(DistScratch, SilentClientIsDroppedAtTheConnectionDeadline) {
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });

  const int idle = ConnectRawClient(server.socket_path());
  ASSERT_GE(idle, 0);
  std::atomic<bool> answered{false};
  std::string response;
  std::thread submitter([&server, &answered, &response] {
    try {
      response = SendServeRequest(server.socket_path(), BuildSubmitPayload(kCleanProgram, {}, {}));
    } catch (const CompileError& error) {
      response = error.what();
    }
    answered = true;
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(kServeConnectionDeadlineSeconds + 2);
  while (!answered && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(answered) << "submission still waiting behind a silent client "
                        << kServeConnectionDeadlineSeconds + 2 << " s later";
  close(idle);  // a server without the deadline sees EOF here, so join cannot hang
  submitter.join();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  SendServeRequest(server.socket_path(), BuildShutdownPayload());
  loop.join();
  EXPECT_EQ(server.served(), 1);
}

// The deadline bounds the whole request, not each read: a client that
// announces a 100-byte frame and then sends one byte a second never lets a
// single read wait long, yet holds the accept loop only until the deadline.
TEST_F(DistScratch, TricklingClientIsDroppedAtTheRequestDeadline) {
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });

  const int trickler = ConnectRawClient(server.socket_path());
  ASSERT_GE(trickler, 0);
  const std::string header = FrameHeader(100);
  ASSERT_EQ(write(trickler, header.data(), header.size()), static_cast<ssize_t>(header.size()));
  std::atomic<bool> stop_trickling{false};
  std::thread trickle([trickler, &stop_trickling] {
    // At most ten bytes: a server without a request deadline keeps reading
    // them, so the test fails instead of hanging.
    for (int i = 0; i < 10 && !stop_trickling; ++i) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      if (send(trickler, "x", 1, MSG_NOSIGNAL) != 1) {
        break;  // dropped by the server
      }
    }
  });

  const auto start = std::chrono::steady_clock::now();
  std::string response;
  try {
    response = SendServeRequest(server.socket_path(), BuildSubmitPayload(kCleanProgram, {}, {}));
  } catch (const CompileError& error) {
    response = error.what();
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(kServeConnectionDeadlineSeconds + 2))
      << "submission answered only after "
      << std::chrono::duration_cast<std::chrono::milliseconds>(waited).count()
      << " ms behind a trickling client";
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  stop_trickling = true;
  trickle.join();
  close(trickler);
  SendServeRequest(server.socket_path(), BuildShutdownPayload());
  loop.join();
  EXPECT_EQ(server.served(), 1);
}

// A stop signal drains the server even while a connected client sends
// nothing: the read blocked on that client gives up instead of retrying, the
// connection is dropped, and Run() returns.
TEST_F(DistScratch, StopSignalDropsAnIdleConnection) {
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  options.install_signal_handlers = true;
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  const int idle = ConnectRawClient(server.socket_path());
  ASSERT_GE(idle, 0);

  struct sigaction before = {};
  sigaction(SIGTERM, nullptr, &before);
  std::atomic<bool> returned{false};
  std::thread runner([&server, &returned] {
    server.Run();
    returned = true;
  });
  // A SIGTERM that lands before Run() installs its handler would take the
  // previous disposition, so wait for the handler, then give the server
  // time to accept the idle client and block reading from it.
  for (int i = 0; i < 500; ++i) {
    struct sigaction now = {};
    sigaction(SIGTERM, nullptr, &now);
    if (now.sa_handler != before.sa_handler) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(pthread_kill(runner.native_handle(), SIGTERM), 0);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!returned && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(returned) << "Run() still blocked on the idle client 2 s after SIGTERM";
  close(idle);  // a server that missed the signal sees EOF here, so join cannot hang
  runner.join();
  EXPECT_EQ(server.served(), 0);
}

}  // namespace
}  // namespace gauntlet
