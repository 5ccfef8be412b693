// The src/dist/ subsystem: index-space partitioning, shard-result
// round-tripping, the coordinator's shard-merge identity contract (any
// shard topology x --jobs x cache on/off -> byte-identical deterministic
// output), and the serve-mode round trip.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "src/dist/coordinator.h"
#include "src/dist/serve.h"
#include "src/dist/shard.h"
#include "src/frontend/parser.h"
#include "src/obs/coverage.h"
#include "src/obs/health.h"
#include "src/obs/run_report.h"
#include "src/obs/snapshot.h"
#include "src/runtime/corpus.h"
#include "src/runtime/parallel_campaign.h"

namespace gauntlet {
namespace {

namespace fs = std::filesystem;

// --- partitioning ----------------------------------------------------------

TEST(PartitionTest, CoversSpaceContiguouslyWithBalancedSizes) {
  const std::vector<ShardRange> ranges = PartitionIndexSpace(17, 4);
  ASSERT_EQ(ranges.size(), 4u);
  int expected_begin = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].index, static_cast<int>(i));
    EXPECT_EQ(ranges[i].begin, expected_begin);
    expected_begin = ranges[i].end;
  }
  EXPECT_EQ(ranges.back().end, 17);
  // Sizes differ by at most one, earlier shards take the extra program.
  EXPECT_EQ(ranges[0].size(), 5);
  EXPECT_EQ(ranges[1].size(), 4);
  EXPECT_EQ(ranges[2].size(), 4);
  EXPECT_EQ(ranges[3].size(), 4);
}

TEST(PartitionTest, SurplusShardsComeBackEmpty) {
  const std::vector<ShardRange> ranges = PartitionIndexSpace(2, 5);
  ASSERT_EQ(ranges.size(), 5u);
  EXPECT_EQ(ranges[0].size(), 1);
  EXPECT_EQ(ranges[1].size(), 1);
  for (size_t i = 2; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].size(), 0);
    EXPECT_EQ(ranges[i].begin, ranges[i].end);
  }
  for (const ShardRange& range : PartitionIndexSpace(0, 3)) {
    EXPECT_EQ(range.size(), 0);
  }
}

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
  options.testgen.max_tests = 6;
  options.testgen.max_decisions = 5;
  RemoveWallClockBudgets(options);
  return options;
}

BugConfig TwoFaults() {
  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  return bugs;
}

// Equality over every deterministic report field. wall_micros inside the
// latency records and run_start_micros are wall-clock and excluded; the
// repro packets are compared only when both sides carry them (shard-result
// files drop repro_test by design — corpus triples are written shard-side).
void ExpectIdenticalReports(const CampaignReport& a, const CampaignReport& b) {
  EXPECT_EQ(a.programs_generated, b.programs_generated);
  EXPECT_EQ(a.programs_with_crash, b.programs_with_crash);
  EXPECT_EQ(a.programs_with_semantic, b.programs_with_semantic);
  EXPECT_EQ(a.tests_generated, b.tests_generated);
  EXPECT_EQ(a.undef_divergences, b.undef_divergences);
  EXPECT_EQ(a.structural_mismatches, b.structural_mismatches);
  EXPECT_EQ(a.distinct_bugs, b.distinct_bugs);
  EXPECT_EQ(a.unattributed_components, b.unattributed_components);
  ASSERT_EQ(a.latency.size(), b.latency.size());
  for (const auto& [bug, lat] : a.latency) {
    const auto it = b.latency.find(bug);
    ASSERT_NE(it, b.latency.end());
    EXPECT_EQ(lat.first_program_index, it->second.first_program_index);
    EXPECT_EQ(lat.tests_at_detection, it->second.tests_at_detection);
    EXPECT_EQ(lat.findings, it->second.findings);
  }
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size(); ++i) {
    const Finding& fa = a.findings[i];
    const Finding& fb = b.findings[i];
    EXPECT_EQ(fa.program_index, fb.program_index);
    EXPECT_EQ(fa.method, fb.method);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.component, fb.component);
    EXPECT_EQ(fa.attributed, fb.attributed);
    EXPECT_EQ(fa.detail, fb.detail);
  }
}

// Every file under `dir`, keyed by relative path — the whole corpus
// directory (triples, finding metadata, manifest) must match byte-for-byte.
std::map<std::string, std::string> DirSnapshot(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    files[fs::relative(entry.path(), dir).string()] = body.str();
  }
  return files;
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

// --- shard-result serialization --------------------------------------------

TEST_F(DistScratch, ShardResultRoundTripsThroughFile) {
  ShardWorkerOptions options;
  options.campaign = SmallCampaign(12);
  options.range = {/*index=*/1, /*begin=*/4, /*end=*/12};
  options.jobs = 2;
  const ShardResult original = RunShardWorker(options, TwoFaults());
  EXPECT_EQ(original.report.programs_generated, 8);

  const std::string path = Path("shard.result");
  SaveShardResultFile(path, original);
  const ShardResult loaded = LoadShardResultFile(path);

  EXPECT_EQ(loaded.range.begin, original.range.begin);
  EXPECT_EQ(loaded.range.end, original.range.end);
  ExpectIdenticalReports(original.report, loaded.report);
  // The raw per-shard telemetry survives byte-identically (both sections:
  // the serialization carries timing metrics too, the coordinator decides
  // what to surface).
  EXPECT_EQ(MetricsJson(loaded.metrics), MetricsJson(original.metrics));
  EXPECT_EQ(CoverageJson(loaded.coverage), CoverageJson(original.coverage));
  EXPECT_EQ(loaded.cache_stats.blast_hits, original.cache_stats.blast_hits);
  EXPECT_EQ(loaded.cache_stats.verdict_hits, original.cache_stats.verdict_hits);
}

TEST_F(DistScratch, ShardResultLoadFailsLoudly) {
  EXPECT_THROW(LoadShardResultFile(Path("never-written.result")), CompileError);
  {
    std::ofstream out(Path("bad.result"));
    out << "not-a-shard-result 1\n";
  }
  EXPECT_THROW(LoadShardResultFile(Path("bad.result")), CompileError);
  {
    std::ofstream out(Path("truncated.result"));
    out << "gauntletshard 1\nrange 0 0 4\n";
  }
  EXPECT_THROW(LoadShardResultFile(Path("truncated.result")), CompileError);
}

// --- the shard-merge identity contract -------------------------------------

// Runs the same campaign single-process and as a 1/4-shard fleet (in-process
// workers, results round-tripped through files) across jobs 1 and 4, and
// asserts the merged deterministic output is byte-identical everywhere the
// CI gate looks: report, metrics.json deterministic section, coverage.json
// deterministic section, and the corpus directory.
TEST_F(DistScratch, ShardMergeReproducesSingleProcessRun) {
  const BugConfig bugs = TwoFaults();
  const int num_programs = 20;

  MetricsRegistry single_metrics;
  CoverageMap single_coverage;
  ParallelCampaignOptions single;
  single.campaign = SmallCampaign(num_programs);
  single.campaign.metrics = &single_metrics;
  single.campaign.coverage = &single_coverage;
  single.corpus_dir = Path("corpus-single");
  single.jobs = 1;
  const CampaignReport reference = ParallelCampaign(single).Run(bugs);
  ASSERT_FALSE(reference.findings.empty())
      << "campaign tripped nothing; the identity check would be vacuous";
  const std::string reference_metrics = DeterministicSection(MetricsJson(single_metrics));
  const std::string reference_coverage =
      DeterministicSection(CoverageJson(single_coverage));
  const auto reference_corpus = DirSnapshot(single.corpus_dir);
  ASSERT_FALSE(reference_corpus.empty());

  for (const int shards : {1, 4}) {
    for (const int jobs : {1, 4}) {
      MetricsRegistry metrics;
      CoverageMap coverage;
      ShardCoordinatorOptions options;
      options.campaign = SmallCampaign(num_programs);
      options.campaign.metrics = &metrics;
      options.campaign.coverage = &coverage;
      options.shards = shards;
      options.jobs = jobs;
      options.corpus_dir =
          Path("corpus-s" + std::to_string(shards) + "-j" + std::to_string(jobs));
      const CoordinatorOutcome outcome = RunShardCoordinator(options, bugs);

      SCOPED_TRACE("shards=" + std::to_string(shards) + " jobs=" + std::to_string(jobs));
      ASSERT_EQ(outcome.shard_ranges.size(), static_cast<size_t>(shards));
      ExpectIdenticalReports(reference, outcome.report);
      EXPECT_EQ(DeterministicSection(MetricsJson(metrics)), reference_metrics);
      EXPECT_EQ(DeterministicSection(CoverageJson(coverage)), reference_coverage);
      EXPECT_EQ(DirSnapshot(options.corpus_dir), reference_corpus);
    }
  }
}

// A coordinator with a status directory publishes its own snapshot, a
// heartbeat per shard, and a fleet view that reads back complete — while
// the merged deterministic output stays identical to a status-off run.
TEST_F(DistScratch, CoordinatorPublishesFleetStatusAndStaysIdentical) {
  const BugConfig bugs = TwoFaults();
  const int num_programs = 12;

  ShardCoordinatorOptions plain;
  plain.campaign = SmallCampaign(num_programs);
  plain.shards = 2;
  plain.jobs = 2;
  const CoordinatorOutcome reference = RunShardCoordinator(plain, bugs);

  ShardCoordinatorOptions observed = plain;
  observed.status_dir = Path("status");
  observed.snapshot_interval_ms = 10;
  const CoordinatorOutcome outcome = RunShardCoordinator(observed, bugs);
  ExpectIdenticalReports(reference.report, outcome.report);

  // The coordinator's own final snapshot carries the finished fleet totals.
  Snapshot snapshot;
  std::string error;
  std::ifstream in(SnapshotPathIn(observed.status_dir), std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  ASSERT_TRUE(ParseSnapshotJson(body.str(), &snapshot, &error)) << error;
  EXPECT_EQ(snapshot.role, "coordinator");
  EXPECT_EQ(snapshot.phase, "done");
  EXPECT_EQ(snapshot.programs_total, static_cast<uint64_t>(num_programs));
  EXPECT_EQ(snapshot.programs_done, static_cast<uint64_t>(num_programs));
  EXPECT_EQ(snapshot.findings, outcome.report.findings.size());

  // Each shard left its own finished heartbeat in its subdirectory, and the
  // collected fleet view agrees.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        fs::exists(HeartbeatPathIn(Path("status/shard-" + std::to_string(i)))));
  }
  const FleetStatus fleet =
      CollectFleetStatus(observed.status_dir, kDefaultStallThresholdMs);
  ASSERT_EQ(fleet.workers.size(), 3u);  // coordinator + 2 shards
  EXPECT_TRUE(fleet.healthy());
  EXPECT_TRUE(fleet.complete());
  EXPECT_EQ(fleet.programs_done, static_cast<uint64_t>(num_programs));
}

TEST_F(DistScratch, SubprocessModeRequiresWorkerBinary) {
  // No gauntlet binary at this path: the fork/exec path must fail loudly,
  // not merge partial results.
  ShardCoordinatorOptions options;
  options.campaign = SmallCampaign(4);
  options.shards = 2;
  options.worker_binary = Path("no-such-binary");
  options.scratch_dir = Path("scratch");
  EXPECT_THROW(RunShardCoordinator(options, TwoFaults()), CompileError);
}

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
  CoverageMap coverage;
  ServeOptions options;
  options.socket_path = Path("sock");
  options.corpus_dir = Path("corpus");
  options.campaign = SmallCampaign(/*num_programs=*/0);
  options.campaign.metrics = &metrics;
  options.campaign.coverage = &coverage;

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
  EXPECT_FALSE(coverage.domains().empty());
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
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address = {};
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, server.socket_path().c_str(), sizeof(address.sun_path) - 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  const uint32_t length = static_cast<uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(length >> 24), static_cast<unsigned char>(length >> 16),
      static_cast<unsigned char>(length >> 8), static_cast<unsigned char>(length)};
  ASSERT_EQ(write(fd, header, sizeof(header)), static_cast<ssize_t>(sizeof(header)));
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
  options.coverage_out = Path("coverage.json");
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

  // Final artifacts: request accounting in the timing section, coverage and
  // trace files present and non-trivial, snapshot finished.
  std::ifstream in(Path("metrics.json"), std::ios::binary);
  std::ostringstream metrics;
  metrics << in.rdbuf();
  EXPECT_NE(metrics.str().find("serve/requests"), std::string::npos);
  EXPECT_NE(metrics.str().find("serve/request_latency_micros"), std::string::npos);
  EXPECT_NE(metrics.str().find("campaign/findings"), std::string::npos);
  EXPECT_TRUE(fs::exists(Path("coverage.json")));
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

}  // namespace
}  // namespace gauntlet
