// The src/obs/snapshot.h + src/obs/health.h layer: snapshot/heartbeat JSON
// round trips, torn/garbage rejection, atomic file replacement (a polling
// reader never sees a half-written snapshot), the pure heartbeat health
// matrix, status collection over crafted directories, the background
// StatusEmitter, and the ParallelCampaign identity contract (deterministic
// output byte-identical with live status on or off).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/gauntlet/campaign.h"
#include "src/obs/health.h"
#include "src/obs/run_report.h"
#include "src/obs/snapshot.h"
#include "src/runtime/parallel_campaign.h"
#include "src/support/file_io.h"

namespace gauntlet {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

class StatusScratch : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    root_ = (fs::temp_directory_path() / ("gauntlet_status_" + name)).string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  std::string Path(const std::string& leaf) const {
    return (fs::path(root_) / leaf).string();
  }

  std::string root_;
};

Snapshot FilledSnapshot() {
  Snapshot snapshot;
  snapshot.role = "campaign";
  snapshot.phase = "testing";
  snapshot.pid = 4321;
  snapshot.started_unix_ms = 1000;
  snapshot.updated_unix_ms = 2500;
  snapshot.programs_total = 40;
  snapshot.programs_done = 17;
  snapshot.tests_generated = 96;
  snapshot.findings = 5;
  snapshot.distinct_bugs = 2;
  snapshot.requests_served = 0;
  return snapshot;
}

// --- JSON round trips ------------------------------------------------------

TEST(SnapshotJsonTest, RoundTripsFlatFields) {
  Snapshot original = FilledSnapshot();
  original.metrics_json = "{\n  \"version\": 2,\n  \"timing\": {}\n}\n";
  const std::string json = SnapshotJson(original);

  Snapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseSnapshotJson(json, &parsed, &error)) << error;
  EXPECT_EQ(parsed.role, "campaign");
  EXPECT_EQ(parsed.phase, "testing");
  EXPECT_EQ(parsed.pid, 4321);
  EXPECT_EQ(parsed.started_unix_ms, 1000u);
  EXPECT_EQ(parsed.updated_unix_ms, 2500u);
  EXPECT_EQ(parsed.programs_total, 40u);
  EXPECT_EQ(parsed.programs_done, 17u);
  EXPECT_EQ(parsed.tests_generated, 96u);
  EXPECT_EQ(parsed.findings, 5u);
  EXPECT_EQ(parsed.distinct_bugs, 2u);
  // The embedded metrics object is balanced JSON the parser skips
  // structurally; its presence must never break the flat fields around it.
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(SnapshotJsonTest, RejectsTornAndGarbageInput) {
  const std::string valid = SnapshotJson(FilledSnapshot());
  Snapshot parsed;
  std::string error;

  // Every strict prefix is a torn write; none may half-load.
  for (const size_t cut : {valid.size() / 4, valid.size() / 2, valid.size() - 2}) {
    error.clear();
    EXPECT_FALSE(ParseSnapshotJson(valid.substr(0, cut), &parsed, &error))
        << "prefix of length " << cut << " parsed";
    EXPECT_FALSE(error.empty());
  }
  EXPECT_FALSE(ParseSnapshotJson("", &parsed, &error));
  EXPECT_FALSE(ParseSnapshotJson("not json at all", &parsed, &error));
  EXPECT_FALSE(ParseSnapshotJson("{\"phase\": \"done\"}", &parsed, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
  EXPECT_FALSE(ParseSnapshotJson("{\"version\": 99}", &parsed, &error));
  // Trailing junk after the object is corruption, not an extension.
  EXPECT_FALSE(ParseSnapshotJson(valid + "{", &parsed, &error));
}

TEST(HeartbeatJsonTest, RoundTripsAndMatchesItsSnapshot) {
  const Snapshot snapshot = FilledSnapshot();
  const Heartbeat derived = HeartbeatFromSnapshot(snapshot);
  EXPECT_EQ(derived.role, snapshot.role);
  EXPECT_EQ(derived.phase, snapshot.phase);
  EXPECT_EQ(derived.pid, snapshot.pid);
  EXPECT_EQ(derived.programs_done, snapshot.programs_done);
  EXPECT_EQ(derived.updated_unix_ms, snapshot.updated_unix_ms);

  Heartbeat parsed;
  std::string error;
  ASSERT_TRUE(ParseHeartbeatJson(HeartbeatJson(derived), &parsed, &error)) << error;
  EXPECT_EQ(parsed.role, derived.role);
  EXPECT_EQ(parsed.phase, derived.phase);
  EXPECT_EQ(parsed.pid, derived.pid);
  EXPECT_EQ(parsed.programs_total, derived.programs_total);
  EXPECT_EQ(parsed.programs_done, derived.programs_done);
  EXPECT_EQ(parsed.tests_generated, derived.tests_generated);
  EXPECT_EQ(parsed.findings, derived.findings);
  EXPECT_EQ(parsed.started_unix_ms, derived.started_unix_ms);
  EXPECT_EQ(parsed.updated_unix_ms, derived.updated_unix_ms);
}

TEST(HeartbeatJsonTest, RejectsTornAndGarbageInput) {
  Heartbeat heartbeat;
  heartbeat.role = "campaign";
  heartbeat.phase = "testing";
  heartbeat.pid = 77;
  const std::string valid = HeartbeatJson(heartbeat);

  Heartbeat parsed;
  std::string error;
  EXPECT_FALSE(ParseHeartbeatJson(valid.substr(0, valid.size() / 2), &parsed, &error));
  EXPECT_FALSE(ParseHeartbeatJson("", &parsed, &error));
  EXPECT_FALSE(ParseHeartbeatJson("]", &parsed, &error));
  EXPECT_FALSE(ParseHeartbeatJson("{\"role\": \"x\"}", &parsed, &error));
  EXPECT_NE(error.find("version"), std::string::npos);
}

// --- atomic writes ---------------------------------------------------------

TEST_F(StatusScratch, WriteFileAtomicReplacesContentAndLeavesNoTempFiles) {
  const std::string path = Path("snapshot.json");
  ASSERT_TRUE(WriteFileAtomic(path, "first"));
  EXPECT_EQ(ReadFileOrEmpty(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second, longer than the first"));
  EXPECT_EQ(ReadFileOrEmpty(path), "second, longer than the first");

  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(root_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // no .tmp litter

  EXPECT_FALSE(WriteFileAtomic(Path("no/such/dir/file.json"), "x"));
}

// A writer rewriting the snapshot at full speed while a reader polls: the
// rename-based protocol means every read parses — the previous snapshot or
// the new one, never a torn hybrid — and the single writer's monotonically
// increasing counter never appears to go backwards.
TEST_F(StatusScratch, PollingReaderNeverSeesTornSnapshot) {
  const std::string path = Path("snapshot.json");
  constexpr uint64_t kWrites = 400;

  Snapshot first = FilledSnapshot();
  first.programs_done = 0;
  ASSERT_TRUE(WriteSnapshotFile(path, first));

  std::thread writer([&] {
    Snapshot snapshot = FilledSnapshot();
    for (uint64_t i = 1; i <= kWrites; ++i) {
      snapshot.programs_done = i;
      // Vary the payload size so a torn write would be detectable.
      snapshot.phase = std::string("testing-") + std::string(i % 17, 'x');
      WriteSnapshotFile(path, snapshot);
    }
  });

  uint64_t last_seen = 0;
  uint64_t reads = 0;
  while (last_seen < kWrites) {
    const std::string text = ReadFileOrEmpty(path);
    ASSERT_FALSE(text.empty());
    Snapshot parsed;
    std::string error;
    ASSERT_TRUE(ParseSnapshotJson(text, &parsed, &error))
        << "torn read after " << reads << " reads: " << error;
    ASSERT_GE(parsed.programs_done, last_seen) << "snapshot went backwards";
    last_seen = parsed.programs_done;
    ++reads;
  }
  writer.join();
  EXPECT_EQ(last_seen, kWrites);
}

// --- health evaluation (pure: injected clock + liveness) -------------------

TEST(EvaluateHeartbeatTest, CoversEveryVerdict) {
  Heartbeat heartbeat;
  heartbeat.role = "campaign";
  heartbeat.phase = "testing";
  heartbeat.pid = 1234;
  heartbeat.updated_unix_ms = 10000;

  // Fresh heartbeat, live process: healthy.
  HealthVerdict verdict = EvaluateHeartbeat(heartbeat, 10500, 5000, /*pid_alive=*/true);
  EXPECT_EQ(verdict.state, WorkerHealth::kHealthy);
  EXPECT_EQ(verdict.age_ms, 500u);
  EXPECT_FALSE(verdict.unhealthy());

  // Live process, heartbeat at the threshold: stalled, with a reason.
  verdict = EvaluateHeartbeat(heartbeat, 15000, 5000, true);
  EXPECT_EQ(verdict.state, WorkerHealth::kStalled);
  EXPECT_TRUE(verdict.unhealthy());
  EXPECT_FALSE(verdict.detail.empty());

  // Gone process that never reached "done": dead, even when fresh.
  verdict = EvaluateHeartbeat(heartbeat, 10001, 5000, false);
  EXPECT_EQ(verdict.state, WorkerHealth::kDead);
  EXPECT_TRUE(verdict.unhealthy());
  EXPECT_NE(verdict.detail.find("1234"), std::string::npos);

  // Phase "done" wins over both age and a gone pid: a finished worker's
  // process legitimately exits and its heartbeat legitimately ages.
  heartbeat.phase = "done";
  verdict = EvaluateHeartbeat(heartbeat, 999999999, 5000, false);
  EXPECT_EQ(verdict.state, WorkerHealth::kDone);
  EXPECT_FALSE(verdict.unhealthy());

  // A clock that reads earlier than the stamp (cross-host skew) clamps age
  // to zero rather than underflowing.
  heartbeat.phase = "testing";
  verdict = EvaluateHeartbeat(heartbeat, 9000, 5000, true);
  EXPECT_EQ(verdict.age_ms, 0u);
  EXPECT_EQ(verdict.state, WorkerHealth::kHealthy);
}

TEST(ProcessAliveTest, SelfIsAliveBogusPidsAreNot) {
  EXPECT_TRUE(ProcessAlive(static_cast<int64_t>(getpid())));
  EXPECT_FALSE(ProcessAlive(0));
  EXPECT_FALSE(ProcessAlive(-5));
  // PID_MAX on Linux caps at 2^22; this pid can never exist.
  EXPECT_FALSE(ProcessAlive(int64_t{1} << 30));
}

// --- status collection -----------------------------------------------------

// A status directory holds exactly one driver: its heartbeat decides the
// health verdict and supplies the progress counters. A torn heartbeat reads
// as corrupt, never as a crash of the reader.
TEST_F(StatusScratch, CollectFleetStatusUsesRootAggregatesAndFlagsCorruptShards) {
  Heartbeat root;
  root.role = "campaign";
  root.phase = "done";
  root.pid = static_cast<int64_t>(getpid());
  root.programs_total = 30;
  root.programs_done = 30;
  root.tests_generated = 120;
  root.findings = 7;
  root.started_unix_ms = UnixNowMillis() - 5000;
  root.updated_unix_ms = UnixNowMillis();
  ASSERT_TRUE(WriteHeartbeatFile(HeartbeatPathIn(root_), root));

  FleetStatus fleet = CollectFleetStatus(root_, kDefaultStallThresholdMs);
  ASSERT_EQ(fleet.workers.size(), 1u);
  EXPECT_EQ(fleet.workers[0].role, "campaign");
  EXPECT_EQ(fleet.workers[0].health.state, WorkerHealth::kDone);
  EXPECT_EQ(fleet.programs_total, 30u);
  EXPECT_EQ(fleet.programs_done, 30u);
  EXPECT_EQ(fleet.tests_generated, 120u);
  EXPECT_EQ(fleet.findings, 7u);
  EXPECT_TRUE(fleet.healthy());
  EXPECT_TRUE(fleet.complete());
  EXPECT_NE(FleetStatusJson(fleet).find("\"complete\":true"), std::string::npos);
  EXPECT_NE(FleetStatusText(fleet).find("complete"), std::string::npos);

  {
    std::ofstream out(HeartbeatPathIn(root_), std::ios::binary | std::ios::trunc);
    out << "{\"version\":1,\"role\":\"campaign\",\"pha";
  }
  fleet = CollectFleetStatus(root_, kDefaultStallThresholdMs);
  ASSERT_EQ(fleet.workers.size(), 1u);
  EXPECT_EQ(fleet.workers[0].health.state, WorkerHealth::kCorrupt);
  EXPECT_EQ(fleet.unhealthy_workers, 1);
  EXPECT_FALSE(fleet.healthy());
  EXPECT_FALSE(fleet.complete());
  EXPECT_EQ(fleet.programs_done, 0u);

  const std::string json = FleetStatusJson(fleet);
  EXPECT_NE(json.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(json.find("\"health\":\"corrupt\""), std::string::npos);
  EXPECT_NE(FleetStatusText(fleet).find("corrupt"), std::string::npos);
}

TEST_F(StatusScratch, CollectFleetStatusOnANonStatusPathIsEmpty) {
  EXPECT_TRUE(CollectFleetStatus(Path("nope"), 1000).workers.empty());
  EXPECT_TRUE(CollectFleetStatus(root_, 1000).workers.empty());  // no artifacts
  EXPECT_FALSE(CollectFleetStatus(root_, 1000).healthy());
}

// --- the background emitter ------------------------------------------------

TEST_F(StatusScratch, StatusEmitterPublishesImmediatelyPeriodicallyAndOnStop) {
  std::atomic<uint64_t> calls{0};
  std::atomic<bool> finished{false};
  {
    StatusEmitter emitter(root_, /*interval_ms=*/10, [&] {
      Snapshot snapshot;
      snapshot.role = "campaign";
      snapshot.phase = finished.load() ? "done" : "testing";
      snapshot.pid = static_cast<int64_t>(getpid());
      snapshot.programs_done = calls.fetch_add(1) + 1;
      return snapshot;
    });
    // The first emission is synchronous in the constructor.
    EXPECT_GE(calls.load(), 1u);
    EXPECT_TRUE(fs::exists(SnapshotPathIn(root_)));
    EXPECT_TRUE(fs::exists(HeartbeatPathIn(root_)));

    const uint64_t before = calls.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_GT(calls.load(), before);  // the loop thread kept publishing

    finished.store(true);
    emitter.Stop();  // publishes one final snapshot, then idempotent
    emitter.Stop();
  }

  Snapshot last;
  std::string error;
  ASSERT_TRUE(ParseSnapshotJson(ReadFileOrEmpty(SnapshotPathIn(root_)), &last, &error))
      << error;
  EXPECT_EQ(last.phase, "done");  // Stop() published the finished state

  Heartbeat heartbeat;
  ASSERT_TRUE(
      ParseHeartbeatJson(ReadFileOrEmpty(HeartbeatPathIn(root_)), &heartbeat, &error))
      << error;
  EXPECT_EQ(heartbeat.phase, "done");
  EXPECT_EQ(heartbeat.programs_done, last.programs_done);
}

// --- the campaign identity contract ----------------------------------------

// Live status is observation-only: a campaign with snapshots on (and a
// deliberately hot 5ms interval) produces the identical report and the
// byte-identical deterministic metrics section as one with snapshots off,
// and its final published state is the finished state.
TEST_F(StatusScratch, ParallelCampaignDeterministicOutputIdenticalWithStatusOn) {
  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);

  const auto run = [&](const std::string& status_dir, int jobs) {
    ParallelCampaignOptions options;
    options.campaign.seed = 42;
    options.campaign.num_programs = 8;
    options.campaign.testgen.max_tests = 6;
    options.campaign.testgen.max_decisions = 5;
    options.campaign.testgen.query_time_limit_ms = 0;
    options.campaign.tv.query_time_limit_ms = 0;
    options.campaign.tv.program_budget_ms = 0;
    options.jobs = jobs;
    options.status_dir = status_dir;
    options.snapshot_interval_ms = 5;
    MetricsRegistry metrics;
    options.campaign.metrics = &metrics;
    const CampaignReport report = ParallelCampaign(options).Run(bugs);
    return std::make_pair(report, DeterministicSection(MetricsJson(metrics)));
  };

  const auto [plain_report, plain_metrics] = run("", 2);
  const auto [status_report, status_metrics] = run(root_, 3);

  EXPECT_EQ(plain_report.programs_generated, status_report.programs_generated);
  EXPECT_EQ(plain_report.tests_generated, status_report.tests_generated);
  EXPECT_EQ(plain_report.distinct_bugs, status_report.distinct_bugs);
  ASSERT_EQ(plain_report.findings.size(), status_report.findings.size());
  for (size_t i = 0; i < plain_report.findings.size(); ++i) {
    EXPECT_EQ(plain_report.findings[i].program_index,
              status_report.findings[i].program_index);
    EXPECT_EQ(plain_report.findings[i].detail, status_report.findings[i].detail);
  }
  ASSERT_FALSE(plain_metrics.empty());
  EXPECT_EQ(plain_metrics, status_metrics);

  // The status run left finished artifacts behind.
  Snapshot last;
  std::string error;
  ASSERT_TRUE(ParseSnapshotJson(ReadFileOrEmpty(SnapshotPathIn(root_)), &last, &error))
      << error;
  EXPECT_EQ(last.role, "campaign");
  EXPECT_EQ(last.phase, "done");
  EXPECT_EQ(last.programs_total, 8u);
  EXPECT_EQ(last.programs_done, 8u);
  EXPECT_EQ(last.findings, static_cast<uint64_t>(status_report.findings.size()));

  const FleetStatus fleet = CollectFleetStatus(root_, kDefaultStallThresholdMs);
  ASSERT_EQ(fleet.workers.size(), 1u);
  EXPECT_TRUE(fleet.healthy());
  EXPECT_TRUE(fleet.complete());
}

}  // namespace
}  // namespace gauntlet
