// The src/obs/snapshot.h + src/obs/health.h layer: snapshot JSON round
// trips, torn/garbage rejection, atomic file replacement (a polling reader
// never sees a half-written snapshot), the pure health matrix, status
// collection over crafted directories, the background StatusEmitter, and
// the ParallelCampaign identity contract (deterministic output
// byte-identical with live status on or off).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

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
  snapshot.requests_served = 0;
  return snapshot;
}

// --- JSON round trips ------------------------------------------------------

TEST(SnapshotJsonTest, RoundTripsFlatFields) {
  // A member the reader does not know, nested containers included, is
  // skipped structurally; it must never break the fields around it.
  std::string json = SnapshotJson(FilledSnapshot());
  json.insert(json.rfind('}'), ", \"extra\": {\"nested\": [1, {\"x\": \"}\"}]}\n");

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
  Snapshot snapshot;
  snapshot.role = "campaign";
  snapshot.phase = "testing";
  snapshot.pid = 1234;
  snapshot.updated_unix_ms = 10000;

  // Fresh snapshot, live process: healthy.
  HealthVerdict verdict = EvaluateHeartbeat(snapshot, 10500, 5000, /*pid_alive=*/true);
  EXPECT_EQ(verdict.state, DriverHealth::kHealthy);
  EXPECT_EQ(verdict.age_ms, 500u);
  EXPECT_FALSE(verdict.unhealthy());

  // Live process, snapshot at the threshold: stalled, with a reason.
  verdict = EvaluateHeartbeat(snapshot, 15000, 5000, true);
  EXPECT_EQ(verdict.state, DriverHealth::kStalled);
  EXPECT_TRUE(verdict.unhealthy());
  EXPECT_FALSE(verdict.detail.empty());

  // Gone process that never reached "done": dead, even when fresh.
  verdict = EvaluateHeartbeat(snapshot, 10001, 5000, false);
  EXPECT_EQ(verdict.state, DriverHealth::kDead);
  EXPECT_TRUE(verdict.unhealthy());
  EXPECT_NE(verdict.detail.find("1234"), std::string::npos);

  // Phase "done" wins over both age and a gone pid: a finished driver's
  // process legitimately exits and its snapshot legitimately ages.
  snapshot.phase = "done";
  verdict = EvaluateHeartbeat(snapshot, 999999999, 5000, false);
  EXPECT_EQ(verdict.state, DriverHealth::kDone);
  EXPECT_FALSE(verdict.unhealthy());

  // A clock that reads earlier than the stamp (cross-host skew) clamps age
  // to zero rather than underflowing.
  snapshot.phase = "testing";
  verdict = EvaluateHeartbeat(snapshot, 9000, 5000, true);
  EXPECT_EQ(verdict.age_ms, 0u);
  EXPECT_EQ(verdict.state, DriverHealth::kHealthy);
}

TEST(ProcessAliveTest, SelfIsAliveBogusPidsAreNot) {
  EXPECT_TRUE(ProcessAlive(static_cast<int64_t>(getpid())));
  EXPECT_FALSE(ProcessAlive(0));
  EXPECT_FALSE(ProcessAlive(-5));
  // PID_MAX on Linux caps at 2^22; this pid can never exist.
  EXPECT_FALSE(ProcessAlive(int64_t{1} << 30));
}

// --- status collection -----------------------------------------------------

// A status directory holds exactly one driver: its snapshot decides the
// health verdict and supplies the progress counters. A torn snapshot reads
// as corrupt, never as a crash of the reader.
TEST_F(StatusScratch, CollectStatusReadsTheSnapshotAndFlagsATornOne) {
  Snapshot snapshot;
  snapshot.role = "campaign";
  snapshot.phase = "done";
  snapshot.pid = static_cast<int64_t>(getpid());
  snapshot.programs_total = 30;
  snapshot.programs_done = 30;
  snapshot.tests_generated = 120;
  snapshot.findings = 7;
  snapshot.started_unix_ms = UnixNowMillis() - 5000;
  snapshot.updated_unix_ms = UnixNowMillis();
  ASSERT_TRUE(WriteSnapshotFile(SnapshotPathIn(root_), snapshot));

  DriverStatus status;
  ASSERT_TRUE(CollectStatus(root_, kDefaultStallThresholdMs, &status));
  EXPECT_EQ(status.snapshot.role, "campaign");
  EXPECT_EQ(status.health.state, DriverHealth::kDone);
  EXPECT_EQ(status.snapshot.programs_total, 30u);
  EXPECT_EQ(status.snapshot.programs_done, 30u);
  EXPECT_EQ(status.snapshot.tests_generated, 120u);
  EXPECT_EQ(status.snapshot.findings, 7u);
  EXPECT_TRUE(status.healthy());
  EXPECT_TRUE(status.complete());
  EXPECT_NE(StatusJson(status).find("\"complete\":true"), std::string::npos);
  EXPECT_NE(StatusText(status).find("done"), std::string::npos);

  {
    std::ofstream out(SnapshotPathIn(root_), std::ios::binary | std::ios::trunc);
    out << "{\"version\":2,\"role\":\"campaign\",\"pha";
  }
  ASSERT_TRUE(CollectStatus(root_, kDefaultStallThresholdMs, &status));
  EXPECT_EQ(status.health.state, DriverHealth::kCorrupt);
  EXPECT_FALSE(status.healthy());
  EXPECT_FALSE(status.complete());
  EXPECT_EQ(status.snapshot.programs_done, 0u);

  const std::string json = StatusJson(status);
  EXPECT_NE(json.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(json.find("\"health\":\"corrupt\""), std::string::npos);
  EXPECT_NE(StatusText(status).find("corrupt"), std::string::npos);
}

// A value wider than its column still leaves a space before the next one:
// a snapshot last updated at the epoch is decades old, and its age used to
// run into the health column as `497868h7mstalled`.
TEST_F(StatusScratch, StatusTextSeparatesColumnsThatOverflow) {
  Snapshot snapshot;
  snapshot.role = "campaign";
  snapshot.phase = "running";
  snapshot.pid = static_cast<int64_t>(getpid());
  snapshot.programs_total = 30;
  snapshot.programs_done = 3;
  snapshot.started_unix_ms = 1;
  snapshot.updated_unix_ms = 1;
  ASSERT_TRUE(WriteSnapshotFile(SnapshotPathIn(root_), snapshot));

  DriverStatus status;
  ASSERT_TRUE(CollectStatus(root_, kDefaultStallThresholdMs, &status));
  ASSERT_EQ(status.health.state, DriverHealth::kStalled);
  const std::string text = StatusText(status);
  // The value row: role, pid, phase, done/total, tests, findings, age and
  // health, each its own whitespace-separated word.
  std::istringstream row(text.substr(text.find('\n') + 1));
  std::vector<std::string> columns;
  for (std::string column; row >> column;) {
    columns.push_back(column);
  }
  ASSERT_GE(columns.size(), 8u) << text;
  EXPECT_EQ(columns[5], "0") << text;
  EXPECT_GT(columns[6].size(), 8u) << text;  // the age fills its column
  EXPECT_EQ(columns[7], "stalled") << text;
}

TEST_F(StatusScratch, CollectStatusOnANonStatusPathFindsNothing) {
  DriverStatus status;
  EXPECT_FALSE(CollectStatus(Path("nope"), 1000, &status));
  EXPECT_FALSE(CollectStatus(root_, 1000, &status));  // no snapshot
  // Any other file, even one named like a status record, is not a snapshot.
  std::ofstream(Path("status.json")) << "{}";
  EXPECT_FALSE(CollectStatus(root_, 1000, &status));
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

  // The snapshot is the only file the emitter writes.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(root_)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"snapshot.json"});
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

  DriverStatus status;
  ASSERT_TRUE(CollectStatus(root_, kDefaultStallThresholdMs, &status));
  EXPECT_TRUE(status.healthy());
  EXPECT_TRUE(status.complete());
}

}  // namespace
}  // namespace gauntlet
