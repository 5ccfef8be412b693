// Byte-identity goldens for every persisted artifact writer, plus the
// deterministic truncation/mutation sweep over their readers and over the
// P4 and STF source parsers.
//
// Each golden is the exact output of one writer for one fixed input. The
// inputs carry the characters escaping has to get right: quotes,
// backslashes, newlines, tabs, control bytes and, where the writer sees
// arbitrary text, high bytes. CI gates and downstream consumers match
// these bytes literally, so any diff here is a format change.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "src/dist/serve.h"
#include "src/frontend/parser.h"
#include "src/obs/health.h"
#include "src/obs/run_report.h"
#include "src/obs/snapshot.h"
#include "src/runtime/corpus.h"
#include "src/support/rng.h"
#include "src/target/stf.h"

namespace gauntlet {
namespace {

namespace fs = std::filesystem;

// --- fixed inputs ------------------------------------------------------------

// A string holding every byte class an escaper distinguishes except \r and
// bytes >= 0x7f, which kHighBytes carries.
const std::string kAwkward = std::string("q\"b\\n\nt\tc") + std::string("\x01", 1) + "!";
const std::string kHighBytes("cr\r hi\xff\x7f", 8);

MetricsRegistry GoldenMetrics() {
  MetricsRegistry registry;
  registry.Count("campaign/findings_total", MetricScope::kDeterministic, 3);
  registry.Count("needs\"escaping\\here", MetricScope::kDeterministic, 1);
  registry.Observe("det/h", MetricScope::kDeterministic, {1, 10}, 5);
  registry.Observe("det/h", MetricScope::kDeterministic, {1, 10}, 50);
  registry.Count("smt/conflicts", MetricScope::kTiming, 812);
  registry.GaugeMax("process/peak_rss_kb", MetricScope::kTiming, 18446744073709551615ull);
  for (uint64_t v = 1; v <= 20; ++v) {
    registry.Observe("time/h/micros", MetricScope::kTiming, {5, 10, 100}, v);
  }
  registry.Count(std::string("hi\xff\x7f", 4), MetricScope::kTiming, 7);
  return registry;
}

Snapshot GoldenSnapshot() {
  Snapshot snapshot;
  snapshot.role = "campaign";
  snapshot.phase = "testing \"quoted\"\t" + std::string("\xfe", 1);
  snapshot.pid = 4321;
  snapshot.started_unix_ms = 1000;
  snapshot.updated_unix_ms = 2500;
  snapshot.programs_total = 40;
  snapshot.programs_done = 17;
  snapshot.tests_generated = 96;
  snapshot.findings = 5;
  snapshot.requests_served = 18446744073709551615ull;
  return snapshot;
}

// A dead driver, whose detail needs escaping. The phase is plain because
// the text dashboard prints it raw.
DriverStatus GoldenStatus() {
  DriverStatus status;
  status.snapshot = GoldenSnapshot();
  status.snapshot.phase = "testing";
  status.health.state = DriverHealth::kDead;
  status.health.age_ms = 12000;
  status.health.detail = "process 4321 is gone but the phase never reached \"done\"";
  return status;
}

std::vector<TraceEvent> GoldenTraceEvents() {
  std::vector<TraceEvent> events;
  TraceEvent outer;
  outer.name = "generate";
  outer.category = "campaign";
  outer.start_us = 10;
  outer.duration_us = 5000;
  outer.tid = 1;
  outer.args = {{"program", 3}, {"seed", 18446744073709551615ull}};
  events.push_back(outer);
  TraceEvent hostile;
  hostile.name = "tv:" + kAwkward + std::string("\xff", 1);
  hostile.category = "tv";
  hostile.start_us = 20;
  hostile.duration_us = 0;
  hostile.tid = 0;
  events.push_back(hostile);
  return events;
}

// --- the goldens -------------------------------------------------------------

const char* const kMetricsGolden = R"golden({
  "version": 2,
  "deterministic": {
    "campaign/findings_total": 3,
    "det/h": {"bounds": [1, 10], "counts": [0, 1, 1], "total": 2},
    "needs\"escaping\\here": 1
  },
  "timing": {
    "hi\u00ff\u007f": 7,
    "process/peak_rss_kb": 18446744073709551615,
    "smt/conflicts": 812,
    "time/h/micros": {"bounds": [5, 10, 100], "counts": [5, 5, 10, 0], "total": 20, "p50": 10, "p90": 82, "p99": 100}
  }
}
)golden";

const char* const kSnapshotGolden = R"golden({
  "version": 2,
  "role": "campaign",
  "phase": "testing \"quoted\"\t\u00fe",
  "pid": 4321,
  "started_unix_ms": 1000,
  "updated_unix_ms": 2500,
  "programs_total": 40,
  "programs_done": 17,
  "tests_generated": 96,
  "findings": 5,
  "requests_served": 18446744073709551615
}
)golden";

const char* const kStatusJsonGolden = R"golden({"version":2,"healthy":false,"complete":false,"stall_threshold_ms":10000,"programs_total":40,"programs_done":17,"tests_generated":96,"findings":5,"requests_served":18446744073709551615,"role":"campaign","health":"dead","age_ms":12000,"pid":4321,"phase":"testing","detail":"process 4321 is gone but the phase never reached \"done\""}
)golden";

const char* const kStatusTextGolden = R"golden(role          pid      phase           done/total   tests   findings  age     health
campaign      4321     testing         17/40        96      5         12s     dead  (process 4321 is gone but the phase never reached "done")
)golden";

const char* const kFindingGolden = R"golden({
  "key": "bmv2-miss-runs-first-action",
  "program_index": 12,
  "method": "packet-test",
  "kind": "semantic",
  "component": "Bmv2 q\"b\\n\nt\tc\u0001!",
  "attributed": "bmv2-miss-runs-first-action",
  "detail": "bmv2 t0: expected 0b, got q\"b\\n\nt\tc\u0001!"
}
)golden";

// An unattributed crash finding: the key sanitizes the component, and the
// component's \r and high bytes escape the JsonQuoted way.
const char* const kHighBytesFindingGolden = R"golden({
  "key": "unattributed-cr--hi--",
  "program_index": 2147483647,
  "method": "crash",
  "kind": "crash",
  "component": "cr\r hi\u00ff\u007f",
  "attributed": null,
  "detail": "cr\r hi\u00ff\u007f"
}
)golden";

const char* const kTraceGolden = R"golden({"traceEvents": [
  {"name": "generate", "cat": "campaign", "ph": "X", "ts": 10, "dur": 5000, "pid": 1, "tid": 1, "args": {"program": 3, "seed": 18446744073709551615}},
  {"name": "tv:q\"b\\n\nt\tc\u0001!\u00ff", "cat": "tv", "ph": "X", "ts": 20, "dur": 0, "pid": 1, "tid": 0}
], "displayTimeUnit": "ms"}
)golden";

const char* const kServeCleanGolden = R"golden({"version":1,"status":"ok","program_index":0,"tests_generated":1,"findings":[]})golden";

const char* const kServeFindingsGolden = R"golden({"version":1,"status":"ok","program_index":1,"tests_generated":6,"findings":[{"method":"translation-validation","kind":"semantic","component":"Predication","attributed":"predication-lost-else"}]})golden";

const char* const kServeCrashGolden = R"golden({"version":1,"status":"ok","program_index":2,"tests_generated":0,"findings":[{"method":"crash","kind":"crash","component":"TypeChecker","attributed":"typechecker-shift-crash"}]})golden";

const char* const kServeParseErrorGolden = R"golden({"version":1,"status":"error","error":"1:7: error: unexpected character '\"'"})golden";

const char* const kServeBadBugGolden = R"golden({"version":1,"status":"error","error":"unknown bug '\"no\\such'"})golden";

// --- writers match their goldens ---------------------------------------------

TEST(ArtifactGoldenTest, MetricsJson) { EXPECT_EQ(MetricsJson(GoldenMetrics()), kMetricsGolden); }

TEST(ArtifactGoldenTest, SnapshotJson) {
  EXPECT_EQ(SnapshotJson(GoldenSnapshot()), kSnapshotGolden);
}

TEST(ArtifactGoldenTest, StatusJson) { EXPECT_EQ(StatusJson(GoldenStatus()), kStatusJsonGolden); }

TEST(ArtifactGoldenTest, StatusText) { EXPECT_EQ(StatusText(GoldenStatus()), kStatusTextGolden); }

TEST(ArtifactGoldenTest, TraceJson) { EXPECT_EQ(TraceJson(GoldenTraceEvents()), kTraceGolden); }

class GoldenScratch : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    root_ = (fs::temp_directory_path() / ("gauntlet_golden_" + name)).string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }
  std::string Path(const std::string& leaf) const { return root_ + "/" + leaf; }
  std::string root_;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

constexpr const char* kCleanProgram = R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) { apply { hdr.h.a = hdr.h.a + 8w1; } }
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

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

// Shifts a constant by a header field: the `typechecker-shift-crash` trigger.
constexpr const char* kShiftByFieldProgram = R"(
header H { bit<8> a; bit<8> f; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) { apply { hdr.h.a = 8w1 << hdr.h.f; } }
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

Finding GoldenFinding() {
  Finding finding;
  finding.program_index = 12;
  finding.method = DetectionMethod::kPacketTest;
  finding.kind = BugKind::kSemantic;
  finding.component = "Bmv2 " + kAwkward;
  finding.attributed = BugId::kBmv2TableMissRunsFirstAction;
  finding.detail = "bmv2 t0: expected 0b, got " + kAwkward;
  return finding;
}

Finding HighBytesFinding() {
  Finding finding;
  finding.program_index = 2147483647;
  finding.method = DetectionMethod::kCrash;
  finding.kind = BugKind::kCrash;
  finding.component = kHighBytes;
  finding.detail = kHighBytes;
  return finding;
}

TEST_F(GoldenScratch, StoredFindingJson) {
  CorpusStore store(root_);
  const auto program = Parser::ParseString(kCleanProgram);
  const std::string key = store.Add(*program, GoldenFinding());
  ASSERT_EQ(key, "bmv2-miss-runs-first-action");
  EXPECT_EQ(Slurp(Path(key + ".finding.json")), kFindingGolden);
  const std::string crash_key = store.Add(*program, HighBytesFinding());
  ASSERT_EQ(crash_key, "unattributed-cr--hi--");
  EXPECT_EQ(Slurp(Path(crash_key + ".finding.json")), kHighBytesFindingGolden);
}

TEST_F(GoldenScratch, ServeResponses) {
  ServeOptions options;
  options.socket_path = Path("sock");
  options.campaign.num_programs = 0;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  options.campaign.testgen.query_time_limit_ms = 0;
  options.campaign.tv.query_time_limit_ms = 0;
  options.campaign.tv.program_budget_ms = 0;
  GauntletServer server(std::move(options), BugConfig::None());
  server.Start();
  std::thread loop([&server] { server.Run(); });
  const std::string socket = server.socket_path();
  const auto submit = [&socket](const std::string& program,
                                const std::vector<std::string>& bugs) {
    return SendServeRequest(socket, BuildSubmitPayload(program, bugs, {}));
  };
  EXPECT_EQ(submit(kCleanProgram, {}), kServeCleanGolden);
  EXPECT_EQ(submit(kPredicationProgram, {"predication-lost-else"}), kServeFindingsGolden);
  EXPECT_EQ(submit(kShiftByFieldProgram, {"typechecker-shift-crash"}), kServeCrashGolden);
  EXPECT_EQ(submit("not a \"p4\" program", {}), kServeParseErrorGolden);
  EXPECT_EQ(submit(kCleanProgram, {"\"no\\such"}), kServeBadBugGolden);
  SendServeRequest(socket, BuildShutdownPayload());
  loop.join();
}

// --- readers round-trip the goldens ------------------------------------------

TEST(ArtifactGoldenTest, ReadersRoundTripTheirGoldens) {
  std::string error;
  MetricsRegistry metrics;
  ASSERT_TRUE(ParseMetricsJson(kMetricsGolden, &metrics, &error)) << error;
  EXPECT_EQ(MetricsJson(metrics), kMetricsGolden);
  Snapshot snapshot;
  ASSERT_TRUE(ParseSnapshotJson(kSnapshotGolden, &snapshot, &error)) << error;
  EXPECT_EQ(SnapshotJson(snapshot), kSnapshotGolden);
}

// --- readers survive truncation and corruption --------------------------------

// Feeds every prefix of `golden`, then a fixed-seed set of single-byte
// mutations of it, to `parse`. Each input must parse or be rejected
// cleanly: CompileError is the only exception allowed through, and a crash
// or a hang fails the run. With a `closer`, a prefix that ends before the
// golden's last `closer` byte is a torn write and must be rejected; without
// one (source text), a prefix ending on a declaration or line boundary is a
// valid, shorter input.
void SweepReader(const std::string& golden, std::optional<char> closer,
                 const std::function<bool(const std::string&)>& parse) {
  const auto accepted = [&parse](const std::string& input) {
    try {
      return parse(input);
    } catch (const CompileError&) {
      return false;
    }
  };
  ASSERT_TRUE(parse(golden));
  const size_t torn = closer.has_value() ? golden.rfind(*closer, golden.size() - 2) : 0;
  for (size_t cut = 0; cut < golden.size(); ++cut) {
    const bool ok = accepted(golden.substr(0, cut));
    if (closer.has_value()) {
      EXPECT_TRUE(cut > torn || !ok) << "torn prefix of " << cut << " bytes parsed";
    }
  }
  static const std::string kInteresting = std::string("{}[]\":,\\ \n-019afx") + '\0' + '\xff';
  Rng rng(0x6a756e6b);
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = golden;
    char& byte = mutated[rng.Below(mutated.size())];
    byte = rng.Chance(50) ? kInteresting[rng.Below(kInteresting.size())]
                          : static_cast<char>(rng.Below(256));
    accepted(mutated);
  }
}

template <typename Record>
std::function<bool(const std::string&)> JsonReaderOf(
    bool (*reader)(const std::string&, Record*, std::string*)) {
  return [reader](const std::string& text) {
    Record record;
    std::string error;
    const bool ok = reader(text, &record, &error);
    EXPECT_TRUE(ok || !error.empty()) << "rejected without a message: " << text;
    return ok;
  };
}

TEST(ArtifactGoldenTest, ReadersRejectTruncatedAndMutatedInputCleanly) {
  const std::vector<std::pair<std::string, std::function<bool(const std::string&)>>> readers = {
      {kSnapshotGolden, JsonReaderOf(&ParseSnapshotJson)},
      {kMetricsGolden, JsonReaderOf(&ParseMetricsJson)},
  };
  for (const auto& [golden, parse] : readers) {
    SCOPED_TRACE(golden.substr(0, golden.find('\n')));
    SweepReader(golden, '}', parse);
  }
}

// A mini-corpus reproducer's STF half (tofino-action-data-endian-swap):
// table entries with action data, then one packet/expect pair.
constexpr const char* kEndianSwapStf = R"(test path2
add t8 8w0 act7(7w0,16w44622)
add t8 8w0 act7(7w127,16w20913)
add t8 8w255 act7(7w0,16w44622)
add t8 8w1 act7(7w0,16w44622)
packet be4e8/17
expect ae4e0/17
)";

TEST(ArtifactGoldenTest, SourceParsersRejectTruncatedAndMutatedInputCleanly) {
  {
    SCOPED_TRACE("P4 parser");
    SweepReader(kPredicationProgram, std::nullopt, [](const std::string& text) {
      Parser::ParseString(text);
      return true;
    });
  }
  {
    SCOPED_TRACE("STF parser");
    SweepReader(kEndianSwapStf, std::nullopt, [](const std::string& text) {
      ParseStf(text);
      return true;
    });
  }
}

}  // namespace
}  // namespace gauntlet
