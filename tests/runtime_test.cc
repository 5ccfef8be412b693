// The src/runtime/ subsystem: worker pool, parallel campaign determinism
// (same seed, any --jobs -> bit-identical report), find->fix rounds, and the
// STF corpus store -> replay round trip.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "src/cache/verdict_cache.h"
#include "src/frontend/parser.h"
#include "src/runtime/corpus.h"
#include "src/runtime/parallel_campaign.h"
#include "src/runtime/worker_pool.h"
#include "src/target/stf.h"

namespace gauntlet {
namespace {

namespace fs = std::filesystem;

// --- worker pool -----------------------------------------------------------

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& hit : hits) {
    hit = 0;
  }
  ParallelFor(pool, 257, [&](int i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(WorkerPoolTest, PoolIsReusableAcrossParallelFors) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  ParallelFor(pool, 10, [&](int) { ++total; });
  ParallelFor(pool, 15, [&](int) { ++total; });
  EXPECT_EQ(total.load(), 25);
}

TEST(WorkerPoolTest, ParallelForRethrowsBodyException) {
  WorkerPool pool(2);
  EXPECT_THROW(ParallelFor(pool, 8,
                           [&](int i) {
                             if (i == 5) {
                               throw CompileError("boom");
                             }
                           }),
               CompileError);
}

// --- parallel campaign determinism ----------------------------------------

// Disables every wall-clock solver budget (conflict budgets stay): outcomes
// become machine-load-independent, which the report-identity tests below
// require — a query that times out only under parallel ctest load would
// change which tests get generated and make bit-identity checks flaky.
void RemoveWallClockBudgets(CampaignOptions& options) {
  options.testgen.query_time_limit_ms = 0;
  options.tv.query_time_limit_ms = 0;
  options.tv.program_budget_ms = 0;
}

ParallelCampaignOptions SmallCampaign(int num_programs, int jobs) {
  ParallelCampaignOptions options;
  options.campaign.seed = 42;
  options.campaign.num_programs = num_programs;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  RemoveWallClockBudgets(options.campaign);
  options.jobs = jobs;
  return options;
}

void ExpectIdenticalReports(const CampaignReport& a, const CampaignReport& b) {
  EXPECT_EQ(a.programs_generated, b.programs_generated);
  EXPECT_EQ(a.programs_with_crash, b.programs_with_crash);
  EXPECT_EQ(a.programs_with_semantic, b.programs_with_semantic);
  EXPECT_EQ(a.tests_generated, b.tests_generated);
  EXPECT_EQ(a.undef_divergences, b.undef_divergences);
  EXPECT_EQ(a.structural_mismatches, b.structural_mismatches);
  EXPECT_EQ(a.distinct_bugs, b.distinct_bugs);
  EXPECT_EQ(a.unattributed_components, b.unattributed_components);
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
    EXPECT_EQ(fa.repro_test.has_value(), fb.repro_test.has_value());
    if (fa.repro_test.has_value() && fb.repro_test.has_value()) {
      EXPECT_EQ(EmitStf(*fa.repro_test), EmitStf(*fb.repro_test));
    }
  }
}

TEST(ParallelCampaignTest, SameSeedSameReportForOneAndEightJobs) {
  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  const CampaignReport serial = ParallelCampaign(SmallCampaign(16, 1)).Run(bugs);
  const CampaignReport parallel = ParallelCampaign(SmallCampaign(16, 8)).Run(bugs);
  EXPECT_EQ(serial.programs_generated, 16);
  ExpectIdenticalReports(serial, parallel);
}

TEST(ParallelCampaignTest, ZeroJobsMeansHardwareThreadsAndStaysDeterministic) {
  const BugConfig bugs = BugConfig::None();
  const CampaignReport a = ParallelCampaign(SmallCampaign(6, 0)).Run(bugs);
  const CampaignReport b = ParallelCampaign(SmallCampaign(6, 3)).Run(bugs);
  ExpectIdenticalReports(a, b);
}

TEST(ParallelCampaignTest, MultiEntryEncodingKeepsJobsBitIdentity) {
  // The acceptance gate for the N-entry table encoding: with the
  // priority-inversion fault seeded (caught *only* through multi-entry
  // shadowing scenarios), the report must stay bit-identical across --jobs.
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TablePriorityInversion);
  ParallelCampaignOptions serial_options;
  serial_options.campaign.seed = 5;
  serial_options.campaign.num_programs = 25;
  RemoveWallClockBudgets(serial_options.campaign);
  serial_options.jobs = 1;
  ParallelCampaignOptions parallel_options = serial_options;
  parallel_options.jobs = 8;
  const CampaignReport serial = ParallelCampaign(serial_options).Run(bugs);
  const CampaignReport parallel = ParallelCampaign(parallel_options).Run(bugs);
  ExpectIdenticalReports(serial, parallel);
  // The workload genuinely exercises the multi-entry scenarios.
  EXPECT_GT(serial.distinct_bugs.count(BugId::kBmv2TablePriorityInversion), 0u);
}

TEST(ParallelCampaignTest, CacheFileWarmStartKeepsReportsBitIdentical) {
  // Cross-run persistence: a campaign writes its cache file; re-running warm
  // must produce the identical report (for any jobs count) while actually
  // hitting the persisted templates and verdicts.
  const fs::path cache_file =
      fs::temp_directory_path() / "gauntlet_cache_file_test.cache";
  fs::remove(cache_file);

  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  ParallelCampaignOptions options = SmallCampaign(12, 1);
  options.cache_file = cache_file.string();

  const CampaignReport cold = ParallelCampaign(options).Run(bugs);
  ASSERT_TRUE(fs::exists(cache_file));

  CacheStats warm_stats;
  const CampaignReport warm = ParallelCampaign(options).Run(bugs, &warm_stats);
  ExpectIdenticalReports(cold, warm);
  EXPECT_GT(warm_stats.blast_hits, 0u);
  EXPECT_GT(warm_stats.verdict_hits, 0u);

  ParallelCampaignOptions parallel_options = options;
  parallel_options.jobs = 8;
  const CampaignReport warm_parallel = ParallelCampaign(parallel_options).Run(bugs);
  ExpectIdenticalReports(cold, warm_parallel);

  fs::remove(cache_file);
}

TEST(ParallelCampaignTest, ProgramSeedsAreDecorrelated) {
  // Neighbouring indices must not produce near-identical generator seeds.
  const uint64_t s0 = ParallelCampaign::ProgramSeed(1, 0);
  const uint64_t s1 = ParallelCampaign::ProgramSeed(1, 1);
  EXPECT_NE(s0, s1);
  EXPECT_NE(s0, 1u);  // index 0 must still be mixed
  EXPECT_NE(ParallelCampaign::ProgramSeed(1, 0), ParallelCampaign::ProgramSeed(2, 0));
}

// --- find->fix rounds --------------------------------------------------------

TEST(FindFixCampaignTest, RoundsMatchAcrossJobsAndNeverRefindAFixedFault) {
  // Every catalogued fault seeded: each round runs on the campaign driver,
  // so the whole sequence — every round's findings and distinct faults, the
  // cumulative set and the leftovers — must be identical at one worker and
  // at four. A fault found in round r is disabled before round r + 1, so no
  // later round may report it again.
  const BugConfig all = BugConfig::All();
  const FindFixResult serial = RunFindFixCampaign(SmallCampaign(8, 1), all, 4);
  const FindFixResult parallel = RunFindFixCampaign(SmallCampaign(8, 4), all, 4);
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (size_t round = 0; round < serial.rounds.size(); ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectIdenticalReports(serial.rounds[round], parallel.rounds[round]);
  }
  EXPECT_EQ(serial.found, parallel.found);
  EXPECT_EQ(serial.remaining.enabled(), parallel.remaining.enabled());

  ASSERT_GE(serial.rounds.size(), 2u) << "the sequence never reached a second round";
  std::set<BugId> fixed;
  for (size_t round = 0; round < serial.rounds.size(); ++round) {
    const CampaignReport& report = serial.rounds[round];
    EXPECT_EQ(report.programs_generated, 8);
    for (const Finding& finding : report.findings) {
      if (finding.attributed.has_value()) {
        EXPECT_EQ(fixed.count(*finding.attributed), 0u)
            << BugIdToString(*finding.attributed) << " found again in round " << round;
      }
    }
    fixed.insert(report.distinct_bugs.begin(), report.distinct_bugs.end());
  }
  EXPECT_EQ(fixed, serial.found);
  for (const BugId bug : all.enabled()) {
    EXPECT_NE(serial.found.count(bug) != 0, serial.remaining.Has(bug)) << BugIdToString(bug);
  }
}

// --- corpus store + replay round trip --------------------------------------

class CorpusRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest registers each test case separately and
    // runs them in parallel, so a shared path would race.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = (fs::temp_directory_path() / ("gauntlet_corpus_" + name)).string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CorpusRoundTrip, CampaignStoresReplayableReproducer) {
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  ParallelCampaignOptions options = SmallCampaign(25, 4);
  options.corpus_dir = dir_;
  const CampaignReport report = ParallelCampaign(options).Run(bugs);
  ASSERT_GT(report.distinct_bugs.count(BugId::kBmv2TableMissRunsFirstAction), 0u)
      << "campaign never tripped the seeded fault; corpus has nothing to store";

  const std::vector<CorpusEntry> entries = ListCorpus(dir_);
  ASSERT_FALSE(entries.empty());
  bool found = false;
  for (const CorpusEntry& entry : entries) {
    if (entry.key != "bmv2-miss-runs-first-action") {
      continue;
    }
    found = true;
    // The triple is complete: program + failing STF + finding metadata.
    EXPECT_FALSE(entry.program_text.empty());
    EXPECT_FALSE(entry.stf_text.empty());
    EXPECT_TRUE(fs::exists(fs::path(dir_) / (entry.key + ".finding.json")));

    // Replay through the buggy compiler: the mismatch must reproduce.
    const ReplayOutcome buggy = ReplayStfText(entry.program_text, entry.stf_text, bugs);
    EXPECT_GT(buggy.failures, 0) << "stored reproducer no longer reproduces";

    // Replay through the clean compilers: the reproducer must pass (the
    // expected outputs come from the source semantics).
    const ReplayOutcome clean =
        ReplayStfText(entry.program_text, entry.stf_text, BugConfig::None());
    EXPECT_EQ(clean.failures, 0)
        << (clean.failure_details.empty() ? "" : clean.failure_details[0]);
  }
  EXPECT_TRUE(found) << "no corpus triple stored for the attributed fault";
}

TEST_F(CorpusRoundTrip, DuplicateFindingsAreStoredOnce) {
  CorpusStore store(dir_);
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) { apply { } }
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)");
  Finding finding;
  finding.attributed = BugId::kBmv2EmitIgnoresValidity;
  finding.component = "Bmv2Deparser";
  EXPECT_EQ(store.Add(*program, finding), "bmv2-emit-ignores-validity");
  EXPECT_EQ(store.Add(*program, finding), "");
  EXPECT_EQ(store.stored_count(), 1);
  // A fresh store over the same directory also refuses to clobber.
  CorpusStore reopened(dir_);
  EXPECT_EQ(reopened.Add(*program, finding), "");
}

TEST_F(CorpusRoundTrip, CorruptStfFailsLoudly) {
  CorpusStore store(dir_);
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) { apply { hdr.h.a = hdr.h.a + 8w1; } }
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)");
  PacketTest test;
  test.name = "t0";
  test.input = BitString::FromHex("0a", 8);
  test.expected.output = BitString::FromHex("0b", 8);
  Finding finding;
  finding.component = "Bmv2BackEnd";
  finding.repro_test = test;
  ASSERT_NE(store.Add(*program, finding), "");

  const std::vector<CorpusEntry> entries = ListCorpus(dir_);
  ASSERT_EQ(entries.size(), 1u);

  // Well-formed STF but a wrong expectation: replay must flag the mismatch.
  std::string wrong_expectation = entries[0].stf_text;
  const size_t pos = wrong_expectation.rfind("0b");
  ASSERT_NE(pos, std::string::npos);
  wrong_expectation.replace(pos, 2, "ff");
  const ReplayOutcome mismatch =
      ReplayStfText(entries[0].program_text, wrong_expectation, BugConfig::None());
  EXPECT_GT(mismatch.failures, 0);

  // Syntactically corrupt STF: the parser must throw, not silently pass.
  EXPECT_THROW(
      ReplayStfText(entries[0].program_text, "packet zz/not-a-number\n", BugConfig::None()),
      CompileError);
}

TEST_F(CorpusRoundTrip, BulkReplayGatesOnStillFailingReproducers) {
  // Build a small corpus from a campaign that trips one fault per back end.
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  bugs.Enable(BugId::kEbpfParserExtractReversed);
  ParallelCampaignOptions options = SmallCampaign(25, 4);
  options.corpus_dir = dir_;
  const CampaignReport report = ParallelCampaign(options).Run(bugs);
  ASSERT_FALSE(report.findings.empty());
  ASSERT_GT(CountCorpus(dir_), 0);

  // With the faults still enabled every stored reproducer must fail — the
  // regression run reports them as live.
  const CorpusReplaySummary live = ReplayCorpus(dir_, bugs);
  EXPECT_EQ(live.entries, CountCorpus(dir_));
  EXPECT_GT(live.failed_entries, 0);
  EXPECT_FALSE(live.passed());

  // After the "fix" (clean compilers) the whole corpus must pass: the
  // expected outputs come from the source semantics.
  const CorpusReplaySummary fixed = ReplayCorpus(dir_, BugConfig::None());
  EXPECT_EQ(fixed.entries, live.entries);
  EXPECT_TRUE(fixed.passed())
      << (fixed.results.empty() || fixed.results[0].outcome.failure_details.empty()
              ? ""
              : fixed.results[0].outcome.failure_details[0]);

  // Target subsetting: the eBPF fault is invisible on bmv2 (quirks only
  // ever land in their own back end's artifact), and live on ebpf.
  BugConfig ebpf_only;
  ebpf_only.Enable(BugId::kEbpfParserExtractReversed);
  EXPECT_TRUE(ReplayCorpus(dir_, ebpf_only, {"bmv2"}).passed());
  bool ebpf_repro_failed = false;
  for (const CorpusReplayResult& result : ReplayCorpus(dir_, ebpf_only, {"ebpf"}).results) {
    if (result.key == "ebpf-parser-extract-reversed") {
      ebpf_repro_failed = !result.outcome.passed();
    }
  }
  EXPECT_TRUE(ebpf_repro_failed);
}

TEST_F(CorpusRoundTrip, UnattributedFindingsKeyOnComponent) {
  Finding finding;
  finding.component = "TofinoBackEnd";
  EXPECT_EQ(CorpusStore::KeyFor(finding), "unattributed-TofinoBackEnd");
  finding.attributed = BugId::kTofinoPhvNarrowWide;
  EXPECT_EQ(CorpusStore::KeyFor(finding), "tofino-phv-narrow-wide");
}

}  // namespace
}  // namespace gauntlet
