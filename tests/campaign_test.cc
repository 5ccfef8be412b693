#include <gtest/gtest.h>

#include <map>

#include "src/frontend/parser.h"
#include "src/gauntlet/campaign.h"
#include "src/obs/coverage.h"
#include "src/obs/metrics.h"
#include "src/runtime/parallel_campaign.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {
namespace {

CampaignOptions SmallCampaign(int num_programs) {
  CampaignOptions options;
  options.seed = 42;
  options.num_programs = num_programs;
  options.testgen.max_tests = 6;
  // Sized so two multi-entry tables' decision conditions (per-slot wins,
  // slot overlap, action selections) fit the enumeration budget.
  options.testgen.max_decisions = 10;
  return options;
}

// Runs `options` on the campaign driver with one worker.
CampaignReport RunCampaign(const CampaignOptions& options, const BugConfig& bugs) {
  ParallelCampaignOptions parallel;
  parallel.campaign = options;
  return ParallelCampaign(parallel).Run(bugs);
}

TEST(CampaignTest, CleanCompilerYieldsNoFindings) {
  const CampaignReport report = RunCampaign(SmallCampaign(12), BugConfig::None());
  EXPECT_EQ(report.programs_generated, 12);
  EXPECT_TRUE(report.findings.empty())
      << "unexpected finding: " << report.findings[0].component << " — "
      << report.findings[0].detail;
  EXPECT_EQ(report.DistinctCount(), 0u);
}

TEST(CampaignTest, SingleCrashBugIsFoundAndAttributed) {
  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);
  const CampaignReport report = RunCampaign(SmallCampaign(25), bugs);
  EXPECT_TRUE(report.distinct_bugs.count(BugId::kTypeCheckerShiftCrash) > 0)
      << "findings: " << report.findings.size();
  for (const Finding& finding : report.findings) {
    EXPECT_EQ(finding.kind, BugKind::kCrash);
  }
}

TEST(CampaignTest, SingleSemanticBugIsFoundByTranslationValidation) {
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  const CampaignReport report = RunCampaign(SmallCampaign(50), bugs);
  bool found_by_tv = false;
  for (const Finding& finding : report.findings) {
    if (finding.method == DetectionMethod::kTranslationValidation &&
        finding.component == "Predication") {
      found_by_tv = true;
    }
  }
  EXPECT_TRUE(found_by_tv);
  EXPECT_TRUE(report.distinct_bugs.count(BugId::kPredicationLostElse) > 0);
}

TEST(CampaignTest, TofinoBackEndBugFoundOnlyByPacketTests) {
  BugConfig bugs;
  bugs.Enable(BugId::kTofinoTableDefaultSkipped);
  CampaignOptions options = SmallCampaign(25);
  options.generator.backend = GeneratorBackend::kTofino;
  const CampaignReport report = RunCampaign(options, bugs);
  bool found = false;
  for (const Finding& finding : report.findings) {
    if (finding.attributed == BugId::kTofinoTableDefaultSkipped) {
      found = true;
      // Black-box back ends can only be caught by packet replay (§6.1).
      EXPECT_EQ(finding.method, DetectionMethod::kPacketTest);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CampaignTest, FullCatalogueCampaignFindsBugsInEveryLocation) {
  CampaignOptions options = SmallCampaign(40);
  options.generator.backend = GeneratorBackend::kTofino;
  options.generator.p_wide_arith = 25;
  const CampaignReport report = RunCampaign(options, BugConfig::All());
  EXPECT_GT(report.DistinctCount(), 4u);
  const auto by_kind = report.DistinctByKind();
  EXPECT_GT(by_kind.count(BugKind::kCrash) > 0 ? by_kind.at(BugKind::kCrash) : 0, 0);
  const auto by_location = report.DistinctByLocation();
  EXPECT_GT(by_location.count(BugLocation::kFrontEnd) > 0
                ? by_location.at(BugLocation::kFrontEnd)
                : 0,
            0);
}

TEST(CampaignTest, FixingBugsShrinksFindings) {
  // The paper's timeline: crash bugs get fixed first, then semantic bugs
  // surface. Disabling (fixing) an attributed bug must remove its findings.
  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);
  bugs.Enable(BugId::kPredicationLostElse);
  const CampaignReport first = RunCampaign(SmallCampaign(25), bugs);
  ASSERT_GT(first.DistinctCount(), 0u);

  // "Fix" everything that was found and re-run.
  BugConfig after_fixes = bugs;
  for (const BugId bug : first.distinct_bugs) {
    after_fixes.Disable(bug);
  }
  const CampaignReport second = RunCampaign(SmallCampaign(25), after_fixes);
  for (const BugId bug : first.distinct_bugs) {
    EXPECT_EQ(second.distinct_bugs.count(bug), 0u);
  }
}

// The fodder-dependent fault classes: each needs a specific program shape
// (shared-argument call pairs, calls under branches, def-use temporaries,
// disjoint slice writes) that the generator must emit often enough for a
// modest campaign to find the fault. Uses the Tofino skeleton because its
// table-heavy programs are the historical masking case (table applies used
// to count as reads of everything, hiding every dead-store fault).
class FodderFaultCampaign : public testing::TestWithParam<BugId> {};

TEST_P(FodderFaultCampaign, RandomCampaignFindsFault) {
  BugConfig bugs;
  bugs.Enable(GetParam());
  CampaignOptions options = SmallCampaign(90);
  options.seed = 555;
  options.generator.backend = GeneratorBackend::kTofino;
  options.generator.p_wide_arith = 20;
  const CampaignReport report = RunCampaign(options, bugs);
  EXPECT_EQ(report.distinct_bugs.count(GetParam()), 1u)
      << "fault " << BugIdToString(GetParam()) << " not found in 90 random programs";
}

INSTANTIATE_TEST_SUITE_P(
    GeneratorCoverage, FodderFaultCampaign,
    testing::Values(BugId::kSideEffectOrderSwap, BugId::kInlinerSkipsNestedCall,
                    BugId::kSimplifyDefUseDropsInoutWrite,
                    BugId::kSliceWriteTreatedAsFullDef, BugId::kTofinoCrashOnWideArith),
    [](const testing::TestParamInfo<BugId>& info) {
      std::string name = BugIdToString(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(CampaignTest, TargetSubsettingChangesOnlySelectedBackEndsFindings) {
  // Seed one fault per back end; with the single-target generator bias
  // disabled the program stream and the open-pipeline techniques are
  // identical for any --targets value, so subsetting to one back end must
  // reproduce exactly that back end's packet-test findings and drop the
  // others'. (With bias on, a single-target campaign deliberately generates
  // different fodder — covered by SingleTargetCampaignAppliesGeneratorBias.)
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  bugs.Enable(BugId::kTofinoTableDefaultSkipped);
  bugs.Enable(BugId::kEbpfParserExtractReversed);

  CampaignOptions all = SmallCampaign(30);
  all.bias_generator = false;
  const CampaignReport full = RunCampaign(all, bugs);

  CampaignOptions only_ebpf = all;
  only_ebpf.targets = {"ebpf"};
  const CampaignReport subset = RunCampaign(only_ebpf, bugs);

  // The subset run found only eBPF bugs...
  EXPECT_GT(subset.distinct_bugs.count(BugId::kEbpfParserExtractReversed), 0u);
  EXPECT_EQ(subset.distinct_bugs.count(BugId::kBmv2TableMissRunsFirstAction), 0u);
  EXPECT_EQ(subset.distinct_bugs.count(BugId::kTofinoTableDefaultSkipped), 0u);
  // ...and the full run found every back end's.
  EXPECT_GT(full.distinct_bugs.count(BugId::kEbpfParserExtractReversed), 0u);
  EXPECT_GT(full.distinct_bugs.count(BugId::kBmv2TableMissRunsFirstAction), 0u);
  EXPECT_GT(full.distinct_bugs.count(BugId::kTofinoTableDefaultSkipped), 0u);

  // The eBPF findings themselves are identical in both runs: subsetting
  // never perturbs the selected back ends' results.
  std::vector<std::string> full_ebpf;
  for (const Finding& finding : full.findings) {
    if (finding.method == DetectionMethod::kPacketTest &&
        finding.attributed.has_value() &&
        GetBugInfo(*finding.attributed).location == BugLocation::kBackEndEbpf) {
      full_ebpf.push_back(std::to_string(finding.program_index) + ":" +
                          BugIdToString(*finding.attributed) + ":" + finding.detail);
    }
  }
  std::vector<std::string> subset_ebpf;
  for (const Finding& finding : subset.findings) {
    if (finding.method == DetectionMethod::kPacketTest &&
        finding.attributed.has_value()) {
      EXPECT_EQ(GetBugInfo(*finding.attributed).location, BugLocation::kBackEndEbpf);
      subset_ebpf.push_back(std::to_string(finding.program_index) + ":" +
                            BugIdToString(*finding.attributed) + ":" + finding.detail);
    }
  }
  EXPECT_EQ(full_ebpf, subset_ebpf);
}

TEST(CampaignTest, SingleTargetCampaignAppliesGeneratorBias) {
  // A campaign pointed at exactly one back end reshapes its fodder with
  // that target's GeneratorBias (the §4.2 back-end-specific skeleton): the
  // biased run equals a run whose generator options were biased by hand,
  // and differs from the unbiased stream.
  BugConfig bugs;
  bugs.Enable(BugId::kEbpfParserExtractReversed);

  CampaignOptions biased = SmallCampaign(10);
  biased.targets = {"ebpf"};
  const CampaignReport auto_biased = RunCampaign(biased, bugs);

  CampaignOptions manual = biased;
  manual.bias_generator = false;
  manual.generator = TargetRegistry::Get("ebpf").GeneratorBias(manual.generator);
  const CampaignReport hand_biased = RunCampaign(manual, bugs);
  EXPECT_EQ(auto_biased.tests_generated, hand_biased.tests_generated);
  EXPECT_EQ(auto_biased.findings.size(), hand_biased.findings.size());
  EXPECT_EQ(auto_biased.distinct_bugs, hand_biased.distinct_bugs);

  // The eBPF bias restricts widths to whole bytes — the options really do
  // change under the bias.
  const GeneratorOptions shaped = Campaign(biased).EffectiveGeneratorOptions();
  EXPECT_TRUE(shaped.byte_aligned_fields);
  EXPECT_FALSE(CampaignOptions{}.generator.byte_aligned_fields);
}

TEST(CampaignTest, SharedCrashSiteRecordedOncePerProgramAcrossTargets) {
  // The inliner snowball crashes *every* back end's compile (the message
  // embeds the back end's name); one program must still yield exactly one
  // residual-calls finding, not one per registered target.
  BugConfig bugs;
  bugs.Enable(BugId::kInlinerSkipsNestedCall);
  CampaignOptions options = SmallCampaign(90);
  options.seed = 555;
  const CampaignReport report = RunCampaign(options, bugs);
  ASSERT_GT(report.distinct_bugs.count(BugId::kInlinerSkipsNestedCall), 0u);
  std::map<int, int> residual_findings_per_program;
  for (const Finding& finding : report.findings) {
    if (finding.attributed == BugId::kInlinerSkipsNestedCall) {
      ++residual_findings_per_program[finding.program_index];
    }
  }
  for (const auto& [program_index, count] : residual_findings_per_program) {
    EXPECT_EQ(count, 1) << "program " << program_index
                        << " recorded the shared crash once per back end";
  }
}

TEST(CampaignTest, EachProgramRunsThePipelineOnce) {
  // Validation's pipeline run is the lowering every back end compiles and
  // every black-box attribution candidate recompiles; with validation off,
  // the campaign lowers each program once itself.
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  for (const bool validate : {true, false}) {
    MetricsRegistry metrics;
    CampaignOptions options = SmallCampaign(20);
    options.run_translation_validation = validate;
    options.metrics = &metrics;
    const CampaignReport report = RunCampaign(options, bugs);
    ASSERT_EQ(report.programs_generated, 20);
    EXPECT_EQ(metrics.Value("passes/pipeline_runs"), 20u) << "validation " << validate;
  }
}

// A full pipeline whose ingress shifts a constant by a header field: the
// `typechecker-shift-crash` trigger.
constexpr const char* kShiftByFieldProgram = R"(
header H { bit<8> a; bit<8> f; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) { apply { hdr.h.a = 8w1 << hdr.h.f; } }
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

// A five-state extract chain: one state more than the eBPF back end's
// modelled verifier loop bound, so `ebpf-crash-verifier-loop-bound` fails
// its compile.
constexpr const char* kLongParserChainProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h1; H h2; H h3; H h4; H h5; }
parser p(out Hdr hdr) {
  state start { pkt.extract(hdr.h1); transition s2; }
  state s2 { pkt.extract(hdr.h2); transition s3; }
  state s3 { pkt.extract(hdr.h3); transition s4; }
  state s4 { pkt.extract(hdr.h4); transition s5; }
  state s5 { pkt.extract(hdr.h5); transition accept; }
}
control ig(inout Hdr hdr) { apply { hdr.h1.a = hdr.h5.b; } }
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h1); } }
package main { parser = p; ingress = ig; deparser = dp; }
)";

TEST(CampaignTest, ProgramWhoseLoweringThrowsGeneratesNoTests) {
  // No back end can compile a program whose shared lowering throws, so no
  // packet test is generated for it; its one finding is the crash.
  auto program = Parser::ParseString(kShiftByFieldProgram);
  TypeCheck(*program);
  const Campaign campaign(SmallCampaign(1));

  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);
  CampaignReport crashed;
  campaign.TestProgram(*program, bugs, 0, crashed);
  EXPECT_EQ(crashed.tests_generated, 0);
  EXPECT_EQ(crashed.programs_with_crash, 1);
  ASSERT_EQ(crashed.findings.size(), 1u);
  EXPECT_EQ(crashed.findings[0].method, DetectionMethod::kCrash);
  EXPECT_EQ(crashed.findings[0].attributed, BugId::kTypeCheckerShiftCrash);

  CampaignReport clean;
  campaign.TestProgram(*program, BugConfig::None(), 0, clean);
  EXPECT_GT(clean.tests_generated, 0);
  EXPECT_TRUE(clean.findings.empty());
}

TEST(CampaignTest, TestGenerationRunsOnlyOnProgramsThatLower) {
  BugConfig bugs;
  bugs.Enable(BugId::kTypeCheckerShiftCrash);
  MetricsRegistry metrics;
  CampaignOptions options = SmallCampaign(25);
  options.metrics = &metrics;
  const CampaignReport report = RunCampaign(options, bugs);
  ASSERT_GT(report.programs_with_crash, 0);
  EXPECT_EQ(metrics.Value("time/testgen-enumerate/calls"),
            static_cast<uint64_t>(report.programs_generated - report.programs_with_crash));
}

TEST(CampaignTest, BackEndThatFailsToCompileExercisesNoSemanticFault) {
  // The fault-trigger "exercised" counter of a back end's semantic fault
  // needs an artifact to replay tests on: a back end whose own compile
  // throws ran nothing.
  auto program = Parser::ParseString(kLongParserChainProgram);
  TypeCheck(*program);
  CampaignOptions options = SmallCampaign(1);
  options.targets = {"ebpf"};
  const Campaign campaign(options);
  const auto coverage_for = [&](const BugConfig& bugs) {
    CoverageMap coverage;
    ScopedCoverageSink sink(&coverage);
    CampaignReport report;
    campaign.TestProgram(*program, bugs, 0, report);
    return coverage;
  };

  BugConfig semantic;
  semantic.Enable(BugId::kEbpfParserExtractReversed);
  EXPECT_EQ(coverage_for(semantic).Value("fault-trigger", "ebpf-parser-extract-reversed/exercised"),
            1u);

  BugConfig crashing = semantic;
  crashing.Enable(BugId::kEbpfCrashVerifierLoopBound);
  const CoverageMap crashed = coverage_for(crashing);
  EXPECT_EQ(crashed.Value("fault-trigger", "ebpf-crash-verifier-loop-bound/exercised"), 1u);
  for (const BugInfo& info : BugCatalogue()) {
    if (info.location == BugLocation::kBackEndEbpf && info.kind == BugKind::kSemantic) {
      EXPECT_EQ(crashed.Value("fault-trigger", std::string(info.name) + "/exercised"), 0u)
          << info.name;
    }
  }
}

TEST(CampaignTest, UnknownTargetNameFailsLoudly) {
  CampaignOptions options = SmallCampaign(1);
  options.targets = {"bmv2", "hexagon"};
  EXPECT_THROW(RunCampaign(options, BugConfig::None()), CompileError);
}

TEST(CampaignTest, ReportsAreDeterministicForSeed) {
  BugConfig bugs;
  bugs.Enable(BugId::kConstantFoldWrapWidth);
  const CampaignReport first = RunCampaign(SmallCampaign(10), bugs);
  const CampaignReport second = RunCampaign(SmallCampaign(10), bugs);
  EXPECT_EQ(first.findings.size(), second.findings.size());
  EXPECT_EQ(first.distinct_bugs, second.distinct_bugs);
}

}  // namespace
}  // namespace gauntlet
