#include <gtest/gtest.h>

#include <map>

#include "src/gauntlet/campaign.h"
#include "src/runtime/parallel_campaign.h"

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
