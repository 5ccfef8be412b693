// Reproduces the §7.1 bug-finding timeline: "Initially, the majority of
// bugs that we found were crash bugs. However, after these crash bugs were
// fixed ... the semantic bugs began to exceed the crash bugs."
//
// Each round runs a campaign, then "fixes" (disables) every fault found.
// Crash findings should dominate early rounds and semantic findings later.

#include <cstdio>

#include "src/runtime/parallel_campaign.h"

int main() {
  using namespace gauntlet;

  ParallelCampaignOptions options;
  options.campaign.seed = 1001;  // rounds 1..6 run seeds 1001..1006
  options.campaign.num_programs = 60;
  options.campaign.generator.backend = GeneratorBackend::kTofino;
  options.campaign.generator.p_wide_arith = 20;
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  const FindFixResult result = RunFindFixCampaign(options, BugConfig::All(), 6);

  std::printf("=== campaign timeline: find -> fix -> repeat ===\n");
  std::printf("%-7s %-14s %-10s %-10s %-16s %s\n", "round", "faults left", "crash", "semantic",
              "distinct found", "fixed this round");
  BugConfig remaining = BugConfig::All();
  int first_round_crash = 0;
  int first_round_semantic = 0;
  int late_semantic = 0;
  int late_crash = 0;
  for (size_t i = 0; i < result.rounds.size(); ++i) {
    const CampaignReport& report = result.rounds[i];
    const int round = static_cast<int>(i) + 1;
    int crash_found = 0;
    int semantic_found = 0;
    for (const BugId bug : report.distinct_bugs) {
      if (GetBugInfo(bug).kind == BugKind::kCrash) {
        ++crash_found;
      } else {
        ++semantic_found;
      }
    }
    if (round == 1) {
      first_round_crash = crash_found;
      first_round_semantic = semantic_found;
    } else {
      late_crash += crash_found;
      late_semantic += semantic_found;
    }
    std::printf("%-7d %-14zu %-10d %-10d %-16zu ", round, remaining.enabled().size(),
                crash_found, semantic_found, report.DistinctCount());
    for (const BugId bug : report.distinct_bugs) {
      remaining.Disable(bug);
      std::printf("%s ", BugIdToString(bug).c_str());
    }
    std::printf("\n");
  }
  std::printf("\nfaults never detected: ");
  for (const BugId bug : result.remaining.enabled()) {
    std::printf("%s ", BugIdToString(bug).c_str());
  }
  std::printf("\n\nshape checks (paper §7.1):\n");
  std::printf("  round 1 finds crash bugs: %s (%d crash, %d semantic)\n",
              first_round_crash > 0 ? "yes" : "NO", first_round_crash, first_round_semantic);
  std::printf("  later rounds shift toward semantic bugs: %s (%d semantic vs %d crash "
              "after round 1)\n",
              late_semantic >= late_crash ? "yes" : "NO", late_semantic, late_crash);
  return 0;
}
