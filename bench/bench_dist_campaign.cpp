// Distributed-campaign identity and overhead: the same budget-free
// workload through the single-process ParallelCampaign and through the
// shard coordinator at 1/2/4 shards, gating on bit-identical findings
// (the coordinator's whole contract) and on bounded coordination
// overhead — the shard fleet re-runs the same programs, so its wall
// clock must stay within a modest factor of the single-process run plus
// the serialization round trips.

#include <chrono>
#include <cstdio>

#include "src/dist/coordinator.h"
#include "src/runtime/parallel_campaign.h"

int main() {
  using namespace gauntlet;
  using Clock = std::chrono::steady_clock;

  // Budget-free (conflict budgets stay): identity must hold exactly, and a
  // wall-clock query timeout under load would break it for reasons that
  // have nothing to do with sharding.
  CampaignOptions campaign;
  campaign.seed = 2024;
  campaign.num_programs = 24;
  campaign.testgen.max_tests = 6;
  campaign.testgen.max_decisions = 5;
  campaign.testgen.query_time_limit_ms = 0;
  campaign.tv.query_time_limit_ms = 0;
  campaign.tv.program_budget_ms = 0;
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);

  ParallelCampaignOptions single;
  single.campaign = campaign;
  single.jobs = 2;
  const auto single_start = Clock::now();
  const CampaignReport reference = ParallelCampaign(single).Run(bugs);
  const double single_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          Clock::now() - single_start)
          .count();

  std::printf("=== shard coordinator: %d programs, jobs 2 per shard ===\n",
              campaign.num_programs);
  std::printf("%-14s %-12s %-14s %s\n", "topology", "wall ms", "findings",
              "distinct bugs");
  std::printf("%-14s %-12.0f %-14zu %zu\n", "1 process", single_ms,
              reference.findings.size(), reference.DistinctCount());

  for (const int shards : {1, 2, 4}) {
    ShardCoordinatorOptions options;
    options.campaign = campaign;
    options.shards = shards;
    options.jobs = 2;
    const auto start = Clock::now();
    const CoordinatorOutcome outcome = RunShardCoordinator(options, bugs);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            Clock::now() - start)
            .count();
    char label[32];
    std::snprintf(label, sizeof(label), "%d shard%s", shards, shards == 1 ? "" : "s");
    std::printf("%-14s %-12.0f %-14zu %zu\n", label, ms, outcome.report.findings.size(),
                outcome.report.DistinctCount());

    if (outcome.report.findings.size() != reference.findings.size() ||
        outcome.report.distinct_bugs != reference.distinct_bugs ||
        outcome.report.tests_generated != reference.tests_generated) {
      std::printf("IDENTITY VIOLATION: %d-shard merged report differs from "
                  "the single-process run\n",
                  shards);
      return 1;
    }
    for (size_t i = 0; i < reference.findings.size(); ++i) {
      if (outcome.report.findings[i].program_index != reference.findings[i].program_index ||
          outcome.report.findings[i].component != reference.findings[i].component ||
          outcome.report.findings[i].attributed != reference.findings[i].attributed) {
        std::printf("IDENTITY VIOLATION: finding %zu differs under %d shards\n", i, shards);
        return 1;
      }
    }
    // Sharding re-partitions the same work; allow generous scheduling slack
    // plus an absolute term for the per-shard result-file round trips.
    if (ms > single_ms * 3.0 + 1000.0) {
      std::printf("OVERHEAD VIOLATION: %d shards took %.0fms vs %.0fms single "
                  "(> 3x + 1000ms)\n",
                  shards, ms, single_ms);
      return 1;
    }
  }
  return 0;
}
