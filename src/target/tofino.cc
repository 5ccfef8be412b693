#include "src/target/tofino.h"

#include <string>
#include <utility>

#include "src/target/lowering.h"

namespace gauntlet {

namespace {

// The modelled chip's match-stage budget: the seeded stage-allocator fault
// asserts once a program needs more tables than this.
constexpr int kStageTableBudget = 4;

}  // namespace

std::unique_ptr<Executable> TofinoTarget::CompileLowered(std::shared_ptr<const Program> lowered,
                                                         const BugConfig& bugs) const {
  CheckNoResidualCalls(*lowered, "Tofino");

  // Seeded back-end crash faults (resource-model assertions).
  if (bugs.Has(BugId::kTofinoCrashOnWideArith) && HasWideMultiply(*lowered)) {
    throw CompilerBugError(
        "Tofino back end: PHV allocation failed: no container class fits a >32-bit multiply");
  }
  if (bugs.Has(BugId::kTofinoCrashManyTables)) {
    const int tables = CountTables(*lowered);
    if (tables > kStageTableBudget) {
      throw CompilerBugError("Tofino back end: stage allocation asserted: " +
                             std::to_string(tables) + " match tables exceed the " +
                             std::to_string(kStageTableBudget) + "-stage budget");
    }
  }

  // Seeded back-end semantic faults become artifact quirks.
  TargetQuirks quirks;
  quirks.emit_ignores_validity = bugs.Has(BugId::kTofinoDeparserEmitsInvalid);
  quirks.skip_default_action = bugs.Has(BugId::kTofinoTableDefaultSkipped);
  quirks.narrow_alu_containers = bugs.Has(BugId::kTofinoPhvNarrowWide);
  quirks.swap_action_data_bytes = bugs.Has(BugId::kTofinoActionDataEndianSwap);
  return std::make_unique<ConcreteExecutable>(std::move(lowered), quirks);
}

}  // namespace gauntlet
