#include "src/target/bmv2.h"

#include <utility>

#include "src/target/lowering.h"

namespace gauntlet {

std::unique_ptr<Executable> Bmv2Target::CompileLowered(std::shared_ptr<const Program> lowered,
                                                       const BugConfig& bugs) const {
  CheckNoResidualCalls(*lowered, "BMv2");
  TargetQuirks quirks;
  quirks.emit_ignores_validity = bugs.Has(BugId::kBmv2EmitIgnoresValidity);
  quirks.miss_runs_first_action = bugs.Has(BugId::kBmv2TableMissRunsFirstAction);
  quirks.match_last_entry = bugs.Has(BugId::kBmv2TablePriorityInversion);
  return std::make_unique<ConcreteExecutable>(std::move(lowered), quirks);
}

}  // namespace gauntlet
