#ifndef SRC_TARGET_TOFINO_H_
#define SRC_TARGET_TOFINO_H_

#include <memory>
#include <vector>

#include "src/target/target.h"

namespace gauntlet {

// The proprietary back end (paper section 6.1): its intermediate
// representations are closed, so translation validation cannot look inside
// — packet replay through the compiled artifact is the only available
// oracle. The same shared lowering, then a chip-flavoured stage with a
// PHV/stage resource model: its seeded crash faults abort compilation
// ("PHV allocation" / "stage allocation" assertions); its seeded semantic
// faults silently change the artifact's behavior — exactly the split in
// the fault catalogue's Tofino section. Registered as "tofino".
class TofinoTarget : public Target {
 public:
  const char* name() const override { return "tofino"; }
  const char* component() const override { return "TofinoBackEnd"; }
  BugLocation location() const override { return BugLocation::kBackEndTofino; }

  std::unique_ptr<Executable> CompileLowered(std::shared_ptr<const Program> lowered,
                                             const BugConfig& bugs) const override;

  std::vector<TargetCrashRule> CrashRules() const override {
    return {
        {"PHV allocation", "TofinoPhvAllocation", BugId::kTofinoCrashOnWideArith},
        {"stage allocation", "TofinoStageAllocator", BugId::kTofinoCrashManyTables},
    };
  }

  // The chip wants fodder that stresses its resource models: the tna-like
  // skeleton (more tables) plus a higher share of wide arithmetic.
  GeneratorOptions GeneratorBias(GeneratorOptions base) const override {
    base.backend = GeneratorBackend::kTofino;
    if (base.p_wide_arith < 20) {
      base.p_wide_arith = 20;
    }
    return base;
  }
};

}  // namespace gauntlet

#endif  // SRC_TARGET_TOFINO_H_
