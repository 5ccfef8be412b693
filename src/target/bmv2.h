#ifndef SRC_TARGET_BMV2_H_
#define SRC_TARGET_BMV2_H_

#include <memory>

#include "src/target/target.h"

namespace gauntlet {

// The BMv2 (open-source reference) back end: shared front/mid-end lowering
// (with whatever seeded faults `bugs` enables), then the BMv2-specific
// stage, which bakes the seeded BMv2 semantic faults into the artifact's
// quirks and crashes on residual function calls (the section 7.2 snowball
// site). Registered as "bmv2".
class Bmv2Target : public Target {
 public:
  const char* name() const override { return "bmv2"; }
  const char* component() const override { return "Bmv2BackEnd"; }
  BugLocation location() const override { return BugLocation::kBackEndBmv2; }

  std::unique_ptr<Executable> CompileLowered(std::shared_ptr<const Program> lowered,
                                             const BugConfig& bugs) const override;
};

}  // namespace gauntlet

#endif  // SRC_TARGET_BMV2_H_
