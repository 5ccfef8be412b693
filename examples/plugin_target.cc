// Out-of-tree back-end registration (the TargetRegistry extension path).
//
// This binary defines a complete back end that the gauntlet library knows
// nothing about — no entry in the built-in registration list, no symbol the
// library references — registers it with TargetRegistry::Register at
// startup, and immediately drives a smoke campaign through it by name. It
// is the living proof that adding a back end takes one translation unit and
// zero campaign-layer edits (and, linked against the static library, that
// nothing strips the registration path).
//
//   ./plugin_target            # registers "plugin", runs a 10-program
//                              # campaign replaying only on it; exits
//                              # nonzero if anything misbehaves

#include <cstdio>
#include <memory>

#include "src/gauntlet/campaign.h"
#include "src/runtime/parallel_campaign.h"
#include "src/target/lowering.h"
#include "src/target/target.h"

namespace {

using namespace gauntlet;

// A faithful software switch: shared lowering, reference execution engine,
// no seeded faults of its own. Claims the eBPF catalogue section (it is a
// software target too); a real out-of-tree port would bring its own
// section.
class PluginTarget : public Target {
 public:
  const char* name() const override { return "plugin"; }
  const char* component() const override { return "PluginBackEnd"; }
  BugLocation location() const override { return BugLocation::kBackEndEbpf; }

  std::unique_ptr<Executable> Compile(const Program& program,
                                      const BugConfig& bugs) const override {
    ProgramPtr lowered = LowerThroughPipeline(program, bugs);
    CheckNoResidualCalls(*lowered, "plugin");
    return std::make_unique<ConcreteExecutable>(std::move(lowered), TargetQuirks{});
  }

  // Out-of-tree targets take part in fodder shaping like built-ins do.
  GeneratorOptions GeneratorBias(GeneratorOptions base) const override {
    base.byte_aligned_fields = true;
    return base;
  }
};

}  // namespace

int main() {
  TargetRegistry::Register(std::make_unique<PluginTarget>());

  if (TargetRegistry::Find("plugin") == nullptr) {
    std::fprintf(stderr, "FAIL: registered target not found by name\n");
    return 1;
  }
  std::printf("registered targets: %s\n", TargetRegistry::JoinedNames().c_str());

  // A clean campaign replaying only on the plugin target: the campaign
  // layer resolves it through the registry like any built-in, applies its
  // generator bias (single-target run), and must report zero findings —
  // the plugin compiles faithfully.
  ParallelCampaignOptions options;
  options.campaign.seed = 11;
  options.campaign.num_programs = 10;
  options.campaign.targets = {"plugin"};
  options.campaign.testgen.max_tests = 6;
  options.campaign.testgen.max_decisions = 5;
  if (!Campaign(options.campaign).EffectiveGeneratorOptions().byte_aligned_fields) {
    std::fprintf(stderr, "FAIL: single-target campaign ignored the plugin's bias\n");
    return 1;
  }
  const CampaignReport report = ParallelCampaign(options).Run(BugConfig::None());
  std::printf("smoke campaign: %d programs, %d tests, %zu findings\n",
              report.programs_generated, report.tests_generated, report.findings.size());
  if (report.programs_generated != options.campaign.num_programs || !report.findings.empty()) {
    std::fprintf(stderr, "FAIL: clean plugin campaign misbehaved\n");
    return 1;
  }
  std::printf("OK: out-of-tree registration and campaign replay work\n");
  return 0;
}
