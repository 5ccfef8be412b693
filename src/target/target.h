#ifndef SRC_TARGET_TARGET_H_
#define SRC_TARGET_TARGET_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ast/program.h"
#include "src/gen/generator.h"
#include "src/passes/bugs.h"
#include "src/target/concrete.h"
#include "src/target/stf.h"

namespace gauntlet {

// The polymorphic back-end API (paper technique 3): every registered back
// end is a black box that eats a program and produces an artifact that eats
// packets. Nothing above src/target/ names a concrete back end — the
// campaign, corpus, replay and CLI layers all iterate the TargetRegistry.

// A compiled artifact. From the harness's point of view this is the only
// interface the paper's packet-replay oracle relies on.
class Executable {
 public:
  virtual ~Executable() = default;
  virtual PacketResult Run(const BitString& packet, const TableConfig& tables) const = 0;
  virtual const Program& program() const = 0;
};

// A crash-attribution rule a target contributes to the campaign: when a
// compile aborts with a message containing `needle`, the crash site is
// `component` and (when distinctive enough) the seeded fault is `bug`.
// These are the target's back-end crash sites only; shared front/mid-end
// rules live with the campaign.
struct TargetCrashRule {
  const char* needle;
  const char* component;
  std::optional<BugId> bug;
};

// One pluggable back end. Implementations translate the enabled BugIds at
// their BugLocation into TargetQuirks (semantic faults) and resource-model
// assertions (crash faults); everything else about a back end — its
// catalogue section, its crash sites, the component string findings blame —
// is exposed here so the layers above stay target-generic.
class Target {
 public:
  virtual ~Target() = default;

  // Registry key and CLI spelling, e.g. "bmv2".
  virtual const char* name() const = 0;
  // The component string black-box findings blame, e.g. "Bmv2BackEnd".
  virtual const char* component() const = 0;
  // The catalogue section holding this back end's seeded faults.
  virtual BugLocation location() const = 0;

  // Lowers through the shared pipeline (LowerThroughPipeline, with whatever
  // seeded front/mid-end faults `bugs` enables), then runs CompileLowered.
  // Throws CompileError for rejected programs and CompilerBugError when a
  // seeded fault crashes a pass, snowballs into an ill-typed program, or
  // trips the back end's resource model.
  std::unique_ptr<Executable> Compile(const Program& program, const BugConfig& bugs) const;

  // The back-end-specific stage alone, on a program the shared pipeline
  // already lowered under the same `bugs`: the residual-call check, the
  // resource-model crash faults, and the semantic faults baked into the
  // artifact. The lowering reads no back-end fault, so one lowered program
  // serves every back end and every attribution candidate that only turns a
  // back-end fault off. The returned artifact may share `lowered`.
  virtual std::unique_ptr<Executable> CompileLowered(std::shared_ptr<const Program> lowered,
                                                     const BugConfig& bugs) const = 0;

  // This back end's own crash sites (resource-model assertions). Used both
  // to attribute crash findings and to decide crash ownership below.
  virtual std::vector<TargetCrashRule> CrashRules() const { return {}; }

  // The back end's preferred random-program shaping (the §4.2 "back-end-
  // specific skeleton"): returns `base` with the knobs this target wants
  // tweaked — byte-aligned small-stack programs for eBPF, wide-arithmetic
  // table-heavy fodder for Tofino. Campaigns apply it when `--targets X`
  // selects exactly this target; the default is no bias.
  virtual GeneratorOptions GeneratorBias(GeneratorOptions base) const { return base; }

  // Whether a compile-time crash with this message happened *inside* this
  // back end — i.e. translation validation over the open pipeline could not
  // have observed it. Residual-call crashes count: the inliner snowball
  // (§7.2) only surfaces when a back end consumes the mangled program.
  bool OwnsCrashMessage(const std::string& message) const;

  // The catalogue entries seeded into this back end, in catalogue order.
  std::vector<BugId> CatalogueFaults() const;
};

// The process-wide registry of back ends. Built-in targets (BMv2, Tofino,
// eBPF) are registered on first use — explicitly, from this translation
// unit, so a static-library link can never silently drop a back end whose
// symbols nothing referenced. Register() is the extension point for
// out-of-tree targets; registration order is stable and is the order
// campaigns iterate, so reports stay deterministic.
class TargetRegistry {
 public:
  // Adds a target. Throws CompileError when the name is already taken.
  static void Register(std::unique_ptr<Target> target);

  // Lookup by name; Get throws CompileError listing the registered names,
  // Find returns nullptr.
  static const Target& Get(const std::string& name);
  static const Target* Find(const std::string& name);

  // The back end whose seeded faults live at `location` (nullptr when no
  // registered target claims it).
  static const Target* ForLocation(BugLocation location);

  // Registered names / targets in registration order.
  static std::vector<std::string> Names();
  static std::vector<const Target*> All();

  // Resolves a name list (empty = every registered target, in registration
  // order); throws CompileError on an unknown name. The one spelling of
  // "which back ends?" shared by the campaign, replay and CLI layers.
  static std::vector<const Target*> Resolve(const std::vector<std::string>& names);

  // The registered names as one comma-separated string (for diagnostics
  // and --help).
  static std::string JoinedNames();
};

// The execution engine shared by the built-in back ends: the lowered
// program driven by one ConcreteInterpreter parameterized with the quirks
// the compiler's seeded faults baked in. One interpreter per compiled
// artifact, reused across every Run — batch packet replay pays setup once
// per program. References *program_, whose heap address is stable.
class ConcreteExecutable : public Executable {
 public:
  ConcreteExecutable(std::shared_ptr<const Program> program, TargetQuirks quirks)
      : program_(std::move(program)), interpreter_(*program_, quirks) {}

  PacketResult Run(const BitString& packet, const TableConfig& tables) const override {
    return interpreter_.RunPacket(packet, tables);
  }

  const Program& program() const override { return *program_; }

 private:
  std::shared_ptr<const Program> program_;
  ConcreteInterpreter interpreter_;
};

}  // namespace gauntlet

#endif  // SRC_TARGET_TARGET_H_
