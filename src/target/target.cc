#include "src/target/target.h"

#include <map>
#include <mutex>

#include "src/support/error.h"
#include "src/target/bmv2.h"
#include "src/target/ebpf.h"
#include "src/target/lowering.h"
#include "src/target/tofino.h"

namespace gauntlet {

std::unique_ptr<Executable> Target::Compile(const Program& program, const BugConfig& bugs) const {
  return CompileLowered(LowerThroughPipeline(program, bugs), bugs);
}

bool Target::OwnsCrashMessage(const std::string& message) const {
  // Every back end runs the residual-call check; a crash there is a
  // back-end crash site (the §7.2 snowball), invisible to translation
  // validation.
  if (message.find(kResidualCallsNeedle) != std::string::npos) {
    return true;
  }
  for (const TargetCrashRule& rule : CrashRules()) {
    if (message.find(rule.needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<BugId> Target::CatalogueFaults() const {
  std::vector<BugId> faults;
  for (const BugInfo& info : BugCatalogue()) {
    if (info.location == location()) {
      faults.push_back(info.id);
    }
  }
  return faults;
}

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Target>> targets;  // registration order
};

// The built-ins are registered here, by direct reference, rather than via
// per-TU self-registering statics: libgauntlet is a static library, and a
// linker is free to drop an object file none of whose symbols are
// referenced — which is exactly what a pure self-registration scheme
// becomes once the campaign stops naming back ends.
Registry& Instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    r->targets.push_back(std::make_unique<Bmv2Target>());
    r->targets.push_back(std::make_unique<TofinoTarget>());
    r->targets.push_back(std::make_unique<EbpfTarget>());
    return r;
  }();
  return *registry;
}

}  // namespace

void TargetRegistry::Register(std::unique_ptr<Target> target) {
  Registry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const std::unique_ptr<Target>& existing : registry.targets) {
    if (std::string(existing->name()) == target->name()) {
      throw CompileError(std::string("target '") + target->name() + "' is already registered");
    }
  }
  registry.targets.push_back(std::move(target));
}

const Target* TargetRegistry::Find(const std::string& name) {
  Registry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const std::unique_ptr<Target>& target : registry.targets) {
    if (name == target->name()) {
      return target.get();
    }
  }
  return nullptr;
}

const Target& TargetRegistry::Get(const std::string& name) {
  const Target* target = Find(name);
  if (target == nullptr) {
    throw CompileError("unknown target '" + name + "'; registered targets: " + JoinedNames());
  }
  return *target;
}

std::vector<const Target*> TargetRegistry::Resolve(const std::vector<std::string>& names) {
  if (names.empty()) {
    return All();
  }
  // First occurrence wins: `--targets ebpf,ebpf` must not replay every
  // program twice and double-count findings.
  std::vector<const Target*> targets;
  targets.reserve(names.size());
  for (const std::string& name : names) {
    const Target* target = &Get(name);
    bool seen = false;
    for (const Target* existing : targets) {
      seen |= existing == target;
    }
    if (!seen) {
      targets.push_back(target);
    }
  }
  return targets;
}

std::string TargetRegistry::JoinedNames() {
  std::string joined;
  for (const std::string& name : Names()) {
    joined += (joined.empty() ? "" : ", ") + name;
  }
  return joined;
}

const Target* TargetRegistry::ForLocation(BugLocation location) {
  Registry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const std::unique_ptr<Target>& target : registry.targets) {
    if (target->location() == location) {
      return target.get();
    }
  }
  return nullptr;
}

std::vector<std::string> TargetRegistry::Names() {
  Registry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<std::string> names;
  names.reserve(registry.targets.size());
  for (const std::unique_ptr<Target>& target : registry.targets) {
    names.emplace_back(target->name());
  }
  return names;
}

std::vector<const Target*> TargetRegistry::All() {
  Registry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<const Target*> targets;
  targets.reserve(registry.targets.size());
  for (const std::unique_ptr<Target>& target : registry.targets) {
    targets.push_back(target.get());
  }
  return targets;
}

}  // namespace gauntlet
