#ifndef SRC_TARGET_EBPF_H_
#define SRC_TARGET_EBPF_H_

#include <memory>
#include <vector>

#include "src/target/target.h"

namespace gauntlet {

// The eBPF/XDP-flavoured software back end (the third registered target,
// proving the back-end API is pluggable — p4c's own ebpf backend is the
// model, §7.3). Same shared lowering, then a stage shaped by the kernel
// execution environment:
//
//   * resource model: parsed headers live on the BPF program's stack
//     frame, which is hard-capped — the seeded stack-allocator crash fault
//     asserts when the program's headers exceed the modelled budget;
//   * tables compile to BPF map lookups — the seeded map-miss fault aborts
//     the program (XDP_ABORTED, i.e. a dropped packet) on a lookup miss
//     instead of running the default action;
//   * the parser compiles to a generated field-extraction loop — the
//     seeded parser-gen fault walks a header's field list in reverse, so
//     fields are extracted in the wrong order (the ROADMAP parser fault
//     model);
//   * that parse loop is unrolled under the in-kernel verifier's
//     bounded-iteration budget — the seeded verifier fault rejects any
//     program whose parser chains more states than the modelled bound
//     (the ROADMAP bounded-loop crash class).
//
// Registered as "ebpf".
class EbpfTarget : public Target {
 public:
  const char* name() const override { return "ebpf"; }
  const char* component() const override { return "EbpfBackEnd"; }
  BugLocation location() const override { return BugLocation::kBackEndEbpf; }

  std::unique_ptr<Executable> CompileLowered(std::shared_ptr<const Program> lowered,
                                             const BugConfig& bugs) const override;

  std::vector<TargetCrashRule> CrashRules() const override {
    return {
        {"stack frame", "EbpfStackAllocator", BugId::kEbpfCrashStackOverflow},
        {"parse loop", "EbpfVerifier", BugId::kEbpfCrashVerifierLoopBound},
    };
  }

  // Kernel-shaped fodder: whole-byte fields (map keys and packet loads go
  // through byte-oriented codecs — exercises the byte-order fault class)
  // and a modest header budget so programs hover near the modelled stack
  // frame instead of blowing far past it.
  GeneratorOptions GeneratorBias(GeneratorOptions base) const override {
    base.byte_aligned_fields = true;
    if (base.max_fields_per_header > 3) {
      base.max_fields_per_header = 3;
    }
    if (base.p_wide_arith > 10) {
      base.p_wide_arith = 10;
    }
    return base;
  }
};

}  // namespace gauntlet

#endif  // SRC_TARGET_EBPF_H_
