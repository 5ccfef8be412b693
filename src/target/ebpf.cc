#include "src/target/ebpf.h"

#include <string>
#include <utility>

#include "src/target/lowering.h"

namespace gauntlet {

namespace {

// The modelled stack frame available for parsed headers, in bits. Real BPF
// programs get 512 bytes for everything; the model scales it down so the
// seeded fault is reachable by hand-written triggers (40 bytes of header).
constexpr int kStackBitBudget = 320;

// The modelled verifier budget for the generated parse loop: how many
// sequential parser states the unrolled loop may chain before the in-kernel
// verifier rejects the program. Real verifiers bound total instructions /
// loop iterations; the model scales it down so the seeded fault is
// reachable by hand-written triggers (a five-state chain).
constexpr int kVerifierLoopBound = 4;

}  // namespace

std::unique_ptr<Executable> EbpfTarget::CompileLowered(std::shared_ptr<const Program> lowered,
                                                       const BugConfig& bugs) const {
  CheckNoResidualCalls(*lowered, "eBPF");

  // Seeded back-end crash faults (resource-model assertions).
  if (bugs.Has(BugId::kEbpfCrashStackOverflow)) {
    const int bits = TotalHeaderBits(*lowered);
    if (bits > kStackBitBudget) {
      throw CompilerBugError("eBPF back end: stack frame allocation failed: " +
                             std::to_string((bits + 7) / 8) + " bytes of parsed headers "
                             "exceed the " + std::to_string(kStackBitBudget / 8) +
                             "-byte stack frame");
    }
  }
  if (bugs.Has(BugId::kEbpfCrashVerifierLoopBound)) {
    const int depth = ParserMaxChainDepth(*lowered);
    if (depth > kVerifierLoopBound) {
      throw CompilerBugError("eBPF back end: verifier rejected the parse loop: " +
                             std::to_string(depth) + " chained parser states exceed the " +
                             std::to_string(kVerifierLoopBound) +
                             "-iteration loop bound");
    }
  }

  // Seeded back-end semantic faults become artifact quirks.
  TargetQuirks quirks;
  quirks.reverse_extract_field_order = bugs.Has(BugId::kEbpfParserExtractReversed);
  quirks.miss_drops_packet = bugs.Has(BugId::kEbpfMapMissDropsPacket);
  quirks.swap_map_key_bytes = bugs.Has(BugId::kEbpfMapKeyByteOrderSwap);
  return std::make_unique<ConcreteExecutable>(std::move(lowered), quirks);
}

}  // namespace gauntlet
