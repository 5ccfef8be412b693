#ifndef SRC_TARGET_LOWERING_H_
#define SRC_TARGET_LOWERING_H_

#include "src/ast/program.h"
#include "src/passes/bugs.h"

namespace gauntlet {

// The front/mid-end lowering every back end shares (P4C's role in Figure
// 1): clone the program, type-check it — with the seeded type-checker
// faults applied, when enabled — and run the standard pass pipeline under
// `bugs`. Translation validation runs exactly these steps, so a campaign
// reuses its output (TvReport::lowered) instead of calling this. Throws
// CompileError for rejected programs and CompilerBugError when a seeded
// fault crashes a pass or snowballs into an ill-typed program.
ProgramPtr LowerThroughPipeline(const Program& program, const BugConfig& bugs);

// Back ends consume call-free programs: InlineFunctions must have removed
// every top-level function call. When the seeded kInlinerSkipsNestedCall
// fault leaves one behind, this is the later pass that crashes on it (the
// section 7.2 snowball). The message contains kResidualCallsNeedle, which
// crash ownership (Target::OwnsCrashMessage) and attribution
// (Campaign::AttributeCrash) both key on — one spelling for all three.
inline constexpr const char* kResidualCallsNeedle = "residual function calls";
void CheckNoResidualCalls(const Program& program, const char* backend_name);

// Structural queries the Tofino resource model (its seeded crash faults)
// needs: the number of match tables and whether any multiply wider than a
// 32-bit PHV container remains after lowering.
int CountTables(const Program& program);
bool HasWideMultiply(const Program& program);

// Total bits across every field of every declared header type — the eBPF
// resource model's stack-frame footprint (parsed headers live on the
// program stack in generated XDP code).
int TotalHeaderBits(const Program& program);

// The longest chain of parser states reachable from "start" — the number of
// iterations the generated eBPF parse loop unrolls to, which the in-kernel
// verifier bounds. Cycles in the state graph are cut at `limit` (the chain
// is "at least limit", which is all the resource model needs). 0 when the
// package binds no parser.
int ParserMaxChainDepth(const Program& program, int limit = 64);

}  // namespace gauntlet

#endif  // SRC_TARGET_LOWERING_H_
