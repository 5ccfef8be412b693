#ifndef SRC_SMT_SWEEP_H_
#define SRC_SMT_SWEEP_H_

#include <cstdint>

#include "src/smt/expr.h"

namespace gauntlet {

// SAT conflicts one sweep proof may spend before its node is kept unmerged.
inline constexpr uint64_t kSweepProofConflictLimit = 1000;

struct SweepLimits {
  uint64_t conflict_budget = 0;  // SAT conflicts over all proofs; 0 = unlimited
  uint64_t time_limit_ms = 0;    // wall clock over all proofs; 0 = unlimited
};

struct SweepStats {
  uint64_t proofs = 0;     // assumption solves, one per candidate pair tried
  uint64_t merges = 0;     // proofs that came back unsat: node replaced
  uint64_t conflicts = 0;  // SAT conflicts the proofs spent
};

// Word-level SAT sweeping of a miter, after FRAIGs (Kuehlmann & Krohm,
// "Equivalence checking using cuts and heaps", DAC 1997; Mishchenko et al.,
// "FRAIGs", 2005). A miter that compares two versions of a program often
// holds two copies of one value computed different ways — say, an operand
// a pass restructured, feeding a multiply. The SAT core then has to prove
// the two multipliers equal conflict by conflict. Sweeping proves the
// operands equal first, where that is cheap, and merges them, so the two
// multiplies become one node and the miter collapses.
//
//  1. Simulate: evaluate the miter's cone on 64 fixed-seed splitmix64
//     patterns (EvalSmtOp's semantics). A node's signature is its values
//     under every pattern.
//  2. Rebuild: walk the cone in index order, which is topological, and
//     rebuild each node over its arguments' representatives
//     (SmtContext::Rebuild), so merges propagate up through the
//     constructors' simplifications.
//  3. Prove: a rebuilt node whose signature matches an earlier node's, or
//     a constant's, is proven equal to it by one assumption solve on a
//     single incremental SmtSolver (kSweepProofConflictLimit conflicts).
//     Unsat merges the node into the earlier one. Sat adds the model as a
//     new pattern, which separates the pair, and the node is matched
//     again. Unknown, or an exhausted budget, keeps the node as rebuilt.
//
// Every merge is proven under no assumptions, so the result computes the
// same Boolean function as `miter` over every variable. The sweep is a
// pure function of the miter and the context's node table (fixed seed,
// index order), except where a time limit ends it early. `stats` receives
// the work done.
SmtRef SweepMiter(SmtContext& context, SmtRef miter, const SweepLimits& limits,
                  SweepStats* stats);

}  // namespace gauntlet

#endif  // SRC_SMT_SWEEP_H_
