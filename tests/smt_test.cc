// Differential and contract tests for the incremental solver hot path:
// assumption-trail reuse must change *work*, never verdicts or models, and
// the core-guided preference search must keep exactly the preferences the
// sequential scan keeps.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/smt/evaluator.h"
#include "src/smt/solver.h"
#include "src/support/error.h"
#include "src/support/rng.h"

namespace gauntlet {
namespace {

// Checks that `model` satisfies every constraint in `refs`.
void ExpectModelSatisfies(const SmtContext& ctx, const SmtModel& model,
                          const std::vector<SmtRef>& refs) {
  ModelEvaluator evaluator(ctx, model);
  for (const SmtRef& ref : refs) {
    EXPECT_TRUE(evaluator.EvalBool(ref));
  }
}

// The core differential suite: random assumption-stack sequences solved
// three ways — a persistent incremental solver (trail reuse on), a
// persistent solver with reuse off, and a brand-new solver per query (the
// ground truth) — must agree on every verdict, and every satisfiable
// verdict's model must satisfy the hard constraints plus the assumptions.
// 20 rounds x 30 steps = 600 random assumption stacks.
TEST(SmtIncrementalTest, RandomAssumptionStacksMatchFreshSolver) {
  Rng rng(20260807);
  for (int round = 0; round < 20; ++round) {
    SmtContext ctx;
    const uint32_t width = 8;
    std::vector<SmtRef> vars;
    for (int v = 0; v < 4; ++v) {
      vars.push_back(ctx.Var("v" + std::to_string(v), width));
    }
    std::vector<SmtRef> hard;
    hard.push_back(ctx.Eq(ctx.Add(vars[0], vars[1]), ctx.Add(vars[2], vars[3])));
    hard.push_back(ctx.Ult(vars[0], ctx.Const(width, 200)));

    SmtSolver incremental(ctx);
    SmtSolver non_incremental(ctx);
    non_incremental.set_incremental(false);
    for (const SmtRef& constraint : hard) {
      incremental.Assert(constraint);
      non_incremental.Assert(constraint);
    }

    // A pool of candidate assumptions over the same variables: equalities,
    // bounds and disequalities, some mutually inconsistent on purpose.
    std::vector<SmtRef> pool;
    for (int i = 0; i < 12; ++i) {
      const SmtRef var = vars[rng.Below(vars.size())];
      const SmtRef constant = ctx.Const(width, rng.Below(256));
      switch (rng.Below(3)) {
        case 0:
          pool.push_back(ctx.Eq(var, constant));
          break;
        case 1:
          pool.push_back(ctx.Ult(var, constant));
          break;
        default:
          pool.push_back(ctx.BoolNot(ctx.Eq(var, constant)));
          break;
      }
    }

    std::vector<SmtRef> stack;
    for (int step = 0; step < 30; ++step) {
      // Random stack mutation: mostly pushes and pops (the testgen DFS
      // shape), occasionally a replacement mid-stack (the shape trail
      // reuse must handle by backtracking to the divergence point).
      const uint64_t action = rng.Below(10);
      if (stack.empty() || action < 5) {
        stack.push_back(pool[rng.Below(pool.size())]);
      } else if (action < 8) {
        stack.pop_back();
      } else {
        stack[rng.Below(stack.size())] = pool[rng.Below(pool.size())];
      }

      const CheckResult with_reuse = incremental.CheckUnderAssumptions(stack);
      const CheckResult without_reuse = non_incremental.CheckUnderAssumptions(stack);
      SmtSolver fresh(ctx);
      for (const SmtRef& constraint : hard) {
        fresh.Assert(constraint);
      }
      const CheckResult ground_truth = fresh.CheckUnderAssumptions(stack);
      ASSERT_EQ(with_reuse, ground_truth) << "round " << round << " step " << step;
      ASSERT_EQ(without_reuse, ground_truth) << "round " << round << " step " << step;
      if (ground_truth == CheckResult::kSat) {
        std::vector<SmtRef> all = hard;
        all.insert(all.end(), stack.begin(), stack.end());
        ExpectModelSatisfies(ctx, incremental.ExtractModel(), all);
        ExpectModelSatisfies(ctx, non_incremental.ExtractModel(), all);
        ExpectModelSatisfies(ctx, fresh.ExtractModel(), all);
      }
    }
  }
}

// Growing an assumption stack one literal at a time is the trail-reuse
// sweet spot: each solve extends the previous one, so the shared prefix
// must be retained (nonzero reuse counters). With reuse off, the counters
// stay zero and the verdicts are unchanged.
TEST(SmtIncrementalTest, StackGrowthReusesPrefixOnlyWhenEnabled) {
  for (const bool enabled : {true, false}) {
    SmtContext ctx;
    const SmtRef x = ctx.Var("x", 8);
    const SmtRef y = ctx.Var("y", 8);
    const SmtRef z = ctx.Var("z", 8);
    SmtSolver solver(ctx);
    solver.set_incremental(enabled);
    solver.Assert(ctx.Ult(ctx.Add(x, y), ctx.Const(8, 250)));

    const std::vector<SmtRef> full_stack = {ctx.Eq(x, ctx.Const(8, 3)),
                                            ctx.Eq(y, ctx.Const(8, 5)),
                                            ctx.Eq(z, ctx.Const(8, 7))};
    // First sweep encodes each assumption lazily; encoding adds clauses,
    // which (soundly) invalidates the retained trail. The second sweep over
    // fully encoded literals is where reuse must fire.
    uint64_t reused = 0;
    for (int sweep = 0; sweep < 2; ++sweep) {
      std::vector<SmtRef> stack;
      reused = 0;
      for (const SmtRef& assumption : full_stack) {
        stack.push_back(assumption);
        ASSERT_EQ(solver.CheckUnderAssumptions(stack), CheckResult::kSat);
        reused += solver.last_solve().prefix_reused_lits;
      }
    }

    if (enabled) {
      EXPECT_GT(reused, 0u);
    } else {
      EXPECT_EQ(reused, 0u);
    }
    const SmtModel model = solver.ExtractModel();
    EXPECT_EQ(model.BitOf("x").bits(), 3u);
    EXPECT_EQ(model.BitOf("y").bits(), 5u);
    EXPECT_EQ(model.BitOf("z").bits(), 7u);
  }
}

// The testgen probing shape distilled: a chain of 16-bit variables, each
// defined from its predecessor through a full 16x16 multiplier, with two
// candidate pinning equalities per depth. A depth-first walk pushes one
// literal, solves, and recurses while satisfiable, so every probe extends
// a long shared prefix whose multiplier cones are costly to re-propagate.
struct DfsProbeWork {
  std::vector<CheckResult> verdicts;
  uint64_t propagations = 0;
  uint64_t prefix_reused_lits = 0;
  uint64_t propagations_saved = 0;
};

using DfsChoices = std::vector<std::pair<SmtRef, SmtRef>>;

void ProbeDfs(SmtSolver& solver, const DfsChoices& choices, size_t depth,
              std::vector<SmtRef>& stack, DfsProbeWork& work) {
  if (depth == choices.size()) {
    return;
  }
  for (const bool first : {true, false}) {
    stack.push_back(first ? choices[depth].first : choices[depth].second);
    const CheckResult result = solver.CheckUnderAssumptions(stack);
    const SolveStats& stats = solver.last_solve();
    work.verdicts.push_back(result);
    work.propagations += stats.propagations;
    work.prefix_reused_lits += stats.prefix_reused_lits;
    work.propagations_saved += stats.propagations_saved;
    if (result == CheckResult::kSat) {
      ProbeDfs(solver, choices, depth + 1, stack, work);
    }
    stack.pop_back();
  }
}

// One warm-up walk, then one measured walk on the same solver. The warm-up
// encodes every literal: first-time bit-blasting adds clauses, which
// soundly invalidates a retained trail.
DfsProbeWork MeasureDfsProbing(bool incremental) {
  constexpr int kDepth = 6;
  SmtContext ctx;
  std::vector<SmtRef> vars;
  for (int i = 0; i < kDepth; ++i) {
    vars.push_back(ctx.Var("chain" + std::to_string(i), 16));
  }
  DfsChoices choices;
  choices.emplace_back(ctx.Eq(vars[0], ctx.Const(16, 11)), ctx.Eq(vars[0], ctx.Const(16, 12)));
  for (int i = 1; i < kDepth; ++i) {
    const SmtRef defined = ctx.Add(ctx.Mul(vars[i - 1], vars[i - 1]),
                                   ctx.Const(16, 7 + static_cast<uint64_t>(i)));
    choices.emplace_back(ctx.Eq(vars[i], defined),
                         ctx.Eq(vars[i], ctx.Add(defined, ctx.Const(16, 1))));
  }
  SmtSolver solver(ctx);
  solver.set_incremental(incremental);
  std::vector<SmtRef> stack;
  DfsProbeWork warm_up;
  ProbeDfs(solver, choices, 0, stack, warm_up);
  DfsProbeWork measured;
  ProbeDfs(solver, choices, 0, stack, measured);
  return measured;
}

// Trail reuse changes work, never verdicts: it skips exactly the
// propagations the walk without reuse repeats, so the reuse walk's
// propagations plus the ones it saved equal the walk without reuse. This
// is the exact form of the incremental solver's speedup on test
// generation's probing.
TEST(SmtIncrementalTest, DfsProbingReuseSavesExactlyTheRepeatedPropagations) {
  const DfsProbeWork on = MeasureDfsProbing(true);
  const DfsProbeWork off = MeasureDfsProbing(false);
  EXPECT_EQ(on.verdicts.size(), 126u);  // 2 + 4 + ... + 64: every probe is sat
  EXPECT_EQ(on.verdicts, off.verdicts);
  EXPECT_GT(on.prefix_reused_lits, 0u);
  EXPECT_GT(on.propagations_saved, 0u);
  EXPECT_EQ(off.prefix_reused_lits, 0u);
  EXPECT_EQ(off.propagations_saved, 0u);
  EXPECT_EQ(on.propagations + on.propagations_saved, off.propagations);
}

// The model is a snapshot of the most recent *satisfiable* solve: a later
// unsat assumption probe (testgen's infeasible-branch probes, the greedy
// preference pass's rejections) must not corrupt it.
TEST(SmtIncrementalTest, ModelSurvivesLaterUnsatSolve) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Ult(x, ctx.Const(8, 10)));
  ASSERT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 7))}), CheckResult::kSat);
  ASSERT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 200))}),
            CheckResult::kUnsat);
  // The snapshot still reflects the satisfiable solve, not the rewound
  // trail of the unsat probe.
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 7u);
}

// Reading a model when no solve ever succeeded is a bug in the caller and
// must fail loudly, not silently return all-zero values.
TEST(SmtIncrementalTest, ExtractModelWithoutSatisfiableCheckFailsLoudly) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(x, ctx.Const(8, 1)));
  solver.Assert(ctx.Eq(x, ctx.Const(8, 2)));
  ASSERT_EQ(solver.Check(), CheckResult::kUnsat);
  EXPECT_THROW(solver.ExtractModel(), CompilerBugError);
}

// Per-solve stats are baselined at every Solve entry (the PR 6 telemetry
// contract): a trivially unsat assumption solve right after a non-trivial
// satisfiable one must report zero work of its own, not inherit the
// previous solve's counters.
TEST(SmtIncrementalTest, TriviallyUnsatAssumptionSolveReportsZeroWork) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef y = ctx.Var("y", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Mul(x, y), ctx.Const(8, 35)));
  solver.Assert(ctx.Eq(x, ctx.Const(8, 5)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);  // does real search work

  // x is pinned to 5 at decision level zero, so this assumption is already
  // false before any decision. Solve it twice: the second call re-solves a
  // fully encoded, fully propagated instance and must report zero for
  // every per-solve counter.
  const std::vector<SmtRef> contradiction = {ctx.Eq(x, ctx.Const(8, 6))};
  ASSERT_EQ(solver.CheckUnderAssumptions(contradiction), CheckResult::kUnsat);
  ASSERT_EQ(solver.CheckUnderAssumptions(contradiction), CheckResult::kUnsat);
  const SolveStats& stats = solver.last_solve();
  EXPECT_EQ(stats.conflicts, 0u);
  EXPECT_EQ(stats.decisions, 0u);
  EXPECT_EQ(stats.propagations, 0u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.prefix_reused_lits, 0u);
  EXPECT_EQ(stats.propagations_saved, 0u);
}

// The greedy preference pass reports which preferences it kept; the set is
// determined by per-subset satisfiability alone, so it is the same with
// trail reuse on or off.
TEST(SmtIncrementalTest, PreferenceAcceptanceIsModeIndependent) {
  for (const bool enabled : {true, false}) {
    SmtContext ctx;
    const SmtRef x = ctx.Var("x", 8);
    const SmtRef y = ctx.Var("y", 8);
    SmtSolver solver(ctx);
    solver.set_incremental(enabled);
    solver.Assert(ctx.Eq(ctx.Add(x, y), ctx.Const(8, 10)));
    const std::vector<SmtRef> preferences = {
        ctx.BoolNot(ctx.Eq(x, ctx.Const(8, 0))),  // acceptable
        ctx.Eq(x, ctx.Const(8, 0)),               // contradicts the first: dropped
        ctx.BoolNot(ctx.Eq(y, ctx.Const(8, 0))),  // acceptable
    };
    std::vector<size_t> accepted;
    ASSERT_EQ(solver.CheckWithPreferences(preferences, {}, &accepted), CheckResult::kSat);
    EXPECT_EQ(accepted, (std::vector<size_t>{0, 2}));
    const SmtModel model = solver.ExtractModel();
    EXPECT_NE(model.BitOf("x").bits(), 0u);
    EXPECT_NE(model.BitOf("y").bits(), 0u);
  }
}

// A brand-new solver's verdict on `hard` plus `assumptions`.
CheckResult FreshVerdict(SmtContext& ctx, const std::vector<SmtRef>& hard,
                         const std::vector<SmtRef>& assumptions) {
  SmtSolver fresh(ctx);
  for (const SmtRef& constraint : hard) {
    fresh.Assert(constraint);
  }
  return fresh.CheckUnderAssumptions(assumptions);
}

// The sequential greedy scan CheckWithPreferences must reproduce, with one
// brand-new solver per prefix: preference i is kept iff it is satisfiable
// together with the hard constraints, the assumptions and every preference
// kept before it.
std::vector<size_t> SequentialPreferenceScan(SmtContext& ctx, const std::vector<SmtRef>& hard,
                                             const std::vector<SmtRef>& assumptions,
                                             const std::vector<SmtRef>& preferences) {
  std::vector<SmtRef> kept = assumptions;
  std::vector<size_t> accepted;
  for (size_t i = 0; i < preferences.size(); ++i) {
    kept.push_back(preferences[i]);
    if (FreshVerdict(ctx, hard, kept) == CheckResult::kSat) {
      accepted.push_back(i);
    } else {
      kept.pop_back();
    }
  }
  return accepted;
}

// The core-guided preference search against the sequential reference, on
// random instances whose preference lists repeat earlier preferences,
// negate them, restate path assumptions, and wrap fresh gates (x + 1 == c)
// that are blasted only after the base solve. The kept indices must match
// exactly, and the final model must satisfy the assumptions and every kept
// preference. One solver per mode serves all of a round's calls, so models,
// learned clauses and retained trails carry over between them.
TEST(SmtIncrementalTest, PreferenceSearchMatchesSequentialScan) {
  for (const bool enabled : {true, false}) {
    Rng rng(20261017);
    size_t rejected = 0;
    for (int round = 0; round < 12; ++round) {
      SmtContext ctx;
      constexpr uint32_t kWidth = 4;
      std::vector<SmtRef> vars;
      for (int v = 0; v < 3; ++v) {
        vars.push_back(ctx.Var("v" + std::to_string(v), kWidth));
      }
      const std::vector<SmtRef> hard = {
          ctx.Ult(ctx.Add(vars[0], vars[1]), ctx.Const(kWidth, 12)),
          ctx.BoolNot(ctx.Eq(vars[2], vars[0]))};
      SmtSolver solver(ctx);
      solver.set_incremental(enabled);
      for (const SmtRef& constraint : hard) {
        solver.Assert(constraint);
      }
      const auto random_atom = [&]() -> SmtRef {
        const SmtRef var = vars[rng.Below(vars.size())];
        const SmtRef constant = ctx.Const(kWidth, rng.Below(16));
        switch (rng.Below(4)) {
          case 0:
            return ctx.Eq(var, constant);
          case 1:
            return ctx.Ult(var, constant);
          case 2:
            return ctx.BoolNot(ctx.Eq(ctx.Add(var, ctx.Const(kWidth, 1)), constant));
          default:
            return ctx.BoolNot(ctx.Eq(var, vars[rng.Below(vars.size())]));
        }
      };

      for (int call = 0; call < 6; ++call) {
        std::vector<SmtRef> assumptions;
        const uint64_t num_assumptions = rng.Below(3);
        for (uint64_t i = 0; i < num_assumptions; ++i) {
          assumptions.push_back(random_atom());
        }
        std::vector<SmtRef> preferences;
        const uint64_t num_preferences = 4 + rng.Below(20);
        while (preferences.size() < num_preferences) {
          const uint64_t kind = rng.Below(10);
          if (kind == 0 && !preferences.empty()) {
            preferences.push_back(preferences[rng.Below(preferences.size())]);
          } else if (kind == 1 && !preferences.empty()) {
            preferences.push_back(ctx.BoolNot(preferences[rng.Below(preferences.size())]));
          } else if (kind == 2 && !assumptions.empty()) {
            preferences.push_back(assumptions[rng.Below(assumptions.size())]);
          } else {
            preferences.push_back(random_atom());
          }
        }

        std::vector<size_t> accepted;
        const CheckResult result = solver.CheckWithPreferences(preferences, assumptions, &accepted);
        ASSERT_EQ(result, FreshVerdict(ctx, hard, assumptions))
            << "round " << round << " call " << call;
        if (result != CheckResult::kSat) {
          EXPECT_TRUE(accepted.empty());
          continue;
        }
        ASSERT_EQ(accepted, SequentialPreferenceScan(ctx, hard, assumptions, preferences))
            << "round " << round << " call " << call;
        std::vector<SmtRef> kept = hard;
        kept.insert(kept.end(), assumptions.begin(), assumptions.end());
        for (const size_t index : accepted) {
          kept.push_back(preferences[index]);
        }
        ExpectModelSatisfies(ctx, solver.ExtractModel(), kept);
        rejected += preferences.size() - accepted.size();
      }
    }
    EXPECT_GT(rejected, 50u);
  }
}

// Preference gates are blasted after the base solve, so the base model has
// no value for them and ValueOf reads false. Read naively, Not(x + 1 == 6)
// looks satisfied by that model (its gate "is false") and would be kept;
// under x == 5 it must be rejected and the model must keep x == 5.
TEST(SmtIncrementalTest, PreferenceOverAGateNewerThanTheModelIsSolvedFor) {
  for (const bool enabled : {true, false}) {
    SmtContext ctx;
    const SmtRef x = ctx.Var("x", 8);
    SmtSolver solver(ctx);
    solver.set_incremental(enabled);
    solver.Assert(ctx.Eq(x, ctx.Const(8, 5)));
    const std::vector<SmtRef> preferences = {
        ctx.BoolNot(ctx.Eq(ctx.Add(x, ctx.Const(8, 1)), ctx.Const(8, 6)))};
    std::vector<size_t> accepted;
    ASSERT_EQ(solver.CheckWithPreferences(preferences, {}, &accepted), CheckResult::kSat);
    EXPECT_TRUE(accepted.empty());
    EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 5u);
  }
}

// Asserting a new constraint invalidates any retained trail (the clause
// may falsify it); subsequent solves must still be correct.
TEST(SmtIncrementalTest, AssertAfterAssumptionSolvesStaysSound) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Ult(x, ctx.Const(8, 100)));
  ASSERT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 42))}), CheckResult::kSat);
  // The new clause contradicts the retained assumption trail (x == 42).
  solver.Assert(ctx.BoolNot(ctx.Eq(x, ctx.Const(8, 42))));
  EXPECT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 42))}), CheckResult::kUnsat);
  ASSERT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 41))}), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 41u);
}

}  // namespace
}  // namespace gauntlet
