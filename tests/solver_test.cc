#include <gtest/gtest.h>

#include "src/smt/solver.h"
#include "src/support/rng.h"

namespace gauntlet {
namespace {

TEST(SmtSolverTest, SimpleEqualityIsSatWithCorrectModel) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(x, ctx.Const(8, 42)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 42u);
}

TEST(SmtSolverTest, ContradictionIsUnsat) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(x, ctx.Const(8, 1)));
  solver.Assert(ctx.Eq(x, ctx.Const(8, 2)));
  EXPECT_EQ(solver.Check(), CheckResult::kUnsat);
}

TEST(SmtSolverTest, AdditionOverflowModel) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  // x + 1 == 0 forces x == 255 (wrap-around).
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Add(x, ctx.Const(8, 1)), ctx.Const(8, 0)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 255u);
}

TEST(SmtSolverTest, SubtractionInverse) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 16);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Sub(ctx.Const(16, 100), x), ctx.Const(16, 200)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), (100u - 200u) & 0xffffu);
}

TEST(SmtSolverTest, MultiplicationFactoring) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef y = ctx.Var("y", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Mul(x, y), ctx.Const(8, 35)));
  solver.Assert(ctx.Ult(ctx.Const(8, 1), x));
  solver.Assert(ctx.Ult(x, ctx.Const(8, 35)));
  solver.Assert(ctx.Ult(ctx.Const(8, 1), y));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  const SmtModel model = solver.ExtractModel();
  const uint64_t product = (model.BitOf("x").bits() * model.BitOf("y").bits()) & 0xff;
  EXPECT_EQ(product, 35u);
}

TEST(SmtSolverTest, VariableShiftSemantics) {
  SmtContext ctx;
  const SmtRef amount = ctx.Var("amount", 8);
  // (0xff << amount) == 0 requires amount >= 8 under P4 semantics.
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Shl(ctx.Const(8, 0xff), amount), ctx.Const(8, 0)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_GE(solver.ExtractModel().BitOf("amount").bits(), 8u);
}

TEST(SmtSolverTest, ExtractConstraint) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 16);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Extract(x, 15, 8), ctx.Const(8, 0xab)));
  solver.Assert(ctx.Eq(ctx.Extract(x, 7, 0), ctx.Const(8, 0xcd)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 0xabcdu);
}

TEST(SmtSolverTest, ConcatConstraint) {
  SmtContext ctx;
  const SmtRef hi = ctx.Var("hi", 4);
  const SmtRef lo = ctx.Var("lo", 4);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Concat(hi, lo), ctx.Const(8, 0x5a)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  const SmtModel model = solver.ExtractModel();
  EXPECT_EQ(model.BitOf("hi").bits(), 0x5u);
  EXPECT_EQ(model.BitOf("lo").bits(), 0xau);
}

TEST(SmtSolverTest, BoolVariables) {
  SmtContext ctx;
  const SmtRef p = ctx.BoolVar("p");
  const SmtRef q = ctx.BoolVar("q");
  SmtSolver solver(ctx);
  solver.Assert(ctx.BoolAnd(p, ctx.BoolNot(q)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  const SmtModel model = solver.ExtractModel();
  EXPECT_TRUE(model.BoolOf("p"));
  EXPECT_FALSE(model.BoolOf("q"));
}

TEST(SmtSolverTest, IteBranchSelection) {
  SmtContext ctx;
  const SmtRef cond = ctx.BoolVar("cond");
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef result = ctx.Ite(cond, ctx.Add(x, ctx.Const(8, 1)), ctx.Sub(x, ctx.Const(8, 1)));
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(result, ctx.Const(8, 10)));
  solver.Assert(ctx.Eq(x, ctx.Const(8, 9)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_TRUE(solver.ExtractModel().BoolOf("cond"));
}

TEST(SmtSolverTest, UnsignedComparisonChain) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Ult(ctx.Const(8, 250), x));
  solver.Assert(ctx.Ult(x, ctx.Const(8, 252)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 251u);
}

TEST(SmtSolverTest, EquivalenceOfRewrittenExpressions) {
  // (x + x) must equal (x * 2) for all x: the *negation* is unsat.
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef doubled = ctx.Add(x, x);
  const SmtRef multiplied = ctx.Mul(x, ctx.Const(8, 2));
  SmtSolver solver(ctx);
  solver.Assert(ctx.BoolNot(ctx.Eq(doubled, multiplied)));
  EXPECT_EQ(solver.Check(), CheckResult::kUnsat);
}

TEST(SmtSolverTest, OperandsWithTheSameBitsShareOneCircuit) {
  // A slice-built operand and its mask-and-or rewrite are different
  // expressions that blast to the same literals. Structural hashing lowers
  // both multiplies to one circuit, so the miter is refuted without a single
  // conflict; two separate 16-bit multipliers would exhaust the budget.
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 16);
  const SmtRef y = ctx.Var("y", 16);
  const SmtRef sliced = ctx.Concat(ctx.Extract(x, 15, 8), ctx.Extract(x, 7, 0));
  const SmtRef masked =
      ctx.Or(ctx.And(x, ctx.Const(16, 0xff00)), ctx.And(x, ctx.Const(16, 0x00ff)));
  SmtSolver solver(ctx);
  solver.set_conflict_limit(1000);
  solver.Assert(ctx.BoolNot(ctx.Eq(ctx.Mul(sliced, y), ctx.Mul(masked, y))));
  EXPECT_EQ(solver.Check(), CheckResult::kUnsat);
  EXPECT_EQ(solver.last_conflicts(), 0u);
}

TEST(SmtSolverTest, InequivalenceProducesWitness) {
  // x + 1 != x - 1 everywhere except... nowhere (always differs by 2, but
  // at width 1 they coincide!). Checks witness extraction at width 8.
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.BoolNot(
      ctx.Eq(ctx.Add(x, ctx.Const(8, 1)), ctx.Sub(x, ctx.Const(8, 1)))));
  EXPECT_EQ(solver.Check(), CheckResult::kSat);

  // At width 1, +1 and -1 are the same operation: the negation is unsat.
  SmtContext ctx1;
  const SmtRef y = ctx1.Var("y", 1);
  SmtSolver solver1(ctx1);
  solver1.Assert(ctx1.BoolNot(
      ctx1.Eq(ctx1.Add(y, ctx1.Const(1, 1)), ctx1.Sub(y, ctx1.Const(1, 1)))));
  EXPECT_EQ(solver1.Check(), CheckResult::kUnsat);
}

TEST(SmtSolverTest, PreferencesSteerTowardNonZero) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef y = ctx.Var("y", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Add(x, y), ctx.Const(8, 10)));
  // Prefer both inputs non-zero (the paper's BMv2 zero-initialization
  // masking problem, section 6.2).
  const std::vector<SmtRef> preferences = {
      ctx.BoolNot(ctx.Eq(x, ctx.Const(8, 0))),
      ctx.BoolNot(ctx.Eq(y, ctx.Const(8, 0))),
  };
  ASSERT_EQ(solver.CheckWithPreferences(preferences), CheckResult::kSat);
  const SmtModel model = solver.ExtractModel();
  EXPECT_NE(model.BitOf("x").bits(), 0u);
  EXPECT_NE(model.BitOf("y").bits(), 0u);
  EXPECT_EQ((model.BitOf("x").bits() + model.BitOf("y").bits()) & 0xff, 10u);
}

TEST(SmtSolverTest, UnsatisfiablePreferencesAreDropped) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(x, ctx.Const(8, 0)));
  const std::vector<SmtRef> preferences = {ctx.BoolNot(ctx.Eq(x, ctx.Const(8, 0)))};
  ASSERT_EQ(solver.CheckWithPreferences(preferences), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 0u);
}

// Differential fuzz: random expression pairs evaluated concretely must agree
// with the solver's verdict. This is the SMT layer's own translation
// validation.
TEST(SmtSolverTest, RandomConstantExpressionsAgreeWithConcreteEvaluation) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    SmtContext ctx;
    const uint32_t width = static_cast<uint32_t>(rng.Range(1, 16));
    const uint64_t a = rng.Below(1ull << width);
    const uint64_t b = rng.Below(1ull << width);
    const SmtRef x = ctx.Var("x", width);
    const BitValue bv_a(width, a);
    const BitValue bv_b(width, b);
    SmtRef expr;
    BitValue expected(1, 0);
    switch (rng.Below(8)) {
      case 0:
        expr = ctx.Add(x, ctx.Const(width, b));
        expected = bv_a.Add(bv_b);
        break;
      case 1:
        expr = ctx.Sub(x, ctx.Const(width, b));
        expected = bv_a.Sub(bv_b);
        break;
      case 2:
        expr = ctx.Xor(x, ctx.Const(width, b));
        expected = bv_a.Xor(bv_b);
        break;
      case 3:
        expr = ctx.And(x, ctx.Const(width, b));
        expected = bv_a.And(bv_b);
        break;
      case 4:
        expr = ctx.Or(x, ctx.Const(width, b));
        expected = bv_a.Or(bv_b);
        break;
      case 5:
        expr = ctx.Mul(x, ctx.Const(width, b));
        expected = bv_a.Mul(bv_b);
        break;
      case 6:
        expr = ctx.Shl(x, ctx.Const(width, b % (width + 2)));
        expected = bv_a.Shl(BitValue(width, b % (width + 2)));
        break;
      default:
        expr = ctx.Shr(x, ctx.Const(width, b % (width + 2)));
        expected = bv_a.Shr(BitValue(width, b % (width + 2)));
        break;
    }
    // With x == a, the expression must equal exactly the concrete value.
    SmtSolver equal_probe(ctx);
    equal_probe.Assert(ctx.Eq(x, ctx.Const(width, a)));
    equal_probe.Assert(ctx.Eq(expr, ctx.Const(width, expected.bits())));
    EXPECT_EQ(equal_probe.Check(), CheckResult::kSat);

    SmtSolver unequal_probe(ctx);
    unequal_probe.Assert(ctx.Eq(x, ctx.Const(width, a)));
    unequal_probe.Assert(ctx.BoolNot(ctx.Eq(expr, ctx.Const(width, expected.bits()))));
    EXPECT_EQ(unequal_probe.Check(), CheckResult::kUnsat);
  }
}

TEST(SmtSolverTest, CheckUnderAssumptionsIsTransient) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Ult(x, ctx.Const(8, 10)));
  ASSERT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 7))}), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 7u);
  // Contradicting assumption: unsat for this call only.
  ASSERT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 200))}),
            CheckResult::kUnsat);
  EXPECT_EQ(solver.Check(), CheckResult::kSat);
  ASSERT_EQ(solver.CheckUnderAssumptions({ctx.Eq(x, ctx.Const(8, 3))}), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 3u);
}

TEST(SmtSolverTest, AssertAfterCheckIsIncremental) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef y = ctx.Var("y", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Add(x, y), ctx.Const(8, 20)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  solver.Assert(ctx.Eq(x, ctx.Const(8, 5)));
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  const SmtModel model = solver.ExtractModel();
  EXPECT_EQ(model.BitOf("x").bits(), 5u);
  EXPECT_EQ(model.BitOf("y").bits(), 15u);
  solver.Assert(ctx.Eq(y, ctx.Const(8, 99)));
  EXPECT_EQ(solver.Check(), CheckResult::kUnsat);
}

TEST(SmtSolverTest, PreferencesComposeWithAssumptions) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef y = ctx.Var("y", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Eq(ctx.Add(x, y), ctx.Const(8, 50)));
  // Assumption pins x; preferences ask for non-zero x (unachievable) and
  // non-zero y (achievable).
  const std::vector<SmtRef> preferences = {
      ctx.BoolNot(ctx.Eq(x, ctx.Const(8, 0))),
      ctx.BoolNot(ctx.Eq(y, ctx.Const(8, 0))),
  };
  ASSERT_EQ(solver.CheckWithPreferences(preferences, {ctx.Eq(x, ctx.Const(8, 0))}),
            CheckResult::kSat);
  const SmtModel model = solver.ExtractModel();
  EXPECT_EQ(model.BitOf("x").bits(), 0u);
  EXPECT_EQ(model.BitOf("y").bits(), 50u);
}

TEST(SmtSolverTest, RejectedPreferenceDoesNotClobberModel) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  SmtSolver solver(ctx);
  solver.Assert(ctx.Ult(x, ctx.Const(8, 4)));
  // First preference satisfiable (x==2), second contradicts the first but
  // would be satisfiable alone (x==3): greedy keeps only the first.
  const std::vector<SmtRef> preferences = {
      ctx.Eq(x, ctx.Const(8, 2)),
      ctx.Eq(x, ctx.Const(8, 3)),
  };
  ASSERT_EQ(solver.CheckWithPreferences(preferences), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 2u);
}

TEST(SmtSolverTest, TimeLimitYieldsUnknownOnHardEquivalence) {
  // Proving 24-bit multiplication commutative is far beyond a 1ms budget.
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 24);
  const SmtRef y = ctx.Var("y", 24);
  SmtSolver solver(ctx);
  solver.set_time_limit_ms(1);
  solver.Assert(ctx.BoolNot(ctx.Eq(ctx.Mul(x, y), ctx.Mul(y, x))));
  EXPECT_EQ(solver.Check(), CheckResult::kUnknown);
}

}  // namespace
}  // namespace gauntlet
