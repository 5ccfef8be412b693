#include <gtest/gtest.h>

#include "src/smt/expr.h"

namespace gauntlet {
namespace {

TEST(SmtContextTest, HashConsingSharesIdenticalNodes) {
  SmtContext ctx;
  const SmtRef a = ctx.Var("x", 8);
  const SmtRef one = ctx.Const(8, 1);
  const SmtRef sum1 = ctx.Add(a, one);
  const SmtRef sum2 = ctx.Add(a, one);
  EXPECT_EQ(sum1, sum2);
}

TEST(SmtContextTest, VarLookupByName) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  EXPECT_EQ(ctx.FindVar("x"), x);
  EXPECT_FALSE(ctx.FindVar("missing").IsValid());
}

TEST(SmtContextTest, VarWidthConflictIsBug) {
  SmtContext ctx;
  ctx.Var("x", 8);
  EXPECT_THROW(ctx.Var("x", 16), CompilerBugError);
  EXPECT_THROW(ctx.BoolVar("x"), CompilerBugError);
}

TEST(SmtContextTest, ConstantFoldingArithmetic) {
  SmtContext ctx;
  const SmtRef folded = ctx.Add(ctx.Const(8, 200), ctx.Const(8, 100));
  EXPECT_TRUE(ctx.IsConst(folded));
  EXPECT_EQ(ctx.ConstBits(folded), 44u);

  const SmtRef mul = ctx.Mul(ctx.Const(8, 16), ctx.Const(8, 16));
  EXPECT_EQ(ctx.ConstBits(mul), 0u);
}

TEST(SmtContextTest, IdentitySimplifications) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  EXPECT_EQ(ctx.Add(x, ctx.Const(8, 0)), x);
  EXPECT_EQ(ctx.Sub(x, ctx.Const(8, 0)), x);
  EXPECT_EQ(ctx.Mul(x, ctx.Const(8, 1)), x);
  EXPECT_EQ(ctx.And(x, ctx.Const(8, 0xff)), x);
  EXPECT_EQ(ctx.Or(x, ctx.Const(8, 0)), x);
  EXPECT_EQ(ctx.Xor(x, ctx.Const(8, 0)), x);
  EXPECT_EQ(ctx.Shl(x, ctx.Const(8, 0)), x);
}

TEST(SmtContextTest, AnnihilatorSimplifications) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef zero = ctx.Const(8, 0);
  EXPECT_EQ(ctx.And(x, zero), zero);
  EXPECT_EQ(ctx.Mul(x, zero), zero);
  EXPECT_EQ(ctx.Sub(x, x), zero);
  EXPECT_EQ(ctx.Xor(x, x), zero);
}

TEST(SmtContextTest, EqOnSameRefIsTrue) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef eq = ctx.Eq(x, x);
  EXPECT_TRUE(ctx.IsConst(eq));
  EXPECT_EQ(ctx.ConstBits(eq), 1u);
}

TEST(SmtContextTest, IteCollapsesOnConstCondition) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef y = ctx.Var("y", 8);
  EXPECT_EQ(ctx.Ite(ctx.True(), x, y), x);
  EXPECT_EQ(ctx.Ite(ctx.False(), x, y), y);
  EXPECT_EQ(ctx.Ite(ctx.BoolVar("c"), x, x), x);
}

TEST(SmtContextTest, ExtractOfExtractComposes) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 16);
  const SmtRef outer = ctx.Extract(ctx.Extract(x, 11, 4), 5, 2);
  const SmtRef direct = ctx.Extract(x, 9, 6);
  EXPECT_EQ(outer, direct);
}

TEST(SmtContextTest, ExtractFullWidthIsIdentity) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  EXPECT_EQ(ctx.Extract(x, 7, 0), x);
}

TEST(SmtContextTest, ConcatOfConstantsFolds) {
  SmtContext ctx;
  const SmtRef result = ctx.Concat(ctx.Const(4, 0xa), ctx.Const(4, 0x5));
  EXPECT_TRUE(ctx.IsConst(result));
  EXPECT_EQ(ctx.ConstBits(result), 0xa5u);
  EXPECT_EQ(ctx.WidthOf(result), 8u);
}

TEST(SmtContextTest, ResizeZeroExtendsAndTruncates) {
  SmtContext ctx;
  const SmtRef c = ctx.Const(8, 0xff);
  EXPECT_EQ(ctx.ConstBits(ctx.Resize(c, 4)), 0xfu);
  EXPECT_EQ(ctx.ConstBits(ctx.Resize(c, 16)), 0xffu);
  EXPECT_EQ(ctx.Resize(c, 8), c);
}

TEST(SmtContextTest, BoolSimplifications) {
  SmtContext ctx;
  const SmtRef p = ctx.BoolVar("p");
  EXPECT_EQ(ctx.BoolAnd(p, ctx.True()), p);
  EXPECT_EQ(ctx.BoolAnd(p, ctx.False()), ctx.False());
  EXPECT_EQ(ctx.BoolOr(p, ctx.False()), p);
  EXPECT_EQ(ctx.BoolOr(p, ctx.True()), ctx.True());
  EXPECT_EQ(ctx.BoolNot(ctx.BoolNot(p)), p);
  EXPECT_EQ(ctx.BoolEq(p, ctx.True()), p);
}

TEST(SmtContextTest, ShiftSemanticsMatchP4) {
  SmtContext ctx;
  // Shift amount >= width folds to zero.
  const SmtRef shifted = ctx.Shl(ctx.Const(8, 0xff), ctx.Const(8, 9));
  EXPECT_TRUE(ctx.IsConst(shifted));
  EXPECT_EQ(ctx.ConstBits(shifted), 0u);
}

TEST(SmtContextTest, UltUleConstantFolding) {
  SmtContext ctx;
  EXPECT_EQ(ctx.ConstBits(ctx.Ult(ctx.Const(8, 3), ctx.Const(8, 5))), 1u);
  EXPECT_EQ(ctx.ConstBits(ctx.Ult(ctx.Const(8, 5), ctx.Const(8, 5))), 0u);
  EXPECT_EQ(ctx.ConstBits(ctx.Ule(ctx.Const(8, 5), ctx.Const(8, 5))), 1u);
  const SmtRef x = ctx.Var("x", 8);
  EXPECT_EQ(ctx.Ult(x, x), ctx.False());
  EXPECT_EQ(ctx.Ule(x, x), ctx.True());
}

TEST(SmtContextTest, ToStringRendersSExpressions) {
  SmtContext ctx;
  const SmtRef expr = ctx.Add(ctx.Var("x", 8), ctx.Const(8, 3));
  EXPECT_EQ(ctx.ToString(expr), "(bvadd x 8w3)");
}

TEST(SmtContextTest, RebuildGoesThroughTheConstructors) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 8);
  const SmtRef y = ctx.Var("y", 8);
  const SmtRef c = ctx.BoolVar("c");
  const SmtRef sub = ctx.Sub(x, y);
  EXPECT_EQ(ctx.Rebuild(sub, {x, y}), sub);           // unchanged arguments
  EXPECT_EQ(ctx.Rebuild(sub, {x, x}), ctx.Const(8, 0));  // x - x folds
  EXPECT_EQ(ctx.Rebuild(ctx.Ite(c, x, y), {c, y, y}), y);
  EXPECT_EQ(ctx.Rebuild(ctx.Extract(x, 6, 2), {ctx.Extract(y, 7, 1)}), ctx.Extract(y, 7, 3));
  EXPECT_EQ(ctx.Rebuild(ctx.Zext(x, 16), {y}), ctx.Zext(y, 16));
  EXPECT_EQ(ctx.Rebuild(x, {}), x);
  EXPECT_THROW(ctx.Rebuild(sub, {x}), CompilerBugError);
}

TEST(SmtContextTest, WidthMismatchIsBug) {
  SmtContext ctx;
  EXPECT_THROW(ctx.Add(ctx.Var("a", 8), ctx.Var("b", 16)), CompilerBugError);
  EXPECT_THROW(ctx.Eq(ctx.Var("c", 8), ctx.Var("d", 4)), CompilerBugError);
}

}  // namespace
}  // namespace gauntlet
