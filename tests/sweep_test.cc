#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "src/frontend/parser.h"
#include "src/obs/metrics.h"
#include "src/passes/pass.h"
#include "src/smt/solver.h"
#include "src/smt/sweep.h"
#include "src/support/file_io.h"
#include "src/support/rng.h"
#include "src/tv/validator.h"

namespace gauntlet {
namespace {

// The shape Predication leaves behind: one side selects on a conjunction,
// the other nests the selects, and each result feeds a 12-bit multiply.
// Without sweeping, the SAT core must prove the two multipliers equal.
TEST(SweepTest, RestructuredOperandsOfAMultiplyCollapseToFalse) {
  SmtContext ctx;
  const SmtRef c = ctx.BoolVar("c");
  const SmtRef d = ctx.BoolVar("d");
  const SmtRef k = ctx.Const(12, 0x9d4);
  const SmtRef x = ctx.Var("x", 12);
  const SmtRef y = ctx.Var("y", 12);
  const SmtRef conjoined = ctx.Ite(ctx.BoolAnd(c, d), k, x);
  const SmtRef nested = ctx.Ite(c, ctx.Ite(d, k, x), x);
  const SmtRef miter = ctx.BoolNot(ctx.Eq(ctx.Mul(conjoined, y), ctx.Mul(nested, y)));
  ASSERT_FALSE(ctx.IsConst(miter));

  SweepStats stats;
  EXPECT_EQ(SweepMiter(ctx, miter, {}, &stats), ctx.False());
  EXPECT_GE(stats.merges, 1u);
  EXPECT_LE(stats.merges, stats.proofs);
}

// `x == 0xA5C3` reads false on every random pattern, so the sweep proposes
// merging it into the constant false. The proof finds the one input that
// tells them apart, and the node stays: the miter keeps its witness.
TEST(SweepTest, NodesThatAgreeOnEveryPatternButDifferOnOneInputAreNotMerged) {
  SmtContext ctx;
  const SmtRef x = ctx.Var("x", 16);
  const SmtRef miter = ctx.Eq(x, ctx.Const(16, 0xA5C3));

  SweepStats stats;
  const SmtRef swept = SweepMiter(ctx, miter, {}, &stats);
  EXPECT_EQ(swept, miter);
  EXPECT_EQ(stats.proofs, 1u);  // the constant candidate was proposed ...
  EXPECT_EQ(stats.merges, 0u);  // ... and refuted

  SmtSolver solver(ctx);
  solver.Assert(swept);
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  EXPECT_EQ(solver.ExtractModel().BitOf("x").bits(), 0xA5C3u);
}

TEST(SweepTest, SweepingTheSameMiterTwiceGivesTheSameResultAndCounters) {
  SmtContext ctx;
  const SmtRef c = ctx.BoolVar("c");
  const SmtRef d = ctx.BoolVar("d");
  const SmtRef x = ctx.Var("x", 12);
  const SmtRef y = ctx.Var("y", 12);
  const SmtRef k = ctx.Const(12, 0x3c1);
  const SmtRef left = ctx.Mul(ctx.Ite(ctx.BoolAnd(c, d), k, x), y);
  const SmtRef right = ctx.Mul(ctx.Ite(c, ctx.Ite(d, k, x), x), y);
  // A real difference next to the collapsible one: the swept miter is not
  // a constant, so its identity is what the comparison checks.
  const SmtRef miter = ctx.BoolOr(ctx.BoolNot(ctx.Eq(left, right)),
                                  ctx.Eq(x, ctx.Const(12, 0x5a5)));

  SweepStats first_stats;
  const SmtRef first = SweepMiter(ctx, miter, {}, &first_stats);
  SweepStats second_stats;
  const SmtRef second = SweepMiter(ctx, miter, {}, &second_stats);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, ctx.Eq(x, ctx.Const(12, 0x5a5)));
  EXPECT_EQ(first_stats.proofs, second_stats.proofs);
  EXPECT_EQ(first_stats.merges, second_stats.merges);
  EXPECT_EQ(first_stats.conflicts, second_stats.conflicts);
}

TEST(SweepTest, AnExhaustedConflictBudgetKeepsTheMiterUnmerged) {
  SmtContext ctx;
  const SmtRef c = ctx.BoolVar("c");
  const SmtRef x = ctx.Var("x", 4);
  const SmtRef y = ctx.Var("y", 4);
  const SmtRef miter = ctx.BoolNot(
      ctx.Eq(ctx.Mul(ctx.Ite(c, x, y), y), ctx.Mul(ctx.Ite(ctx.BoolNot(c), y, x), y)));

  // One conflict in total: a proof that needs search cannot finish, and a
  // node that is not proven is never merged.
  SweepStats stats;
  const SmtRef swept = SweepMiter(ctx, miter, {/*conflict_budget=*/1, 0}, &stats);
  EXPECT_LE(stats.conflicts, 1u);
  EXPECT_EQ(CheckSat(ctx, swept), CheckResult::kUnsat);
}

// Property: sweeping never changes a miter's Boolean function. Each round
// builds a random term twice, once as is and once through rewrites that
// keep its value (commuted operands, negated ite conditions, nested
// selects, a variable split into slices), sometimes adds a real difference
// on one input value, and sweeps the miter of the two. The swept miter must be
// equivalent to the original, and one without a difference must be false.
TEST(SweepTest, SweptMitersComputeTheSameFunction) {
  Rng rng(2028);
  for (int round = 0; round < 40; ++round) {
    SmtContext ctx;
    const uint32_t width = static_cast<uint32_t>(rng.Range(2, 5));
    const SmtRef x = ctx.Var("x", width);
    const SmtRef y = ctx.Var("y", width);
    const SmtRef c = ctx.BoolVar("c");
    const SmtRef d = ctx.BoolVar("d");
    const std::function<std::pair<SmtRef, SmtRef>(int)> build = [&](int depth) {
      if (depth == 0 || rng.Chance(20)) {
        switch (rng.Below(3)) {
          case 0:
            return std::make_pair(
                x, ctx.Concat(ctx.Extract(x, width - 1, 1), ctx.Extract(x, 0, 0)));
          case 1:
            return std::make_pair(y, y);
          default: {
            const SmtRef k = ctx.Const(width, rng.Next());
            return std::make_pair(k, k);
          }
        }
      }
      const auto [a, a_rewritten] = build(depth - 1);
      const auto [b, b_rewritten] = build(depth - 1);
      switch (rng.Below(5)) {
        case 0:
          return std::make_pair(ctx.Add(a, b), ctx.Add(b_rewritten, a_rewritten));
        case 1:
          return std::make_pair(ctx.Mul(a, b), ctx.Mul(b_rewritten, a_rewritten));
        case 2:
          return std::make_pair(ctx.Xor(a, b), ctx.Xor(b_rewritten, a_rewritten));
        case 3:
          return std::make_pair(ctx.Ite(c, a, b),
                                ctx.Ite(ctx.BoolNot(c), b_rewritten, a_rewritten));
        default:
          return std::make_pair(ctx.Ite(ctx.BoolAnd(c, d), a, b),
                                ctx.Ite(c, ctx.Ite(d, a_rewritten, b_rewritten), b_rewritten));
      }
    };
    auto [term, rewritten] = build(3);
    const bool differ = rng.Chance(30);
    if (differ) {
      // One 16-bit input value out of 65,536: random patterns miss it, so
      // only a proof can tell the two terms apart.
      const SmtRef hit = ctx.Eq(ctx.Var("z", 16), ctx.Const(16, rng.Next()));
      rewritten = ctx.Add(rewritten, ctx.Ite(hit, ctx.Const(width, 1), ctx.Const(width, 0)));
    }
    const SmtRef miter = ctx.BoolNot(ctx.Eq(term, rewritten));

    SweepStats stats;
    const SmtRef swept = SweepMiter(ctx, miter, {}, &stats);
    EXPECT_EQ(CheckSat(ctx, ctx.BoolNot(ctx.BoolEq(miter, swept))), CheckResult::kUnsat)
        << "round " << round << ": " << ctx.ToString(miter);
    if (!differ) {
      EXPECT_EQ(swept, ctx.False()) << "round " << round << ": " << ctx.ToString(miter);
    }
  }
}

// The two named hard miters of the campaign corpus: a clean validation of
// each used to take 27,038 and 70,102 conflicts (seed 21 program 743, seed
// 2 program 78; the files are PrintProgram of the generator's program for
// ParallelCampaign::ProgramSeed(seed, index) with default options). Each
// escalates exactly one query to the sweep, and the whole validation stays
// under 5,000 conflicts.
struct MiterCase {
  const char* name;
  const char* file;
};

class MiterCorpusTest : public ::testing::TestWithParam<MiterCase> {};

TEST_P(MiterCorpusTest, CleanValidationIsEquivalentWithOneSweep) {
  std::string text;
  ASSERT_TRUE(ReadFile(std::string(GAUNTLET_SOURCE_DIR) + "/testdata/miters/" + GetParam().file,
                       &text));
  const ProgramPtr program = Parser::ParseString(text);
  TvOptions options;
  options.query_time_limit_ms = 0;
  options.program_budget_ms = 0;
  const TranslationValidator validator(PassManager::StandardPipeline(), options);

  MetricsRegistry metrics;
  TvReport report;
  {
    ScopedMetricsSink sink(&metrics);
    report = validator.Validate(*program, BugConfig::None());
  }
  EXPECT_FALSE(report.crashed) << report.crash_message;
  ASSERT_FALSE(report.pass_results.empty());
  for (const TvPassResult& result : report.pass_results) {
    EXPECT_EQ(result.verdict, TvVerdict::kEquivalent)
        << result.pass_name << ": " << TvVerdictToString(result.verdict) << " — "
        << result.detail;
  }
  EXPECT_EQ(metrics.Value("tv/sweeps"), 1u);
  EXPECT_GE(metrics.Value("tv/sweep_merges"), 1u);
  EXPECT_LE(metrics.Value("smt/conflicts"), 5000u);
}

INSTANTIATE_TEST_SUITE_P(Miters, MiterCorpusTest,
                         ::testing::Values(MiterCase{"Seed21Program743", "seed21-prog743.p4"},
                                           MiterCase{"Seed2Program78", "seed2-prog78.p4"}),
                         [](const ::testing::TestParamInfo<MiterCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace gauntlet
