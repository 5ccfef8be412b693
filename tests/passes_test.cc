#include <gtest/gtest.h>

#include <regex>

#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/passes/frontend_passes.h"
#include "src/passes/midend_passes.h"
#include "src/passes/pass.h"
#include "src/smt/solver.h"
#include "src/support/file_io.h"
#include "src/sym/interpreter.h"
#include "src/tv/validator.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {
namespace {

// Runs one pass (clean) on a program and checks semantic equivalence of the
// result against the original — the translation-validation contract every
// pass must uphold.
void ExpectPassPreservesSemantics(std::unique_ptr<Pass> pass, const std::string& source) {
  auto program = Parser::ParseString(source);
  TypeCheck(*program);
  auto transformed = program->Clone();
  pass->Run(*transformed, BugConfig::None());
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, pass->name());
  EXPECT_TRUE(result.verdict == TvVerdict::kEquivalent ||
              result.verdict == TvVerdict::kUndefDivergence)
      << pass->name() << ": " << TvVerdictToString(result.verdict) << " — " << result.detail
      << "\ntransformed:\n"
      << PrintProgram(*transformed);
}

constexpr const char* kSideEffectProgram = R"(
bit<8> bump(inout bit<8> v) {
  v = v + 8w1;
  return v;
}
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    y = bump(x) + bump(x);
  }
}
package main { ingress = ig; }
)";

TEST(SideEffectOrderingTest, HoistsNestedCalls) {
  auto program = Parser::ParseString(kSideEffectProgram);
  TypeCheck(*program);
  MakeSideEffectOrderingPass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  // The apply body now starts with two temporaries.
  const auto& apply = program->FindControl("ig")->apply();
  ASSERT_GE(apply.statements().size(), 3u);
  EXPECT_EQ(apply.statements()[0]->kind(), StmtKind::kVarDecl);
  EXPECT_EQ(apply.statements()[1]->kind(), StmtKind::kVarDecl);
}

TEST(SideEffectOrderingTest, PreservesSemantics) {
  ExpectPassPreservesSemantics(MakeSideEffectOrderingPass(), kSideEffectProgram);
}

TEST(SideEffectOrderingTest, SwapBugChangesSemantics) {
  auto program = Parser::ParseString(kSideEffectProgram);
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kSideEffectOrderSwap);
  MakeSideEffectOrderingPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "SideEffectOrdering");
  // bump(x) + bump(x): left-to-right gives (x+1)+(x+2) with x ending at
  // x+2; the swapped order yields the same sum here but swaps the *call
  // order*... use an asymmetric case below for a guaranteed diff.
  (void)result;
  auto asymmetric = Parser::ParseString(R"(
bit<8> twice(inout bit<8> v) {
  v = v * 8w2;
  return v;
}
bit<8> inc(inout bit<8> v) {
  v = v + 8w1;
  return v;
}
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    y = twice(x) - inc(x);
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*asymmetric);
  auto buggy = asymmetric->Clone();
  MakeSideEffectOrderingPass()->Run(*buggy, bugs);
  TypeCheck(*buggy);
  const TvPassResult asym_result =
      TranslationValidator::CompareVersions(*asymmetric, *buggy, "SideEffectOrdering");
  EXPECT_EQ(asym_result.verdict, TvVerdict::kSemanticDiff);
}

constexpr const char* kInlineProgram = R"(
bit<8> clamp(in bit<8> v) {
  if (v > 8w100) {
    return 8w100;
  }
  return v;
}
control ig(inout bit<8> x) {
  apply {
    x = clamp(x);
  }
}
package main { ingress = ig; }
)";

TEST(InlineFunctionsTest, RemovesAllCallsAndDecls) {
  auto program = Parser::ParseString(kInlineProgram);
  TypeCheck(*program);
  MakeSideEffectOrderingPass()->Run(*program, BugConfig::None());
  MakeInlineFunctionsPass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  EXPECT_EQ(program->FindFunction("clamp"), nullptr);
}

TEST(InlineFunctionsTest, PreservesSemanticsWithEarlyReturn) {
  auto program = Parser::ParseString(kInlineProgram);
  TypeCheck(*program);
  auto transformed = program->Clone();
  MakeSideEffectOrderingPass()->Run(*transformed, BugConfig::None());
  MakeInlineFunctionsPass()->Run(*transformed, BugConfig::None());
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "InlineFunctions");
  EXPECT_TRUE(result.verdict == TvVerdict::kEquivalent ||
              result.verdict == TvVerdict::kUndefDivergence)
      << TvVerdictToString(result.verdict) << "\n"
      << PrintProgram(*transformed);
}

TEST(InlineFunctionsTest, PreservesSemanticsWithOutParam) {
  ExpectPassPreservesSemantics(MakeInlineFunctionsPass(), R"(
void split(in bit<8> v, out bit<8> high, out bit<8> low) {
  high = v >> 8w4;
  low = v & 8w15;
}
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    split(x, x, y);
  }
}
package main { ingress = ig; }
)");
}

TEST(InlineFunctionsTest, SkipBugLeavesCallInBranch) {
  auto program = Parser::ParseString(R"(
bit<8> helper(in bit<8> v) {
  return v + 8w1;
}
control ig(inout bit<8> x) {
  apply {
    if (x == 8w0) {
      x = helper(x);
    }
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  BugConfig bugs;
  bugs.Enable(BugId::kInlinerSkipsNestedCall);
  MakeInlineFunctionsPass()->Run(*program, bugs);
  // The call inside the if-branch survives — and so does the declaration.
  EXPECT_NE(program->FindFunction("helper"), nullptr);
}

constexpr const char* kFig5fProgram = R"(
header Eth { bit<16> eth_type; }
struct Hdr { Eth eth; }
control ig(inout Hdr h) {
  action a(inout bit<16> val) {
    val = 16w3;
    exit;
  }
  apply {
    a(h.eth.eth_type);
  }
}
package main { ingress = ig; }
)";

TEST(RemoveActionParametersTest, PreservesExitCopyOut) {
  ExpectPassPreservesSemantics(MakeRemoveActionParametersPass(), kFig5fProgram);
}

TEST(RemoveActionParametersTest, Fig5fBugDropsCopyOutOnExit) {
  auto program = Parser::ParseString(kFig5fProgram);
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kExitIgnoresCopyOut);
  MakeRemoveActionParametersPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "RemoveActionParameters");
  EXPECT_EQ(result.verdict, TvVerdict::kSemanticDiff) << PrintProgram(*transformed);
}

TEST(RemoveActionParametersTest, PreservesSliceArgument) {
  // Fig. 5d program shape.
  ExpectPassPreservesSemantics(MakeRemoveActionParametersPass(), R"(
header H { bit<8> a; }
struct Hdr { H h; }
control ig(inout Hdr h) {
  action a(inout bit<7> val) {
    h.h.a[0:0] = 1w0;
    val = val + 7w1;
  }
  apply {
    a(h.h.a[7:1]);
  }
}
package main { ingress = ig; }
)");
}

TEST(UniqueNamesTest, RenamesLocalsUniquely) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    bit<8> tmp = x;
    x = tmp + 8w1;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeUniqueNamesPass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  const std::string printed = PrintProgram(*program);
  EXPECT_EQ(printed.find("bit<8> tmp "), std::string::npos);
  EXPECT_NE(printed.find("tmp_"), std::string::npos);
}

TEST(UniqueNamesTest, PreservesSemantics) {
  ExpectPassPreservesSemantics(MakeUniqueNamesPass(), R"(
control ig(inout bit<8> x) {
  apply {
    bit<8> tmp = x;
    if (tmp == 8w0) {
      bit<8> other = tmp + 8w1;
      x = other;
    }
  }
}
package main { ingress = ig; }
)");
}

TEST(UniqueNamesTest, HoistBugIsUndefDivergenceOnly) {
  // Two uninitialized declarations; hoisting permutes undefined-value
  // allocation order. The validator must classify this as the §8
  // false-alarm class, not a semantic bug.
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    x = x + 8w1;
    bit<8> u1;
    y = u1;
    bit<8> u2;
    x = u2;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kRenameDeclaredUndefined);
  MakeUniqueNamesPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "UniqueNames");
  EXPECT_EQ(result.verdict, TvVerdict::kUndefDivergence) << PrintProgram(*transformed);
}

TEST(ConstantFoldingTest, FoldsArithmetic) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    x = 8w200 + 8w100;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeConstantFoldingPass()->Run(*program, BugConfig::None());
  const std::string printed = PrintProgram(*program);
  EXPECT_NE(printed.find("x = 8w44;"), std::string::npos) << printed;
}

TEST(ConstantFoldingTest, PreservesSemantics) {
  ExpectPassPreservesSemantics(MakeConstantFoldingPass(), R"(
control ig(inout bit<8> x) {
  apply {
    x = x + (8w2 * 8w3);
    if (8w5 < 8w7 && true) {
      x = x ^ (4w3 ++ 4w1);
    }
    x = true ? x + 8w1 : x;
    x = (bit<8>) (16w300 >> 16w2);
    x = x + 16w260[8:1];
  }
}
package main { ingress = ig; }
)");
}

TEST(ConstantFoldingTest, WrapBugMiscompilesOverflow) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    x = 8w200 + 8w100;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kConstantFoldWrapWidth);
  MakeConstantFoldingPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "ConstantFolding");
  EXPECT_EQ(result.verdict, TvVerdict::kSemanticDiff);
}

TEST(StrengthReductionTest, RewritesMulByPowerOfTwo) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    x = x * 8w4;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeStrengthReductionPass()->Run(*program, BugConfig::None());
  const std::string printed = PrintProgram(*program);
  EXPECT_NE(printed.find("<<"), std::string::npos) << printed;
}

TEST(StrengthReductionTest, PreservesSemantics) {
  ExpectPassPreservesSemantics(MakeStrengthReductionPass(), R"(
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    x = x * 8w8;
    y = y & 8w0;
    x = x | 8w0;
    y = (y + 8w0) - 8w0;
    x = x >> 8w3;
    y = y * 8w1;
  }
}
package main { ingress = ig; }
)");
}

TEST(StrengthReductionTest, NegativeSliceBugBreaksTypeCheck) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    x = x >> 8w3;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  BugConfig bugs;
  bugs.Enable(BugId::kStrengthReductionNegativeSlice);
  MakeStrengthReductionPass()->Run(*program, bugs);
  // The inverted slice makes the (valid) program fail re-type-checking —
  // the Fig. 5c incorrect rejection.
  EXPECT_THROW(TypeCheck(*program), CompileError);
}

constexpr const char* kDefUseProgram = R"(
void sink(inout bit<8> v) {
  v = v + 8w1;
}
control ig(inout bit<8> x) {
  apply {
    bit<8> tmp = 8w5;
    sink(tmp);
    x = tmp;
  }
}
package main { ingress = ig; }
)";

TEST(SimplifyDefUseTest, KeepsStoresFeedingInoutArgs) {
  ExpectPassPreservesSemantics(MakeSimplifyDefUsePass(), kDefUseProgram);
}

TEST(SimplifyDefUseTest, RemovesTrulyDeadStores) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    bit<8> tmp = 8w1;
    tmp = 8w2;
    x = tmp;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeSimplifyDefUsePass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  const std::string printed = PrintProgram(*program);
  EXPECT_EQ(printed.find("8w1"), std::string::npos) << printed;
}

TEST(SimplifyDefUseTest, DeadStoreWithCallSideEffectIsKept) {
  // y's value is dead (never read), but the RHS calls bump, which mutates
  // x through its inout parameter. Deleting the store would delete the
  // side effect (a real unsoundness our clean pass once had — caught by
  // the clean-pipeline property test).
  auto program = Parser::ParseString(R"(
bit<8> bump(inout bit<8> v) {
  v = v + 8w1;
  return v;
}
control ig(inout bit<8> x) {
  apply {
    bit<8> y = 8w0;
    y = bump(x);
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  ExpectPassPreservesSemantics(MakeSimplifyDefUsePass(), PrintProgram(*program));
  auto transformed = program->Clone();
  MakeSimplifyDefUsePass()->Run(*transformed, BugConfig::None());
  EXPECT_NE(PrintProgram(*transformed).find("bump"), std::string::npos)
      << PrintProgram(*transformed);
}

TEST(SimplifyDefUseTest, UnusedDeclWithCallInitializerIsKept) {
  auto program = Parser::ParseString(R"(
bit<8> bump(inout bit<8> v) {
  v = v + 8w1;
  return v;
}
control ig(inout bit<8> x) {
  apply {
    bit<8> unused = bump(x);
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  ExpectPassPreservesSemantics(MakeSimplifyDefUsePass(), PrintProgram(*program));
}

TEST(SimplifyDefUseTest, TableApplyReadsArePrecise) {
  // The table's key reads hdr only; the local `dead` must still be
  // eliminated even though a table apply follows (a conservative
  // "tables read everything" analysis would keep it alive).
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) {
  action nop() { }
  table t {
    key = { hdr.h.a : exact; }
    actions = { nop; }
    default_action = nop();
  }
  apply {
    bit<8> dead = 8w7;
    dead = 8w9;
    t.apply();
  }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  MakeSimplifyDefUsePass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  EXPECT_EQ(PrintProgram(*program).find("dead"), std::string::npos) << PrintProgram(*program);
}

TEST(SimplifyDefUseTest, TableActionReadsKeepLocalAlive) {
  // An action listed by an applied table reads nothing local here, but the
  // key expression does: `k` must stay.
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) {
  action nop() { }
  table t {
    key = { hdr.h.a : exact; }
    actions = { nop; }
    default_action = nop();
  }
  apply {
    hdr.h.a = 8w3;
    t.apply();
  }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  MakeSimplifyDefUsePass()->Run(*transformed, BugConfig::None());
  TypeCheck(*transformed);
  // The store feeds the table key: it must survive.
  EXPECT_NE(PrintProgram(*transformed).find("8w3"), std::string::npos)
      << PrintProgram(*transformed);
}

TEST(SimplifyDefUseTest, Fig5aBugSnowballsIntoCrash) {
  // Here tmp's *only* use is the inout argument. Under the seeded fault the
  // argument does not count as a use, so both the store and the declaration
  // vanish while sink(tmp) still references tmp: the next type-checking
  // pass crashes — the Fig. 5a snowball ("all variable definitions were
  // cleared and the type checking pass was unable to find the variables").
  auto program = Parser::ParseString(R"(
void sink(inout bit<8> v) {
  v = v + 8w1;
}
control ig(inout bit<8> x) {
  apply {
    bit<8> tmp = x;
    sink(tmp);
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  BugConfig bugs;
  bugs.Enable(BugId::kSimplifyDefUseDropsInoutWrite);
  MakeSimplifyDefUsePass()->Run(*program, bugs);
  EXPECT_THROW(TypeCheck(*program), CompileError);
}

TEST(SimplifyDefUseTest, Fig5dBugDropsDisjointWrite) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    bit<8> tmp = 8w255;
    tmp[0:0] = 1w0;
    x = tmp;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kSliceWriteTreatedAsFullDef);
  MakeSimplifyDefUsePass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "SimplifyDefUse");
  EXPECT_EQ(result.verdict, TvVerdict::kSemanticDiff) << PrintProgram(*transformed);
}

constexpr const char* kPredicationProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
control ig(inout Hdr hdr) {
  action cond_set() {
    if (hdr.h.a == 8w0) {
      hdr.h.a = 8w1;
      hdr.h.b = 8w2;
    } else {
      hdr.h.b = 8w3;
    }
  }
  table t {
    key = { hdr.h.a : exact; }
    actions = { cond_set; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
package main { ingress = ig; }
)";

TEST(PredicationTest, ConvertsBranchesToMuxes) {
  auto program = Parser::ParseString(kPredicationProgram);
  TypeCheck(*program);
  MakePredicationPass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  const std::string printed = PrintProgram(*program);
  EXPECT_NE(printed.find("?"), std::string::npos);
  EXPECT_EQ(printed.find("if"), std::string::npos) << printed;
}

TEST(PredicationTest, PreservesSemantics) {
  ExpectPassPreservesSemantics(MakePredicationPass(), kPredicationProgram);
}

TEST(PredicationTest, LostElseBugChangesSemantics) {
  auto program = Parser::ParseString(kPredicationProgram);
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  MakePredicationPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "Predication");
  EXPECT_EQ(result.verdict, TvVerdict::kSemanticDiff);
}

TEST(PredicationTest, InputsNamedLikeUndefinedValuesAreStillInputs) {
  // Only values the interpreter creates as undefined are pinned to zero in
  // the undef query, whatever the program calls its variables; and those
  // are the only entries the witness leaves out. The input is
  // testdata/serve/predication.p4 with its header parameter renamed.
  std::string source;
  ASSERT_TRUE(ReadFile(std::string(GAUNTLET_SOURCE_DIR) + "/testdata/serve/predication.p4",
                       &source));
  auto program =
      Parser::ParseString(std::regex_replace(source, std::regex("\\bhdr\\b"), "undefhdr"));
  BugConfig bugs;
  bugs.Enable(BugId::kPredicationLostElse);
  const TvReport report =
      TranslationValidator(PassManager::StandardPipeline()).Validate(*program, bugs);
  const TvPassResult* predication = nullptr;
  for (const TvPassResult& result : report.pass_results) {
    if (result.pass_name == "Predication") {
      predication = &result;
    }
  }
  ASSERT_NE(predication, nullptr);
  EXPECT_EQ(predication->verdict, TvVerdict::kSemanticDiff) << predication->detail;
  EXPECT_EQ(predication->counterexample.bit_values.count("undefhdr.h.a"), 1u);
  for (const auto& [name, value] : predication->counterexample.bit_values) {
    EXPECT_FALSE(name.rfind("undef", 0) == 0 && name.rfind("undefhdr.", 0) != 0) << name;
  }
}

constexpr const char* kCopyPropProgram = R"(
header H { bit<8> a; }
struct Hdr { H h; H eth; }
control ig(inout Hdr hdr) {
  apply {
    bit<8> k = hdr.h.a;
    hdr.h.setValid();
    hdr.eth.a = k;
  }
}
package main { ingress = ig; }
)";

TEST(CopyPropagationTest, PropagatesSimpleCopies) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    bit<8> k = x;
    y = k + 8w1;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeCopyPropagationPass()->Run(*program, BugConfig::None());
  const std::string printed = PrintProgram(*program);
  EXPECT_NE(printed.find("y = x + 8w1;"), std::string::npos) << printed;
}

TEST(CopyPropagationTest, PreservesSemanticsAcrossValidity) {
  ExpectPassPreservesSemantics(MakeCopyPropagationPass(), kCopyPropProgram);
}

TEST(CopyPropagationTest, Fig5eBugPropagatesAcrossSetValid) {
  auto program = Parser::ParseString(kCopyPropProgram);
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kInvalidHeaderCopyProp);
  MakeCopyPropagationPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "CopyPropagation");
  // Propagating hdr.h.a across setValid reads a scrambled field: the
  // divergence involves undefined values (exactly the Fig. 5e "unstable
  // code" warning class) or a hard semantic diff depending on validity.
  EXPECT_TRUE(result.verdict == TvVerdict::kSemanticDiff ||
              result.verdict == TvVerdict::kUndefDivergence)
      << TvVerdictToString(result.verdict);
  EXPECT_NE(result.verdict, TvVerdict::kEquivalent);
}

TEST(LocalCopyEliminationTest, SubstitutesSingleUseTemp) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    bit<8> t = x + 8w1;
    y = t;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeLocalCopyEliminationPass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  const std::string printed = PrintProgram(*program);
  EXPECT_NE(printed.find("y = x + 8w1;"), std::string::npos) << printed;
}

TEST(LocalCopyEliminationTest, PreservesSemanticsWithInterveningWrite) {
  ExpectPassPreservesSemantics(MakeLocalCopyEliminationPass(), R"(
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    bit<8> t = x + 8w1;
    x = 8w0;
    y = t;
  }
}
package main { ingress = ig; }
)");
}

TEST(LocalCopyEliminationTest, SubstAcrossWriteBugChangesSemantics) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x, inout bit<8> y) {
  apply {
    bit<8> t = x + 8w1;
    x = 8w0;
    y = t;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kTempSubstAcrossWrite);
  MakeLocalCopyEliminationPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "LocalCopyElimination");
  EXPECT_EQ(result.verdict, TvVerdict::kSemanticDiff) << PrintProgram(*transformed);
}

TEST(DeadCodeEliminationTest, FoldsConstantBranches) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    if (true) {
      x = 8w1;
    } else {
      x = 8w2;
    }
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeDeadCodeEliminationPass()->Run(*program, BugConfig::None());
  const std::string printed = PrintProgram(*program);
  EXPECT_EQ(printed.find("8w2"), std::string::npos) << printed;
}

TEST(DeadCodeEliminationTest, RemovesCodeAfterExit) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    exit;
    x = 8w1;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeDeadCodeEliminationPass()->Run(*program, BugConfig::None());
  const std::string printed = PrintProgram(*program);
  EXPECT_EQ(printed.find("8w1"), std::string::npos) << printed;
}

TEST(DeadCodeEliminationTest, PreservesSemantics) {
  ExpectPassPreservesSemantics(MakeDeadCodeEliminationPass(), R"(
control ig(inout bit<8> x) {
  apply {
    if (x == 8w0) {
      exit;
    }
    x = 8w7;
  }
}
package main { ingress = ig; }
)");
}

TEST(DeadCodeEliminationTest, ExitCallBugDropsLiveCode) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    if (x == 8w0) {
      exit;
    }
    x = 8w7;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kDeadCodeAfterExitCall);
  MakeDeadCodeEliminationPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "DeadCodeElimination");
  EXPECT_EQ(result.verdict, TvVerdict::kSemanticDiff);
}

TEST(EliminateSlicesTest, LowersSliceAssignments) {
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    x[5:2] = 4w9;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  MakeEliminateSlicesPass()->Run(*program, BugConfig::None());
  TypeCheck(*program);
  const std::string printed = PrintProgram(*program);
  EXPECT_EQ(printed.find("[5:2] ="), std::string::npos) << printed;
}

TEST(EliminateSlicesTest, PreservesSemantics) {
  ExpectPassPreservesSemantics(MakeEliminateSlicesPass(), R"(
control ig(inout bit<8> x, inout bit<16> w) {
  apply {
    x[5:2] = 4w9;
    x[0:0] = 1w1;
    x[7:7] = 1w0;
    w[15:8] = x;
  }
}
package main { ingress = ig; }
)");
}

TEST(EliminateSlicesTest, WrongMaskBugChangesSemantics) {
  // Field value 4w3 has its top bit clear: the one-short mask fails to
  // clear bit 5 of x, which the correct lowering would overwrite with 0.
  auto program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply {
    x[5:2] = 4w3;
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  BugConfig bugs;
  bugs.Enable(BugId::kEliminateSlicesWrongMask);
  MakeEliminateSlicesPass()->Run(*transformed, bugs);
  TypeCheck(*transformed);
  const TvPassResult result =
      TranslationValidator::CompareVersions(*program, *transformed, "EliminateSlices");
  EXPECT_EQ(result.verdict, TvVerdict::kSemanticDiff);
}

TEST(EliminateSlicesTest, RewrittenMultiplyOperandValidatesWithinASmallBudget) {
  // The pass rebuilds hdr.h.a by mask-and-or where the original builds it
  // from slices, so the multiply's operand is a different expression with
  // the same bits. Structural hashing gives both versions one multiplier
  // circuit; proving two separate 16-bit multipliers equal would exhaust
  // the 5000-conflict budget.
  auto program = Parser::ParseString(R"(
header H { bit<16> a; bit<16> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) {
  apply {
    hdr.h.a[13:6] = 8w141;
    hdr.h.b = ~hdr.h.a * (hdr.h.a + hdr.h.b);
  }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  auto transformed = program->Clone();
  MakeEliminateSlicesPass()->Run(*transformed, BugConfig::None());
  TypeCheck(*transformed);
  TvOptions options;
  options.conflict_budget = 5000;
  options.query_time_limit_ms = 0;
  options.program_budget_ms = 0;
  const TvPassResult result = TranslationValidator::CompareVersions(
      *program, *transformed, "EliminateSlices", /*cache=*/nullptr, options);
  EXPECT_EQ(result.verdict, TvVerdict::kEquivalent)
      << TvVerdictToString(result.verdict) << " — " << result.detail;
}

TEST(PassManagerTest, StandardPipelineHasTwelvePasses) {
  const PassManager pipeline = PassManager::StandardPipeline();
  EXPECT_EQ(pipeline.passes().size(), 12u);
}

TEST(PassManagerTest, CleanPipelinePreservesComplexProgram) {
  auto program = Parser::ParseString(R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
bit<8> mix(in bit<8> v, inout bit<8> acc) {
  acc = acc ^ v;
  if (v == 8w0) {
    return 8w255;
  }
  return v * 8w2;
}
control ig(inout Hdr hdr, inout bit<8> meta) {
  action rewrite(bit<8> data) {
    hdr.h.a = data;
  }
  action adjust(inout bit<8> v) {
    if (v > 8w10) {
      v = v - 8w10;
    } else {
      v = v + 8w1;
    }
  }
  table t {
    key = { hdr.h.a : exact; hdr.h.b : exact; }
    actions = { rewrite; NoAction; }
    default_action = rewrite(8w42);
  }
  apply {
    meta = mix(hdr.h.a, meta);
    t.apply();
    adjust(hdr.h.b);
    if (hdr.h.b == 8w3) {
      exit;
    }
    hdr.h.a[3:0] = hdr.h.b[7:4];
  }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  const TranslationValidator validator(PassManager::StandardPipeline());
  const TvReport report = validator.Validate(*program, BugConfig::None());
  EXPECT_FALSE(report.crashed) << report.crash_message;
  for (const TvPassResult& result : report.pass_results) {
    EXPECT_TRUE(result.verdict == TvVerdict::kEquivalent ||
                result.verdict == TvVerdict::kUndefDivergence)
        << result.pass_name << ": " << TvVerdictToString(result.verdict) << " — "
        << result.detail;
  }
}

}  // namespace
}  // namespace gauntlet
