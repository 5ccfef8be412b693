#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/smt/solver.h"
#include "src/sym/interpreter.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {
namespace {

// Interprets the ingress control of `source` and returns its semantics.
// Defaults to a single symbolic entry slot per table so the focused Fig. 3
// algebra tests constrain exactly one entry; the multi-entry tests below
// pass 2 explicitly.
BlockSemantics Interpret(SmtContext& ctx, const std::string& source,
                         std::unique_ptr<Program>& program_out, size_t table_entries = 1) {
  program_out = Parser::ParseString(source);
  TypeCheck(*program_out);
  SymbolicInterpreter interpreter(ctx, table_entries);
  return interpreter.InterpretRole(*program_out, BlockRole::kIngress);
}

// True iff `constraint` is satisfiable.
bool Satisfiable(SmtContext& ctx, std::initializer_list<SmtRef> constraints) {
  SmtSolver solver(ctx);
  for (const SmtRef& constraint : constraints) {
    solver.Assert(constraint);
  }
  return solver.Check() == CheckResult::kSat;
}

TEST(SymInterpreterTest, StraightLineAssignment) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
control ig(inout bit<8> x) {
  apply { x = x + 8w1; }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef* out = semantics.FindOutput("x");
  ASSERT_NE(out, nullptr);
  const SmtRef x_in = ctx.FindVar("x");
  ASSERT_TRUE(x_in.IsValid());
  // out == x_in + 1 for all x: the negation is unsat.
  EXPECT_FALSE(Satisfiable(
      ctx, {ctx.BoolNot(ctx.Eq(*out, ctx.Add(x_in, ctx.Const(8, 1))))}));
}

TEST(SymInterpreterTest, IfMergesBothBranches) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
control ig(inout bit<8> x) {
  apply {
    if (x == 8w0) {
      x = 8w10;
    } else {
      x = 8w20;
    }
  }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out = *semantics.FindOutput("x");
  const SmtRef x_in = ctx.FindVar("x");
  // x==0 -> out==10.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.Eq(x_in, ctx.Const(8, 0)),
                                 ctx.BoolNot(ctx.Eq(out, ctx.Const(8, 10)))}));
  // x!=0 -> out==20.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(x_in, ctx.Const(8, 0))),
                                 ctx.BoolNot(ctx.Eq(out, ctx.Const(8, 20)))}));
  // Branch conditions were recorded.
  EXPECT_EQ(semantics.branch_conditions.size(), 1u);
}

TEST(SymInterpreterTest, Figure3TableSemantics) {
  // The exact program of paper Figure 3.
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
control ig(inout Hdr hdr) {
  action assign() { hdr.h.a = 8w1; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { assign; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
package main { ingress = ig; }
)",
                                             program);
  ASSERT_EQ(semantics.tables.size(), 1u);
  const TableInfo& table = semantics.tables[0];
  EXPECT_EQ(table.table_name, "t");
  ASSERT_EQ(table.entries.size(), 1u);
  ASSERT_EQ(table.entries[0].key_vars.size(), 1u);
  // NoAction is injected first, so listed actions are [NoAction? no—source
  // order]: the actions list in the program is {assign, NoAction}.
  ASSERT_EQ(table.action_names.size(), 2u);
  EXPECT_EQ(table.action_names[0], "assign");

  const SmtRef out_a = *semantics.FindOutput("hdr.h.a");
  const SmtRef out_b = *semantics.FindOutput("hdr.h.b");
  const SmtRef in_a = ctx.FindVar("hdr.h.a");
  const SmtRef in_b = ctx.FindVar("hdr.h.b");
  const SmtRef key = ctx.FindVar("t_e0_key_0");
  const SmtRef action = ctx.FindVar("t_e0_action");
  const SmtRef valid = ctx.FindVar("hdr.h.$valid");
  ASSERT_TRUE(key.IsValid());
  ASSERT_TRUE(action.IsValid());

  // Paper Fig. 3b, line 6: hit && action==1 (assign) => hdr_out = Hdr(1, b).
  EXPECT_FALSE(Satisfiable(
      ctx, {valid, ctx.Eq(in_a, key), ctx.Eq(action, ctx.Const(16, 1)),
            ctx.BoolNot(ctx.Eq(out_a, ctx.Const(8, 1)))}));
  // Line 7: hit but other action => unchanged.
  EXPECT_FALSE(Satisfiable(
      ctx, {valid, ctx.Eq(in_a, key), ctx.Eq(action, ctx.Const(16, 2)),
            ctx.BoolNot(ctx.Eq(out_a, in_a))}));
  // Line 8: miss => default NoAction => unchanged.
  EXPECT_FALSE(Satisfiable(ctx, {valid, ctx.BoolNot(ctx.Eq(in_a, key)),
                                 ctx.BoolNot(ctx.Eq(out_a, in_a))}));
  // b is never written.
  EXPECT_FALSE(Satisfiable(ctx, {valid, ctx.BoolNot(ctx.Eq(out_b, in_b))}));
}

TEST(SymInterpreterTest, TableActionDataIsSymbolic) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
header H { bit<8> a; }
struct Hdr { H h; }
control ig(inout Hdr hdr) {
  action set_field(bit<8> value) { hdr.h.a = value; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_field; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out_a = *semantics.FindOutput("hdr.h.a");
  const SmtRef in_a = ctx.FindVar("hdr.h.a");
  const SmtRef key = ctx.FindVar("t_e0_key_0");
  const SmtRef action = ctx.FindVar("t_e0_action");
  const SmtRef data = ctx.FindVar("t_e0_set_field_value");
  const SmtRef valid = ctx.FindVar("hdr.h.$valid");
  ASSERT_TRUE(data.IsValid());
  // On hit with set_field, the output equals the control-plane value.
  EXPECT_FALSE(Satisfiable(
      ctx, {valid, ctx.Eq(in_a, key), ctx.Eq(action, ctx.Const(16, 1)),
            ctx.BoolNot(ctx.Eq(out_a, data))}));
  // And the output can be any value the controller picks, e.g. 0xAB.
  EXPECT_TRUE(Satisfiable(
      ctx, {valid, ctx.Eq(in_a, key), ctx.Eq(action, ctx.Const(16, 1)),
            ctx.Eq(out_a, ctx.Const(8, 0xab))}));
}

TEST(SymInterpreterTest, MultiEntryTableEncodesPriorityOrder) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
header H { bit<8> a; }
struct Hdr { H h; }
control ig(inout Hdr hdr) {
  action set_field(bit<8> value) { hdr.h.a = value; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_field; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
package main { ingress = ig; }
)",
                                             program, /*table_entries=*/2);
  ASSERT_EQ(semantics.tables.size(), 1u);
  const TableInfo& table = semantics.tables[0];
  ASSERT_EQ(table.entries.size(), 2u);

  const SmtRef out_a = *semantics.FindOutput("hdr.h.a");
  const SmtRef in_a = ctx.FindVar("hdr.h.a");
  const SmtRef valid = ctx.FindVar("hdr.h.$valid");
  const SmtRef key0 = ctx.FindVar("t_e0_key_0");
  const SmtRef key1 = ctx.FindVar("t_e1_key_0");
  const SmtRef act0 = ctx.FindVar("t_e0_action");
  const SmtRef act1 = ctx.FindVar("t_e1_action");
  const SmtRef data0 = ctx.FindVar("t_e0_set_field_value");
  const SmtRef data1 = ctx.FindVar("t_e1_set_field_value");
  const SmtRef prio0 = ctx.FindVar("t_e0_prio");
  const SmtRef prio1 = ctx.FindVar("t_e1_prio");
  ASSERT_TRUE(key0.IsValid() && key1.IsValid() && act1.IsValid() && data1.IsValid() &&
              prio0.IsValid() && prio1.IsValid());

  // Slot 1 matches while slot 0 does not: the output is slot 1's
  // control-plane data — a non-first-entry hit, which the single-entry
  // encoding could not express symbolically.
  EXPECT_FALSE(Satisfiable(
      ctx, {valid, ctx.BoolNot(ctx.Eq(in_a, key0)), ctx.Eq(in_a, key1),
            ctx.Eq(act0, ctx.Const(16, 1)), ctx.Eq(act1, ctx.Const(16, 1)),
            ctx.BoolNot(ctx.Eq(out_a, data1))}));
  // Overlapping slots (both match the lookup key): the lower priority wins
  // — first-match once EntriesFromModel installs them in priority order.
  EXPECT_FALSE(Satisfiable(
      ctx, {valid, ctx.Eq(in_a, key0), ctx.Eq(in_a, key1),
            ctx.Eq(act0, ctx.Const(16, 1)), ctx.Eq(act1, ctx.Const(16, 1)),
            ctx.Ult(prio1, prio0), ctx.BoolNot(ctx.Eq(out_a, data1))}));
  EXPECT_FALSE(Satisfiable(
      ctx, {valid, ctx.Eq(in_a, key0), ctx.Eq(in_a, key1),
            ctx.Eq(act0, ctx.Const(16, 1)), ctx.Eq(act1, ctx.Const(16, 1)),
            ctx.Ult(prio0, prio1), ctx.BoolNot(ctx.Eq(out_a, data0))}));
  // At most one slot wins any lookup.
  EXPECT_FALSE(
      Satisfiable(ctx, {table.entries[0].win_condition, table.entries[1].win_condition}));
  // Both slots empty: miss, the default leaves the header unchanged.
  EXPECT_FALSE(Satisfiable(
      ctx, {valid, ctx.Eq(act0, ctx.Const(16, 0)), ctx.Eq(act1, ctx.Const(16, 0)),
            ctx.BoolNot(ctx.Eq(out_a, in_a))}));
}

TEST(SymInterpreterTest, CopyInCopyOutSliceArgument) {
  // Fig. 5d semantics: a slice inout argument plus a disjoint direct write.
  // Correct result: bit 0 write survives, bits 7:1 get the copied-out value.
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
control ig(inout bit<8> x) {
  action a(inout bit<7> val) {
    x[0:0] = 1w0;
    val = 7w5;
  }
  apply { a(x[7:1]); }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out = *semantics.FindOutput("x");
  // Expected: bits 7:1 == 5, bit 0 == 0, for every input.
  EXPECT_FALSE(Satisfiable(
      ctx, {ctx.BoolNot(ctx.Eq(out, ctx.Const(8, 5 << 1)))}));
}

TEST(SymInterpreterTest, ExitStopsSubsequentWrites) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
control ig(inout bit<8> x) {
  apply {
    if (x == 8w1) {
      exit;
    }
    x = 8w9;
  }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out = *semantics.FindOutput("x");
  const SmtRef x_in = ctx.FindVar("x");
  // x==1 -> exit -> unchanged.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.Eq(x_in, ctx.Const(8, 1)),
                                 ctx.BoolNot(ctx.Eq(out, ctx.Const(8, 1)))}));
  // x!=1 -> 9.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(x_in, ctx.Const(8, 1))),
                                 ctx.BoolNot(ctx.Eq(out, ctx.Const(8, 9)))}));
  const SmtRef exited = *semantics.FindOutput("$exited");
  EXPECT_TRUE(Satisfiable(ctx, {exited}));
}

TEST(SymInterpreterTest, ExitInActionStillCopiesOut) {
  // Fig. 5f: the spec interpretation Gauntlet pushed for — exit inside an
  // action respects copy-in/copy-out, so val=3 must land in x.
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
control ig(inout bit<16> x) {
  action a(inout bit<16> val) {
    val = 16w3;
    exit;
  }
  apply {
    a(x);
    x = 16w99;
  }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out = *semantics.FindOutput("x");
  // exit fires on every path, so the x=99 after the call never executes and
  // the copy-out of 3 always does.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(out, ctx.Const(16, 3)))}));
}

TEST(SymInterpreterTest, ReturnStopsRestOfFunction) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
bit<8> pick(in bit<8> v) {
  if (v == 8w0) {
    return 8w1;
  }
  return 8w2;
}
control ig(inout bit<8> x) {
  apply { x = pick(x); }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out = *semantics.FindOutput("x");
  const SmtRef x_in = ctx.FindVar("x");
  EXPECT_FALSE(Satisfiable(ctx, {ctx.Eq(x_in, ctx.Const(8, 0)),
                                 ctx.BoolNot(ctx.Eq(out, ctx.Const(8, 1)))}));
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(x_in, ctx.Const(8, 0))),
                                 ctx.BoolNot(ctx.Eq(out, ctx.Const(8, 2)))}));
}

TEST(SymInterpreterTest, FunctionWithInoutSideEffect) {
  // Fig. 5a shape: a function returning its inout parameter.
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
bit<8> test(inout bit<8> v) {
  v = v + 8w1;
  return v;
}
control ig(inout bit<8> x, inout bit<8> y) {
  apply { y = test(x); }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out_x = *semantics.FindOutput("x");
  const SmtRef out_y = *semantics.FindOutput("y");
  const SmtRef x_in = ctx.FindVar("x");
  const SmtRef expected = ctx.Add(x_in, ctx.Const(8, 1));
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(out_x, expected))}));
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(out_y, expected))}));
}

TEST(SymInterpreterTest, SetValidScramblesFieldsOfInvalidHeader) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
header H { bit<8> a; }
struct Hdr { H h; }
control ig(inout Hdr hdr) {
  apply {
    hdr.h.setValid();
  }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out_valid = *semantics.FindOutput("hdr.h.$valid");
  const SmtRef out_a = *semantics.FindOutput("hdr.h.a");
  const SmtRef in_valid = ctx.FindVar("hdr.h.$valid");
  const SmtRef in_a = ctx.FindVar("hdr.h.a");
  // Output header is always valid.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(out_valid)}));
  // If it was already valid, the field is preserved.
  EXPECT_FALSE(Satisfiable(ctx, {in_valid, ctx.BoolNot(ctx.Eq(out_a, in_a))}));
  // If it was invalid, the field becomes arbitrary: it CAN differ.
  EXPECT_TRUE(Satisfiable(ctx, {ctx.BoolNot(in_valid), ctx.BoolNot(ctx.Eq(out_a, in_a))}));
}

TEST(SymInterpreterTest, InvalidHeaderOutputsCanonicalZeros) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
header H { bit<8> a; }
struct Hdr { H h; }
control ig(inout Hdr hdr) {
  apply {
    hdr.h.setInvalid();
  }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out_valid = *semantics.FindOutput("hdr.h.$valid");
  const SmtRef out_a = *semantics.FindOutput("hdr.h.a");
  EXPECT_FALSE(Satisfiable(ctx, {out_valid}));
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(out_a, ctx.Const(8, 0)))}));
}

TEST(SymInterpreterTest, UninitializedLocalIsUndefined) {
  SmtContext ctx;
  std::unique_ptr<Program> program;
  const BlockSemantics semantics = Interpret(ctx, R"(
control ig(inout bit<8> x) {
  apply {
    bit<8> tmp;
    x = tmp;
  }
}
package main { ingress = ig; }
)",
                                             program);
  const SmtRef out = *semantics.FindOutput("x");
  // The output can be anything — it is a fresh undefined variable.
  EXPECT_TRUE(Satisfiable(ctx, {ctx.Eq(out, ctx.Const(8, 123))}));
  EXPECT_TRUE(Satisfiable(ctx, {ctx.Eq(out, ctx.Const(8, 7))}));
}

TEST(SymInterpreterTest, ParserExtractAndSelect) {
  SmtContext ctx;
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; H g; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition select(hdr.h.a) {
      8w1: parse_g;
      default: accept;
    }
  }
  state parse_g {
    pkt.extract(hdr.g);
    transition accept;
  }
}
package main { parser = p; }
)");
  TypeCheck(*program);
  SymbolicInterpreter interpreter(ctx);
  const BlockSemantics semantics = interpreter.InterpretRole(*program, BlockRole::kParser);

  const SmtRef h_valid = *semantics.FindOutput("hdr.h.$valid");
  const SmtRef g_valid = *semantics.FindOutput("hdr.g.$valid");
  const SmtRef first_byte = ctx.FindVar("pkt[0+:8]");
  ASSERT_TRUE(first_byte.IsValid());
  // h is always extracted.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(h_valid)}));
  // g valid iff first byte == 1.
  EXPECT_FALSE(Satisfiable(ctx, {ctx.Eq(first_byte, ctx.Const(8, 1)), ctx.BoolNot(g_valid)}));
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(first_byte, ctx.Const(8, 1))), g_valid}));
  // The second extract reads the next byte.
  EXPECT_TRUE(ctx.FindVar("pkt[8+:8]").IsValid());
}

TEST(SymInterpreterTest, ParserRejectFlag) {
  SmtContext ctx;
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition select(hdr.h.a) {
      8w255: reject;
      default: accept;
    }
  }
}
package main { parser = p; }
)");
  TypeCheck(*program);
  SymbolicInterpreter interpreter(ctx);
  const BlockSemantics semantics = interpreter.InterpretRole(*program, BlockRole::kParser);
  const SmtRef reject = *semantics.FindOutput("$reject");
  const SmtRef byte = ctx.FindVar("pkt[0+:8]");
  EXPECT_FALSE(Satisfiable(ctx, {ctx.Eq(byte, ctx.Const(8, 255)), ctx.BoolNot(reject)}));
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(ctx.Eq(byte, ctx.Const(8, 255))), reject}));
}

TEST(SymInterpreterTest, ParserLoopHitsUnrollingBound) {
  SmtContext ctx;
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition start;
  }
}
package main { parser = p; }
)");
  TypeCheck(*program);
  SymbolicInterpreter interpreter(ctx);
  EXPECT_THROW(interpreter.InterpretRole(*program, BlockRole::kParser), UnsupportedError);
}

TEST(SymInterpreterTest, DeparserEmitsTrackValidity) {
  SmtContext ctx;
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
control dp(in Hdr hdr) {
  apply {
    pkt.emit(hdr.h);
  }
}
package main { deparser = dp; }
)");
  TypeCheck(*program);
  SymbolicInterpreter interpreter(ctx);
  const BlockSemantics semantics = interpreter.InterpretRole(*program, BlockRole::kDeparser);
  const SmtRef emit_valid = *semantics.FindOutput("emit0.$valid");
  const SmtRef emit_a = *semantics.FindOutput("emit0.a");
  const SmtRef in_valid = ctx.FindVar("hdr.h.$valid");
  const SmtRef in_a = ctx.FindVar("hdr.h.a");
  EXPECT_FALSE(Satisfiable(ctx, {in_valid, ctx.BoolNot(emit_valid)}));
  EXPECT_FALSE(Satisfiable(ctx, {ctx.BoolNot(in_valid), emit_valid}));
  EXPECT_FALSE(Satisfiable(ctx, {in_valid, ctx.BoolNot(ctx.Eq(emit_a, in_a))}));
}

TEST(SymInterpreterTest, EquivalenceOfClonedProgramHolds) {
  SmtContext ctx;
  auto program = Parser::ParseString(R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
control ig(inout Hdr hdr) {
  action swap() {
    bit<8> tmp = hdr.h.a;
    hdr.h.a = hdr.h.b;
    hdr.h.b = tmp;
  }
  table t {
    key = { hdr.h.a : exact; }
    actions = { swap; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
package main { ingress = ig; }
)");
  TypeCheck(*program);
  auto clone = program->Clone();
  SymbolicInterpreter interpreter(ctx);
  const BlockSemantics before = interpreter.InterpretRole(*program, BlockRole::kIngress);
  const BlockSemantics after = interpreter.InterpretRole(*clone, BlockRole::kIngress);
  const EquivalenceQuery query = BuildEquivalenceQuery(ctx, before, after);
  ASSERT_FALSE(query.structural_mismatch);
  // Hash-consing gives the clone the same SmtRefs, so the miter simplifies
  // to the constant false and validation never reaches the SAT core.
  EXPECT_TRUE(ctx.IsConst(query.difference));
  EXPECT_EQ(ctx.ConstBits(query.difference), 0u);
  EXPECT_FALSE(Satisfiable(ctx, {query.difference}));
}

TEST(SymInterpreterTest, EquivalenceDetectsBehavioralChange) {
  SmtContext ctx;
  auto before_program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply { x = x + 8w2; }
}
package main { ingress = ig; }
)");
  auto after_program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply { x = x + 8w3; }
}
package main { ingress = ig; }
)");
  TypeCheck(*before_program);
  TypeCheck(*after_program);
  SymbolicInterpreter interpreter(ctx);
  const BlockSemantics before = interpreter.InterpretRole(*before_program, BlockRole::kIngress);
  const BlockSemantics after = interpreter.InterpretRole(*after_program, BlockRole::kIngress);
  const EquivalenceQuery query = BuildEquivalenceQuery(ctx, before, after);
  ASSERT_FALSE(query.structural_mismatch);
  SmtSolver solver(ctx);
  solver.Assert(query.difference);
  ASSERT_EQ(solver.Check(), CheckResult::kSat);
  // The solver produces a concrete witness input.
  const SmtModel model = solver.ExtractModel();
  EXPECT_NO_THROW(model.BitOf("x"));
}

TEST(SymInterpreterTest, EquivalentRewriteAcceptedDespiteSyntacticChange) {
  // x*2 vs x+x — different ASTs, same function.
  SmtContext ctx;
  auto before_program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply { x = x * 8w2; }
}
package main { ingress = ig; }
)");
  auto after_program = Parser::ParseString(R"(
control ig(inout bit<8> x) {
  apply { x = x + x; }
}
package main { ingress = ig; }
)");
  TypeCheck(*before_program);
  TypeCheck(*after_program);
  SymbolicInterpreter interpreter(ctx);
  const BlockSemantics before = interpreter.InterpretRole(*before_program, BlockRole::kIngress);
  const BlockSemantics after = interpreter.InterpretRole(*after_program, BlockRole::kIngress);
  const EquivalenceQuery query = BuildEquivalenceQuery(ctx, before, after);
  ASSERT_FALSE(query.structural_mismatch);
  EXPECT_FALSE(Satisfiable(ctx, {query.difference}));
}

TEST(SymInterpreterTest, PipelineGluesParserToIngressToDeparser) {
  SmtContext ctx;
  auto program = Parser::ParseString(R"(
header H { bit<8> a; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply { hdr.h.a = hdr.h.a + 8w1; }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*program);
  SymbolicInterpreter interpreter(ctx);
  const PipelineSemantics pipeline = interpreter.InterpretPipeline(*program);
  ASSERT_TRUE(pipeline.has_parser);
  ASSERT_TRUE(pipeline.has_deparser);
  EXPECT_FALSE(pipeline.glue.empty());

  // End-to-end: emitted byte == input byte + 1.
  SmtSolver solver(ctx);
  for (const SmtRef& glue : pipeline.glue) {
    solver.Assert(glue);
  }
  const SmtRef pkt_byte = ctx.FindVar("p::pkt[0+:8]");
  ASSERT_TRUE(pkt_byte.IsValid());
  const SmtRef* emit_a = pipeline.deparser.FindOutput("emit0.a");
  ASSERT_NE(emit_a, nullptr);
  solver.Assert(ctx.Eq(pkt_byte, ctx.Const(8, 41)));
  solver.Assert(ctx.BoolNot(ctx.Eq(*emit_a, ctx.Const(8, 42))));
  EXPECT_EQ(solver.Check(), CheckResult::kUnsat);
}

}  // namespace
}  // namespace gauntlet
