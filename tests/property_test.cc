// Property-based (parameterized) suites tying the subsystems together:
//
//  * SmtAgainstBitValue: every SMT operator must agree with BitValue
//    (the concrete arithmetic oracle) at every width — both through the
//    simplifier's constant folder and through bit-blasting + SAT.
//  * SymbolicVsConcrete: the symbolic interpreter and the concrete target
//    interpreter must compute identical ingress outputs on random programs
//    and random inputs — the foundation that makes translation validation
//    verdicts and generated expected-output packets trustworthy.
//  * RoundTrip / CleanPipeline: printer and pass-pipeline invariants swept
//    across generator seeds.
//  * LoweringReuse: validation's pipeline output is the shared lowering
//    every back end compiles from.

#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gen/generator.h"
#include "src/smt/evaluator.h"
#include "src/smt/solver.h"
#include "src/sym/interpreter.h"
#include "src/target/target.h"
#include "src/target/concrete.h"
#include "src/target/lowering.h"
#include "src/testgen/testgen.h"
#include "src/tv/validator.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {
namespace {

// ---------------------------------------------------------------------------
// SMT operators vs BitValue, parameterized by width.
// ---------------------------------------------------------------------------

class SmtAgainstBitValue : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SmtAgainstBitValue, AllOperatorsAgreeWithConcreteArithmetic) {
  const uint32_t width = GetParam();
  Rng rng(width * 7919 + 1);
  for (int round = 0; round < 24; ++round) {
    const uint64_t a_bits = rng.Next();
    const uint64_t b_bits = rng.Next();
    const BitValue a(width, a_bits);
    const BitValue b(width, b_bits);

    struct Case {
      const char* name;
      BitValue expected;
      SmtRef (*build)(SmtContext&, SmtRef, SmtRef);
    };
    const Case cases[] = {
        {"add", a.Add(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.Add(x, y); }},
        {"sub", a.Sub(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.Sub(x, y); }},
        {"mul", a.Mul(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.Mul(x, y); }},
        {"and", a.And(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.And(x, y); }},
        {"or", a.Or(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.Or(x, y); }},
        {"xor", a.Xor(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.Xor(x, y); }},
        {"shl", a.Shl(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.Shl(x, y); }},
        {"shr", a.Shr(b), [](SmtContext& c, SmtRef x, SmtRef y) { return c.Shr(x, y); }},
    };
    for (const Case& op_case : cases) {
      // Path 1: the simplifier's constant folder.
      SmtContext fold_ctx;
      const SmtRef folded =
          op_case.build(fold_ctx, fold_ctx.Const(width, a_bits), fold_ctx.Const(width, b_bits));
      ASSERT_TRUE(fold_ctx.IsConst(folded)) << op_case.name << " w" << width;
      EXPECT_EQ(fold_ctx.ConstBits(folded), op_case.expected.bits())
          << op_case.name << " w" << width << " (folded)";

      // Path 2: bit-blasting through the SAT solver, constraining variables.
      SmtContext sat_ctx;
      const SmtRef x = sat_ctx.Var("x", width);
      const SmtRef y = sat_ctx.Var("y", width);
      SmtSolver solver(sat_ctx);
      solver.Assert(sat_ctx.Eq(x, sat_ctx.Const(width, a_bits)));
      solver.Assert(sat_ctx.Eq(y, sat_ctx.Const(width, b_bits)));
      solver.Assert(sat_ctx.BoolNot(sat_ctx.Eq(
          op_case.build(sat_ctx, x, y), sat_ctx.Const(width, op_case.expected.bits()))));
      EXPECT_EQ(solver.Check(), CheckResult::kUnsat)
          << op_case.name << " w" << width << " (bit-blasted)";
    }

    // Comparisons and slices.
    SmtContext ctx;
    EXPECT_EQ(ctx.ConstBits(ctx.Ult(ctx.Const(width, a_bits), ctx.Const(width, b_bits))),
              a.Lt(b) ? 1u : 0u);
    EXPECT_EQ(ctx.ConstBits(ctx.Ule(ctx.Const(width, a_bits), ctx.Const(width, b_bits))),
              a.Le(b) ? 1u : 0u);
    if (width >= 2) {
      const uint32_t hi = static_cast<uint32_t>(rng.Below(width - 1)) + 1;
      const uint32_t lo = static_cast<uint32_t>(rng.Below(hi + 1));
      EXPECT_EQ(ctx.ConstBits(ctx.Extract(ctx.Const(width, a_bits), hi, lo)),
                a.Slice(hi, lo).bits())
          << "slice [" << hi << ":" << lo << "] w" << width;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SmtAgainstBitValue,
                         ::testing::Values(1u, 2u, 4u, 7u, 8u, 13u, 16u, 31u, 32u, 48u, 64u));

// ---------------------------------------------------------------------------
// Symbolic interpreter vs concrete interpreter, parameterized by seed.
// ---------------------------------------------------------------------------

class SymbolicVsConcrete : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymbolicVsConcrete, IngressOutputsAgreeOnRandomInputs) {
  const uint64_t seed = GetParam();
  GeneratorOptions generator_options;
  generator_options.seed = seed;
  ProgramPtr program = ProgramGenerator(generator_options).Generate();

  SmtContext ctx;
  SymbolicInterpreter interpreter(ctx);
  const BlockSemantics semantics = interpreter.InterpretRole(*program, BlockRole::kIngress);

  Rng rng(seed * 31 + 7);
  for (int round = 0; round < 4; ++round) {
    // Random ingress inputs, shared by both interpreters.
    SmtModel model;
    std::map<std::string, BitValue> concrete_inputs;
    for (const std::string& input : semantics.input_vars) {
      const SmtRef var = ctx.FindVar(input);
      ASSERT_TRUE(var.IsValid());
      if (ctx.IsBool(var)) {
        const bool value = rng.Chance(60);  // headers mostly valid
        model.bool_values[input] = value;
        concrete_inputs[input] = BitValue(1, value ? 1 : 0);
      } else {
        const BitValue value(ctx.WidthOf(var), rng.Next());
        model.bit_values[input] = value;
        concrete_inputs[input] = value;
      }
    }
    // Random control-plane state: each symbolic entry slot is independently
    // left empty (its action var defaults to 0 in the model) or installed
    // with random key/action/data/priority values. The concrete config is
    // the model *inverted through the shared table layer* (EntriesFromModel,
    // src/table/entry_set.h), so this differential also pins the
    // priority-to-installation-order contract between the two engines.
    TableConfig tables;
    for (const TableInfo& table : semantics.tables) {
      for (const SymbolicTableEntry& slot : table.entries) {
        if (rng.Chance(40) || table.action_names.empty()) {
          continue;  // slot stays empty
        }
        const size_t action_index = rng.Below(table.action_names.size());
        model.bit_values[slot.action_var] = BitValue(16, action_index + 1);
        const SmtRef prio_var = ctx.FindVar(slot.priority_var);
        ASSERT_TRUE(prio_var.IsValid());
        model.bit_values[slot.priority_var] = BitValue(ctx.WidthOf(prio_var), rng.Next());
        for (const std::string& key_var : slot.key_vars) {
          const SmtRef var = ctx.FindVar(key_var);
          model.bit_values[key_var] = BitValue(ctx.WidthOf(var), rng.Next());
        }
        for (const std::string& data_var : slot.action_data_vars[action_index]) {
          const SmtRef var = ctx.FindVar(data_var);
          if (ctx.IsBool(var)) {
            model.bool_values[data_var] = rng.Chance(50);
          } else {
            model.bit_values[data_var] = BitValue(ctx.WidthOf(var), rng.Next());
          }
        }
      }
      std::vector<TableEntry> entries = EntriesFromModel(model, table);
      if (!entries.empty()) {
        tables[table.table_name] = std::move(entries);
      }
    }
    // Undefined values stay absent from the model: ModelEvaluator reads
    // them as zero, exactly like the zero-initializing concrete target.

    const std::map<std::string, BitValue> concrete_outputs =
        ConcreteInterpreter(*program).RunIngressOnScalars(concrete_inputs, tables);

    ModelEvaluator evaluator(ctx, model);
    for (const auto& [name, ref] : semantics.outputs) {
      if (name == "$exited") {
        continue;  // not an observable output of the target
      }
      auto it = concrete_outputs.find(name);
      ASSERT_NE(it, concrete_outputs.end()) << "missing concrete output " << name;
      const uint64_t symbolic_value = evaluator.Eval(ref);
      EXPECT_EQ(symbolic_value, it->second.bits())
          << "seed " << seed << " round " << round << " output " << name << "\n"
          << PrintProgram(*program);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicVsConcrete,
                         ::testing::Range(uint64_t{300}, uint64_t{340}));

// ---------------------------------------------------------------------------
// Printer round-trip, parameterized by seed.
// ---------------------------------------------------------------------------

class RoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripProperty, PrintParsePrintIsAFixedPoint) {
  GeneratorOptions options;
  options.seed = GetParam();
  ProgramPtr program = ProgramGenerator(options).Generate();
  const std::string printed = PrintProgram(*program);
  ProgramPtr reparsed = Parser::ParseString(printed);
  EXPECT_EQ(printed, PrintProgram(*reparsed));
  EXPECT_EQ(HashProgram(*program), HashProgram(*reparsed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty,
                         ::testing::Range(uint64_t{500}, uint64_t{540}));

// ---------------------------------------------------------------------------
// Clean-pipeline semantics preservation, parameterized by seed.
// ---------------------------------------------------------------------------

class CleanPipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CleanPipelineProperty, NoSemanticDiffAndNoCrash) {
  GeneratorOptions options;
  options.seed = GetParam();
  ProgramPtr program = ProgramGenerator(options).Generate();
  const TranslationValidator validator(PassManager::StandardPipeline());
  const TvReport report = validator.Validate(*program, BugConfig::None());
  EXPECT_FALSE(report.crashed) << report.crash_message << "\n" << PrintProgram(*program);
  for (const TvPassResult& result : report.pass_results) {
    EXPECT_NE(result.verdict, TvVerdict::kSemanticDiff)
        << result.pass_name << ": " << result.detail << "\n"
        << PrintProgram(*program);
    EXPECT_NE(result.verdict, TvVerdict::kInvalidEmit) << result.pass_name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanPipelineProperty,
                         ::testing::Range(uint64_t{700}, uint64_t{715}));

// ---------------------------------------------------------------------------
// The campaign compiles every back end from validation's pipeline output
// instead of lowering again, so the two must agree program for program —
// under every seeded fault, crashes included.
// ---------------------------------------------------------------------------

TEST(LoweringReuseProperty, ValidatorLoweringEqualsLowerThroughPipeline) {
  const BugConfig bugs = BugConfig::All();
  const TranslationValidator validator(PassManager::StandardPipeline());
  int crashed = 0;
  for (uint64_t seed = 1300; seed < 1350; ++seed) {
    GeneratorOptions options;
    options.seed = seed;
    const ProgramPtr program = ProgramGenerator(options).Generate();
    const TvReport report = validator.Validate(*program, bugs);
    if (!report.crashed) {
      ASSERT_NE(report.lowered, nullptr) << "seed " << seed;
      EXPECT_EQ(PrintProgram(*report.lowered),
                PrintProgram(*LowerThroughPipeline(*program, bugs)))
          << "seed " << seed;
      continue;
    }
    ++crashed;
    EXPECT_EQ(report.lowered, nullptr) << "seed " << seed;
    // The lowering fails with the very exception validation recorded (type
    // checking's message carries a prefix), and it is one of the two types
    // the campaign sorts into crashes and orderly rejections.
    try {
      LowerThroughPipeline(*program, bugs);
      ADD_FAILURE() << "seed " << seed << ": validation crashed but lowering did not";
    } catch (const std::exception& error) {
      EXPECT_TRUE(report.crash_message == error.what() ||
                  report.crash_message == std::string("type checking: ") + error.what())
          << "seed " << seed << ": " << report.crash_message << " vs " << error.what();
      EXPECT_TRUE(dynamic_cast<const CompilerBugError*>(&error) != nullptr ||
                  dynamic_cast<const CompileError*>(&error) != nullptr)
          << "seed " << seed << ": " << error.what();
    }
  }
  // Both branches must be exercised for the property to mean anything.
  EXPECT_GT(crashed, 0);
  EXPECT_LT(crashed, 50);
}

// ---------------------------------------------------------------------------
// Compiled-vs-source behavioral agreement on whole packets.
// ---------------------------------------------------------------------------

class CompiledBehaviorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledBehaviorProperty, CompiledTargetMatchesSourceOnRandomPackets) {
  const uint64_t seed = GetParam();
  GeneratorOptions options;
  options.seed = seed;
  ProgramPtr program = ProgramGenerator(options).Generate();
  TypeCheck(*program);
  // Source-level reference vs fully compiled artifact.
  ConcreteInterpreter source(*program);
  const auto compiled = TargetRegistry::Get("bmv2").Compile(*program, BugConfig::None());
  Rng rng(seed + 99);
  for (int round = 0; round < 8; ++round) {
    BitString packet;
    const size_t bytes = rng.Range(1, 24);
    for (size_t i = 0; i < bytes; ++i) {
      packet.AppendBits(BitValue(8, rng.Next()));
    }
    const PacketResult source_result = source.RunPacket(packet, {});
    const PacketResult compiled_result = compiled->Run(packet, {});
    EXPECT_EQ(source_result, compiled_result)
        << "seed " << seed << " round " << round << " input " << packet.ToHex() << "\n"
        << PrintProgram(*program);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledBehaviorProperty,
                         ::testing::Range(uint64_t{900}, uint64_t{930}));

// ---------------------------------------------------------------------------
// Test-generation oracle soundness: on a clean compiler, every generated
// test case (input packet + table entries + expected output derived from
// the formal semantics) must pass on both targets. A failure means the
// symbolic semantics and the target semantics disagree — the false-alarm
// class the paper spent five months of interpreter development eliminating
// (§5.2).
// ---------------------------------------------------------------------------

class TestgenOracleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TestgenOracleProperty, GeneratedTestsPassOnCleanTargets) {
  const uint64_t seed = GetParam();
  GeneratorOptions options;
  options.seed = seed;
  options.backend = GeneratorBackend::kTofino;
  ProgramPtr program = ProgramGenerator(options).Generate();
  TypeCheck(*program);
  TestGenOptions testgen;
  testgen.max_tests = 8;
  testgen.max_decisions = 6;
  std::vector<PacketTest> tests;
  try {
    tests = TestCaseGenerator(testgen).Generate(*program);
  } catch (const UnsupportedError&) {
    GTEST_SKIP() << "program outside the supported testgen fragment";
  }
  const auto bmv2 = TargetRegistry::Get("bmv2").Compile(*program, BugConfig::None());
  for (const auto& [test, result] : RunPacketTests(*bmv2, tests)) {
    ADD_FAILURE() << "BMv2 failed " << test.name << ": " << result.detail << "\nseed " << seed
                  << "\n"
                  << PrintProgram(*program);
  }
  const auto tofino = TargetRegistry::Get("tofino").Compile(*program, BugConfig::None());
  for (const auto& [test, result] : RunPacketTests(*tofino, tests)) {
    ADD_FAILURE() << "Tofino failed " << test.name << ": " << result.detail << "\nseed "
                  << seed << "\n"
                  << PrintProgram(*program);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TestgenOracleProperty,
                         ::testing::Range(uint64_t{1200}, uint64_t{1230}));

}  // namespace
}  // namespace gauntlet
