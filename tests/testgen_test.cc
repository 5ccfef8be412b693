#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/target/target.h"
#include "src/testgen/testgen.h"
#include "src/typecheck/typecheck.h"

namespace gauntlet {
namespace {

constexpr const char* kPipelineProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  action set_b(bit<8> v) { hdr.h.b = v; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_b; NoAction; }
    default_action = NoAction();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)";

std::unique_ptr<Program> Load(const std::string& source) {
  auto program = Parser::ParseString(source);
  TypeCheck(*program);
  return program;
}

TEST(TestGenTest, GeneratesTestsCoveringTablePaths) {
  auto program = Load(kPipelineProgram);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  // At least: miss path, hit-with-set_b path, hit-with-NoAction path.
  EXPECT_GE(tests.size(), 3u);
  bool any_hit = false;
  bool any_miss = false;
  for (const PacketTest& test : tests) {
    // The table key is the packet's first byte.
    const std::optional<BitValue> key = test.input.ReadBits(0, 8);
    ASSERT_TRUE(key.has_value());
    bool hits = false;
    const auto it = test.tables.find("t");
    if (it != test.tables.end()) {
      for (const TableEntry& entry : it->second) {
        hits |= entry.key[0].bits() == key->bits();
      }
    }
    any_hit |= hits;
    any_miss |= !hits;
  }
  EXPECT_TRUE(any_hit);
  EXPECT_TRUE(any_miss);
}

TEST(TestGenTest, SolvesMultiEntryScenariosPreSolve) {
  // The Fig. 3 N-entry generalization: path enumeration itself produces
  // multi-entry control-plane state — no post-solve decoys. At least one
  // test must install >= 2 entries on one table, and at least one test must
  // hit a *non-first installed* entry: the packet key misses the first
  // installed entry and matches a later one, on a true symbolic path.
  auto program = Load(kPipelineProgram);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  bool any_multi_entry = false;
  bool any_non_first_hit = false;
  for (const PacketTest& test : tests) {
    const auto it = test.tables.find("t");
    if (it == test.tables.end()) {
      continue;
    }
    const std::vector<TableEntry>& entries = it->second;
    any_multi_entry |= entries.size() >= 2;
    const std::optional<BitValue> key = test.input.ReadBits(0, 8);
    ASSERT_TRUE(key.has_value());
    if (entries.size() >= 2 && entries[0].key[0].bits() != key->bits()) {
      for (size_t i = 1; i < entries.size(); ++i) {
        any_non_first_hit |= entries[i].key[0].bits() == key->bits();
      }
    }
  }
  EXPECT_TRUE(any_multi_entry) << "no generated test installed >= 2 entries pre-solve";
  EXPECT_TRUE(any_non_first_hit) << "no generated test hits a non-first installed entry";
}

TEST(TestGenTest, PriorityInversionCaughtViaSymbolicShadowedEntries) {
  // The bmv2-table-priority-inversion fault (last matching installed entry
  // wins instead of the first) is only observable on a test whose table
  // holds >= 2 entries matching the same packet key with different
  // behavior. With the N-entry encoding that scenario is solved *pre-solve*
  // — no post-solve decoys exist anymore — so a failing test here proves
  // the fault is caught on a true symbolic path.
  auto program = Load(kPipelineProgram);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TablePriorityInversion);
  const auto target = TargetRegistry::Get("bmv2").Compile(*program, bugs);
  const auto failures = RunPacketTests(*target, tests);
  ASSERT_FALSE(failures.empty()) << "priority inversion not caught";
  bool shadowed_failure = false;
  for (const auto& [test, outcome] : failures) {
    const std::optional<BitValue> key = test.input.ReadBits(0, 8);
    ASSERT_TRUE(key.has_value());
    const auto it = test.tables.find("t");
    if (it == test.tables.end()) {
      continue;
    }
    size_t matching = 0;
    for (const TableEntry& entry : it->second) {
      matching += entry.key[0].bits() == key->bits() ? 1 : 0;
    }
    shadowed_failure |= it->second.size() >= 2 && matching >= 2;
  }
  EXPECT_TRUE(shadowed_failure)
      << "no failing test carries overlapping (shadowed) installed entries";
}

TEST(TestGenTest, SingleEntryOptionRecoversFig3Baseline) {
  // symbolic_table_entries = 1 is the paper's original encoding — at most
  // one installed entry per table (the bench_table_model baseline).
  auto program = Load(kPipelineProgram);
  TestGenOptions options;
  options.symbolic_table_entries = 1;
  const std::vector<PacketTest> tests = TestCaseGenerator(options).Generate(*program);
  EXPECT_GE(tests.size(), 3u);
  for (const PacketTest& test : tests) {
    for (const auto& [name, entries] : test.tables) {
      EXPECT_LE(entries.size(), 1u) << name;
    }
  }
}

TEST(TestGenTest, TestsPassOnCleanBmv2) {
  auto program = Load(kPipelineProgram);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  const auto target = TargetRegistry::Get("bmv2").Compile(*program, BugConfig::None());
  const auto failures = RunPacketTests(*target, tests);
  EXPECT_TRUE(failures.empty()) << failures.size() << " of " << tests.size()
                                << " generated tests failed; first: "
                                << (failures.empty() ? "" : failures[0].second.detail);
}

TEST(TestGenTest, TestsPassOnCleanTofino) {
  auto program = Load(kPipelineProgram);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  const auto target = TargetRegistry::Get("tofino").Compile(*program, BugConfig::None());
  EXPECT_TRUE(RunPacketTests(*target, tests).empty());
}

TEST(TestGenTest, FieldsNamedLikeUndefinedValuesAreStillInputs) {
  // Only values the interpreter creates as undefined are pinned to zero: a
  // header field whose name contains "undef" still drives both branches.
  for (const std::string field : {"undef_flag", "plain_flag"}) {
    auto program = Load("header H { bit<8> " + field + "; bit<8> b; }\n" + R"(
struct Hdr { H h; }
parser p(out Hdr hdr) { state start { pkt.extract(hdr.h); transition accept; } }
control ig(inout Hdr hdr) {
  apply { if (hdr.h.)" + field + R"( == 8w7) { hdr.h.b = 8w1; } }
}
control dp(in Hdr hdr) { apply { pkt.emit(hdr.h); } }
package main { parser = p; ingress = ig; deparser = dp; }
)");
    const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
    ASSERT_EQ(tests.size(), 2u) << field;
    EXPECT_EQ(tests[0].input.ReadBits(0, 8)->bits(), 7u) << field;
  }
}

TEST(TestGenTest, PrefersNonZeroPackets) {
  auto program = Load(kPipelineProgram);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  size_t nonzero = 0;
  for (const PacketTest& test : tests) {
    nonzero += test.input.ToHex() != "0000" ? 1 : 0;
  }
  EXPECT_GT(nonzero, 0u);
}

TEST(TestGenTest, DetectsTofinoDefaultSkippedBug) {
  // The black-box detection flow of Figure 4: generated tests expose the
  // proprietary back end's miscompilation even though translation
  // validation cannot see its IR.
  auto program = Load(R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.h);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  action mark() { hdr.h.b = 8w0xee; }
  action set_b(bit<8> v) { hdr.h.b = v; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_b; mark; }
    default_action = mark();
  }
  apply { t.apply(); }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.h); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  BugConfig bugs;
  bugs.Enable(BugId::kTofinoTableDefaultSkipped);
  const auto buggy = TargetRegistry::Get("tofino").Compile(*program, bugs);
  EXPECT_FALSE(RunPacketTests(*buggy, tests).empty());
  const auto clean = TargetRegistry::Get("tofino").Compile(*program, BugConfig::None());
  EXPECT_TRUE(RunPacketTests(*clean, tests).empty());
}

TEST(TestGenTest, DetectsTofinoDeparserValidityBug) {
  auto program = Load(R"(
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
control ig(inout Hdr hdr) {
  apply { }
}
control dp(in Hdr hdr) {
  apply {
    pkt.emit(hdr.h);
    pkt.emit(hdr.g);
  }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  ASSERT_GE(tests.size(), 2u);  // both select arms
  BugConfig bugs;
  bugs.Enable(BugId::kTofinoDeparserEmitsInvalid);
  const auto buggy = TargetRegistry::Get("tofino").Compile(*program, bugs);
  EXPECT_FALSE(RunPacketTests(*buggy, tests).empty());
}

TEST(TestGenTest, DetectsBmv2MissQuirk) {
  auto program = Load(kPipelineProgram);
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  BugConfig bugs;
  bugs.Enable(BugId::kBmv2TableMissRunsFirstAction);
  const auto buggy = TargetRegistry::Get("bmv2").Compile(*program, bugs);
  EXPECT_FALSE(RunPacketTests(*buggy, tests).empty());
}

TEST(TestGenTest, ParserBranchesProduceDistinctPackets) {
  auto program = Load(R"(
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
control ig(inout Hdr hdr) {
  apply { }
}
control dp(in Hdr hdr) {
  apply {
    pkt.emit(hdr.h);
    pkt.emit(hdr.g);
  }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*program);
  bool saw_one_byte = false;
  bool saw_two_bytes = false;
  for (const PacketTest& test : tests) {
    saw_one_byte |= test.input.size() == 8;
    saw_two_bytes |= test.input.size() == 16;
  }
  EXPECT_TRUE(saw_one_byte);
  EXPECT_TRUE(saw_two_bytes);
}

TEST(TestGenTest, RequiresParserAndDeparser) {
  auto program = Load(R"(
control ig(inout bit<8> x) {
  apply { x = x + 8w1; }
}
package main { ingress = ig; }
)");
  EXPECT_THROW(TestCaseGenerator().Generate(*program), UnsupportedError);
}

TEST(TestGenTest, RespectsMaxTestsCap) {
  auto program = Load(kPipelineProgram);
  TestGenOptions options;
  options.max_tests = 2;
  const std::vector<PacketTest> tests = TestCaseGenerator(options).Generate(*program);
  EXPECT_LE(tests.size(), 2u);
}

}  // namespace
}  // namespace gauntlet
