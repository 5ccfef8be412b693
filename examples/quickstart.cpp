// Quickstart: the three Gauntlet techniques on one page.
//
// 1. Compile and run a mini-P4 program on the BMv2 reference target.
// 2. Translation-validate the pass pipeline and catch a seeded
//    miscompilation (the paper's Fig. 5f exit/copy-out bug).
// 3. Generate packet tests symbolically and replay them on the closed-box
//    Tofino back end.
//
// Build: cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gauntlet/campaign.h"
#include "src/target/target.h"
#include "src/testgen/testgen.h"
#include "src/tv/validator.h"
#include "src/typecheck/typecheck.h"

namespace {

constexpr const char* kProgram = R"(
header Eth { bit<16> eth_type; }
struct Hdr { Eth eth; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.eth);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  action a(inout bit<16> val) {
    val = 16w3;
    exit;
  }
  apply {
    a(hdr.eth.eth_type);
    hdr.eth.eth_type = 16w99;
  }
}
control dp(in Hdr hdr) {
  apply { pkt.emit(hdr.eth); }
}
package main { parser = p; ingress = ig; deparser = dp; }
)";

}  // namespace

int main() {
  using namespace gauntlet;

  // --- 1. Parse, type-check, compile, push a packet ---------------------
  auto program = Parser::ParseString(kProgram);
  TypeCheck(*program);
  std::printf("== program under test ==\n%s\n", PrintProgram(*program).c_str());

  const auto clean = TargetRegistry::Get("bmv2").Compile(*program, BugConfig::None());
  BitString packet;
  packet.AppendBits(BitValue(16, 0xaabb));
  const PacketResult result = clean->Run(packet, {});
  std::printf("clean BMv2: in=aabb out=%s (exit still copies out: 0003)\n\n",
              result.output.ToHex().c_str());

  // --- 2. Translation validation catches the Fig. 5f bug ----------------
  BugConfig bugs;
  bugs.Enable(BugId::kExitIgnoresCopyOut);
  const TranslationValidator validator(PassManager::StandardPipeline());
  const TvReport report = validator.Validate(*program, bugs);
  std::printf("== translation validation with seeded %s ==\n",
              BugIdToString(BugId::kExitIgnoresCopyOut).c_str());
  for (const TvPassResult& pass_result : report.pass_results) {
    std::printf("  %-24s %s\n", pass_result.pass_name.c_str(),
                TvVerdictToString(pass_result.verdict).c_str());
    if (pass_result.verdict == TvVerdict::kSemanticDiff) {
      std::printf("    -> miscompiling pass pinpointed; witness input:\n");
      for (const auto& [name, value] : pass_result.counterexample.bit_values) {
        std::printf("       %s = %s\n", name.c_str(), value.ToString().c_str());
      }
    }
  }

  // --- 3. Black-box testing of the closed Tofino back end ---------------
  // A program with an optional header: the Tofino deparser fault (emitting
  // invalid headers) only shows on the path that skips the second header.
  auto tofino_program = Parser::ParseString(R"(
header A { bit<8> tag; }
header B { bit<8> data; }
struct Hdr { A a; B b; }
parser p(out Hdr hdr) {
  state start {
    pkt.extract(hdr.a);
    transition select(hdr.a.tag) {
      8w1: parse_b;
      default: accept;
    }
  }
  state parse_b {
    pkt.extract(hdr.b);
    transition accept;
  }
}
control ig(inout Hdr hdr) {
  apply { }
}
control dp(in Hdr hdr) {
  apply {
    pkt.emit(hdr.a);
    pkt.emit(hdr.b);
  }
}
package main { parser = p; ingress = ig; deparser = dp; }
)");
  TypeCheck(*tofino_program);
  std::printf("\n== symbolic-execution test cases vs Tofino ==\n");
  const std::vector<PacketTest> tests = TestCaseGenerator().Generate(*tofino_program);
  std::printf("generated %zu path-covering test cases\n", tests.size());
  BugConfig tofino_bugs;
  tofino_bugs.Enable(BugId::kTofinoDeparserEmitsInvalid);
  const Target& tofino_target = TargetRegistry::Get("tofino");
  const auto tofino = tofino_target.Compile(*tofino_program, tofino_bugs);
  const auto failures = RunPacketTests(*tofino, tests);
  std::printf(
      "failures on buggy Tofino: %zu  (clean Tofino: %zu)\n", failures.size(),
      RunPacketTests(*tofino_target.Compile(*tofino_program, BugConfig::None()), tests)
          .size());
  if (!failures.empty()) {
    std::printf("  first mismatch: %s\n", failures[0].second.detail.c_str());
  }
  return 0;
}
