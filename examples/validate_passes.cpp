// Translation validation walkthrough (paper §5, Figure 2): emit the program
// after every pass, re-parse it, and prove pass-pair equivalence — printing
// the intermediate programs so the pinpointing is visible.
//
// Usage: validate_passes [--bug <name>]
// Known bug names: see `BugCatalogue()` (e.g. predication-lost-else).

#include <cstdio>
#include <cstring>
#include <string>

#include "src/frontend/parser.h"
#include "src/tv/validator.h"
#include "src/typecheck/typecheck.h"

namespace {

// A program touching the constructs most p4c semantic bugs lived in:
// copy-in/copy-out, exits, predication-style branches, and slices.
constexpr const char* kProgram = R"(
header H { bit<8> a; bit<8> b; }
struct Hdr { H h; }
control ig(inout Hdr hdr, inout bit<8> meta) {
  action cond_update() {
    if (hdr.h.a == 8w0) {
      hdr.h.a = 8w1;
      hdr.h.b = 8w2;
    } else {
      hdr.h.b = hdr.h.b + 8w1;
    }
  }
  action adjust(inout bit<7> val) {
    hdr.h.b[0:0] = 1w1;
    val = val + 7w3;
  }
  table t {
    key = { hdr.h.a : exact; }
    actions = { cond_update; NoAction; }
    default_action = NoAction();
  }
  apply {
    t.apply();
    adjust(hdr.h.b[7:1]);
    meta = (8w200 + 8w100) * hdr.h.a;
  }
}
package main { ingress = ig; }
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace gauntlet;

  BugConfig bugs;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--bug") == 0) {
      for (const BugInfo& info : BugCatalogue()) {
        if (info.name == std::string(argv[i + 1])) {
          bugs.Enable(info.id);
          std::printf("seeding %s into %s (%s)\n", info.name, info.pass_name, info.paper_ref);
        }
      }
    }
  }
  if (bugs.empty()) {
    std::printf("no --bug given: validating the clean pipeline "
                "(try --bug predication-lost-else)\n");
  }

  auto program = Parser::ParseString(kProgram);
  TypeCheck(*program);

  // Show the nanopass trace: program after every pass that changed it.
  std::printf("\n== pass-by-pass emission (p4test --top4 analogue) ==\n");
  auto traced = program->Clone();
  try {
    PassManager::StandardPipeline().Run(
        *traced, bugs, [](const std::string& name, const Program&, const std::string& text) {
          std::printf("---- after %s ----\n%s\n", name.c_str(), text.c_str());
        });
  } catch (const std::exception& error) {
    std::printf("!! pipeline crashed: %s\n", error.what());
  }

  std::printf("== validation verdicts ==\n");
  const TranslationValidator validator(PassManager::StandardPipeline());
  const TvReport report = validator.Validate(*program, bugs);
  if (report.crashed) {
    std::printf("pipeline crash: %s\n", report.crash_message.c_str());
  }
  for (const TvPassResult& result : report.pass_results) {
    std::printf("  %-24s %-28s %s\n", result.pass_name.c_str(),
                TvVerdictToString(result.verdict).c_str(), result.detail.c_str());
    if (result.verdict == TvVerdict::kSemanticDiff) {
      std::printf("    witness (table entries + packet fields):\n");
      for (const auto& [name, value] : result.counterexample.bit_values) {
        std::printf("      %s = %s\n", name.c_str(), value.ToString().c_str());
      }
    }
  }
  return 0;
}
